//! # medledger-workload
//!
//! Synthetic medical-data workloads.
//!
//! The paper evaluates no real dataset (its future-work section plans
//! experiments on de-identified patient data). This crate provides the
//! substitute:
//!
//! * [`ehr`] — a seeded generator of full medical records with exactly the
//!   paper's Fig. 1 schema (`a0` patient id … `a6` mode of action),
//!   including the literal two-row Fig. 1 dataset for the scenario tests,
//! * [`updates`] — seeded update streams with a controllable conflict rate
//!   (how often concurrent updates target the same shared table) for the
//!   throughput and serialization experiments (E6, E7),
//! * [`deident`] — the de-identification pass the paper's future work
//!   calls for: identifier pseudonymization, address generalization and a
//!   k-anonymity check.

pub mod deident;
pub mod ehr;
pub mod updates;

pub use deident::{deidentify, is_k_anonymous, DeidentConfig};
pub use ehr::{fig1_full_records, full_records_schema, EhrGenerator};
pub use updates::{UpdateKind, UpdateStream, WorkloadUpdate};
