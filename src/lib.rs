//! # MedLedger
//!
//! A from-scratch Rust reproduction of **"Blockchain-based Bidirectional
//! Updates on Fine-grained Medical Data"** (Li, Cao, Hu, Yoshikawa;
//! ICDE 2019 workshops, arXiv:1904.10606).
//!
//! Full medical records are split into fine-grained **views** shared
//! pairwise between stakeholders; **bidirectional transformations**
//! (asymmetric lenses) keep every view consistent with its source after
//! updates on either side; a **permissioned blockchain** holds only the
//! sharing *metadata* (per-attribute write permissions, update history,
//! sync barriers) in a smart contract.
//!
//! ## The typed session facade
//!
//! The public API has three layers, re-exported at the crate root:
//!
//! 1. [`MedLedger`] — built with a fluent builder; peers are typed
//!    [`PeerId`] handles, never raw strings.
//! 2. [`PeerSession`] — `ledger.session(peer)` scopes reads, sharing
//!    agreements ([`ShareBuilder`]), audits and permission grants to one
//!    stakeholder.
//! 3. [`UpdateBatch`] — `session.begin(table)` stages writes;
//!    [`UpdateBatch::commit`] runs the paper's whole Fig. 5 pipeline
//!    (request-update transaction → consensus → lens propagation → acks
//!    → Step-6 cascades) and returns a typed [`CommitOutcome`] with the
//!    on-chain receipts, the propagation report, and the numbered trace.
//!    Failures are typed [`CommitError`]s; permission denials carry the
//!    reverted receipt and the updater's local state is rolled back.
//!
//! ## Quickstart
//!
//! ```
//! use medledger::{MedLedger, Value};
//! use medledger::bx::LensSpec;
//! use medledger::workload::fig1_full_records;
//!
//! // A two-stakeholder ledger: Doctor shares a dosage slice with Patient.
//! let mut ledger = MedLedger::builder()
//!     .seed("doc-quickstart")
//!     .pbft(100)
//!     .peer_key_capacity(64)
//!     .build()
//!     .expect("ledger boots");
//! let doctor = ledger.add_peer("Doctor").expect("add doctor");
//! let patient = ledger.add_peer("Patient").expect("add patient");
//!
//! // Sources: the doctor holds the full records, the patient a slice.
//! let full = fig1_full_records();
//! let d3 = full
//!     .project(&["patient_id", "medication_name", "dosage"], &["patient_id"])
//!     .expect("project");
//! ledger.session(doctor).load_source("D3", d3.clone()).expect("load");
//! ledger.session(patient).load_source("P1", d3).expect("load");
//!
//! // A shared table with a Fig. 3 permission row: only the doctor may
//! // change the dosage.
//! let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
//! ledger
//!     .session(doctor)
//!     .share("ward")
//!     .bind("D3", lens.clone())
//!     .with(patient, "P1", lens)
//!     .writers("patient_id", &[doctor])
//!     .writers("dosage", &[doctor])
//!     .create()
//!     .expect("share registered on chain");
//!
//! // A transactional update batch: stage, then commit through the whole
//! // Fig. 5 pipeline (tx → consensus → lens propagation → acks).
//! let outcome = ledger
//!     .session(doctor)
//!     .begin("ward")
//!     .set(vec![Value::Int(188)], "dosage", Value::text("half a tablet"))
//!     .commit()
//!     .expect("commit");
//! assert_eq!(outcome.version(), 1);
//! assert!(outcome.receipts.iter().all(|r| r.status.is_success()));
//!
//! // The patient sees the new dosage; a patient-side write is denied.
//! let view = ledger.session(patient).read("ward").expect("read");
//! assert_eq!(view.get(&[Value::Int(188)]).expect("row")[1], Value::text("half a tablet"));
//! let denied = ledger
//!     .session(patient)
//!     .begin("ward")
//!     .set(vec![Value::Int(188)], "dosage", Value::text("double it"))
//!     .commit()
//!     .unwrap_err();
//! assert!(denied.is_permission_denied());
//!
//! // The paper's core promise holds: all peers are consistent.
//! ledger.check_consistency().expect("all shared tables consistent");
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`crypto`] | SHA-256, HMAC, Merkle trees, hash-based signatures, seeded PRG |
//! | [`relational`] | values, schemas, keyed tables, predicates, databases |
//! | [`bx`] | lens combinators, GetPut/PutGet law checkers, deltas, overlap analysis |
//! | [`ledger`] | transactions, blocks, chain validation, mempool, audits |
//! | [`contracts`] | contract runtime, the Fig. 3 sharing contract |
//! | [`consensus`] | virtual-time PBFT simulation, PoW interval model |
//! | [`network`] | deterministic latency-modeled message simulation |
//! | [`storage`] | versioned binary codec, segmented WALs, snapshots, storage backends |
//! | [`workload`] | synthetic EHR generation, update streams, de-identification |
//! | [`core`] | the engine (`System`), the facade, the Fig. 1 scenario |
//! | [`engine`] | the ticketed commit pipeline: group-commit waves, write combining, parallel fan-out |
//! | [`node`] | async runtime, per-peer event loops, wire protocol, gateway |
//!
//! ## The ticketed commit pipeline
//!
//! For concurrent writers, wrap the ledger in a [`LedgerService`]:
//! submissions stage writes like an [`UpdateBatch`] but end with a
//! non-blocking `submit()` returning a [`CommitTicket`]; `tick()` /
//! `drain()` commit each **wave** in one block and one scheduled PBFT
//! round. Same-table submissions are *composed* into one member (each
//! submitter permission-checked and receipted individually; a denied
//! submitter rolls back alone) instead of rejected, and Step-6 cascades
//! re-enter the next wave instead of running serially. Updates touching
//! **distinct** shared tables ride the same wave, one block for all of
//! them. The blocking [`UpdateBatch`] `commit()` stays as the
//! one-update-at-a-time Fig. 5 reference. See the `medledger-engine`
//! crate docs for a runnable example.
//!
//! For a *deployment* — per-peer event loops, a framed wire protocol,
//! and a concurrent gateway serving thousands of client sessions over
//! that pipeline on a dependency-free async runtime — see the
//! [`node`] crate ([`node::Deployment`]).

pub use medledger_bx as bx;
pub use medledger_consensus as consensus;
pub use medledger_contracts as contracts;
pub use medledger_core as core;
pub use medledger_crypto as crypto;
pub use medledger_engine as engine;
pub use medledger_ledger as ledger;
pub use medledger_network as network;
pub use medledger_node as node;
pub use medledger_relational as relational;
pub use medledger_storage as storage;
pub use medledger_telemetry as telemetry;
pub use medledger_workload as workload;

pub use medledger_core::{
    CommitError, CommitOutcome, ConsensusKind, CoreError, FlushRecord, MedLedger, MedLedgerBuilder,
    PeerId, PeerReader, PeerSession, Recovery, ShareBuilder, SystemConfig, UpdateBatch,
    UpdateReport, WorkflowTrace,
};
pub use medledger_engine::{CommitTicket, LedgerService, Submission, WaveReport};
pub use medledger_relational::{Row, ShardMap, Table, Value};
