//! # medledger-bx
//!
//! Bidirectional transformations (asymmetric lenses) over relational
//! tables — the synchronization mechanism of the paper (Sec. II-B, III-C1).
//!
//! A lens between a *source* table and a *view* table provides
//!
//! * `get(source) -> view` — extract the shared slice, and
//! * `put(source, view') -> source'` — embed an updated view back,
//!
//! satisfying the round-tripping laws:
//!
//! ```text
//! GetPut:  put(s, get(s)) == s          (no view change ⇒ no source change)
//! PutGet:  get(put(s, v')) == v'        (put reflects every view change)
//! ```
//!
//! The combinators mirror the shapes in the paper's Fig. 1:
//!
//! * [`LensSpec::project`] — key-preserving projection (D1 → D13: a
//!   patient's record minus the address column),
//! * [`LensSpec::project_distinct`] — duplicate-eliminating projection
//!   under a functional dependency (D3 → D32: per-medication mechanism
//!   rows derived from per-patient rows; a put rewrites *every* matching
//!   patient row, exactly the Fig. 5 semantics),
//! * [`LensSpec::select`] — row filtering,
//! * [`LensSpec::rename`] — column renaming,
//! * [`LensSpec::compose`] — sequential composition.
//!
//! Updates the lens cannot translate (e.g. inserting a brand-new
//! medication into a view that has no patient to attach it to) are
//! **errors from `put`**, never silent data loss — see
//! [`BxError::Untranslatable`].
//!
//! [`analysis`] computes, for any lens, its view schema and which source
//! attributes an update of existing rows through it can write. [`delta`]
//! diffs table versions to find changed attributes (what the sharing
//! contract checks write permission on). [`incremental`] pushes
//! row-level deltas *through* lenses — [`get_delta`] / [`put_delta`] — so
//! propagation cost scales with the rows an update touched, not the
//! table. [`laws`] provides executable checkers for the two laws, used by
//! both the unit tests and the property-based suite.

pub mod analysis;
pub mod delta;
pub mod error;
pub mod exec;
pub mod group;
pub mod incremental;
pub mod laws;
pub mod spec;

pub use delta::{changed_attrs, changed_attrs_from_delta, diff_tables, TableDelta};
pub use error::BxError;
pub use group::GroupIndex;
pub use incremental::{get_delta, get_delta_indexed, put_delta, put_delta_indexed};
pub use laws::{check_getput, check_putget};
pub use spec::LensSpec;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BxError>;
