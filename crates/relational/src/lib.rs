//! # medledger-relational
//!
//! The in-memory relational database substrate used by every MedLedger
//! peer. The paper's architecture (Fig. 2) gives each stakeholder a local
//! database holding a *full* table (the source) plus materialized *shared*
//! tables (the views); this crate provides:
//!
//! * [`value`] — the dynamically typed cell values with a total order and a
//!   canonical byte encoding (so tables can be content-hashed),
//! * [`row`](mod@row) — rows, each an immutable shared slice of cells: a clone
//!   bumps a reference count and `get_mut` is copy-on-write, so the
//!   deltas, inverses and undo rows that carry a row share its cells,
//! * [`schema`] — column descriptions and primary keys,
//! * [`table`] — keyed tables with O(1) key lookup, canonical
//!   [`Table::content_hash`] Merkle fingerprints, and the relational
//!   operators (project / select / rename / natural join) that the lens
//!   crate builds on,
//! * [`delta`] — row-level [`TableDelta`]s: the unit the propagation
//!   pipeline ships between peers instead of whole tables, applied
//!   incrementally with [`Table::apply_delta`],
//! * [`shard`] — [`ShardMap`], a peer's stored copy of a shared table:
//!   one [`Table`] plus its running encoded-byte total and its apply
//!   heat-map feed,
//! * [`predicate`] — a small predicate AST for selections,
//! * [`database`] — named tables plus a write-ahead log of every mutation
//!   (the basis for peer-side auditing),
//! * [`error`] — the crate-wide error type.
//!
//! Content hashing is load-bearing: the paper requires that "only when all
//! sharing peers have had the newest shared data can they execute further
//! operations" — peers and the sharing contract compare table content
//! hashes to enforce exactly that.

pub mod database;
pub mod delta;
mod digest;
pub mod error;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod shard;
pub mod table;
pub mod value;

pub use database::{fingerprint_of, Database, LogRecord, WriteOp};
pub use delta::{
    changed_attrs, changed_attrs_from_delta, delta_from_write_op, diff_tables, KeyedRows,
    TableDelta,
};
pub use error::RelationalError;
pub use predicate::{CmpOp, Predicate};
pub use row::Row;
pub use schema::{Column, Schema};
pub use shard::ShardMap;
pub use table::Table;
pub use value::{Value, ValueType};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RelationalError>;
