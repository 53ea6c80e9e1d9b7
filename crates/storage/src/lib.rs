//! Durable storage for MedLedger.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Codec** ([`codec`]) — a compact, versioned, length-prefixed
//!    binary encoding ([`Encode`]/[`Decode`]) for the value, table, and
//!    log types the ledger hashes and persists. It replaces the JSON
//!    canonical forms on the hot hashing paths and is what WAL records
//!    and snapshots are made of.
//! 2. **WAL** ([`wal`]) — segmented, CRC-framed append-only record
//!    streams with torn-tail truncation on open and loud failure on
//!    mid-log corruption; a stream is never cut once written.
//! 3. **Backend** ([`backend`], [`store`], [`snapshot`]) — the
//!    [`StorageBackend`] trait the system core writes through, with an
//!    in-memory implementation for hermetic tests and a directory-backed
//!    [`DurableStore`] for real persistence.
//!
//! The system core (`medledger-core`) decides *what* to persist — one
//! record per flush carrying that flush's blocks and its WAL records
//! with their caller-attested post-state hashes, and periodic snapshots
//! — and this crate decides *how* the bytes survive a crash.

pub mod backend;
pub mod codec;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use backend::{MemoryBackend, SharedBackend, StorageBackend};
pub use codec::{Decode, Encode, Reader};
pub use store::DurableStore;
pub use wal::SegmentedLog;

use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// A byte sequence failed to decode as the expected type.
    Codec(String),
    /// On-disk state is damaged in a way recovery must not paper over.
    Corrupt(String),
    /// Recovered state failed a cross-check against the chain (for
    /// example a table's folded shard subroots disagree with the
    /// recovered contract metadata).
    Verification(String),
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// An injected fault from a test harness (crash-point simulation).
    Injected(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Codec(msg) => write!(f, "codec error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StorageError::Verification(msg) => write!(f, "recovery verification failed: {msg}"),
            StorageError::Io(err) => write!(f, "storage I/O error: {err}"),
            StorageError::Injected(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(err: std::io::Error) -> Self {
        StorageError::Io(err)
    }
}

/// Storage-layer result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
