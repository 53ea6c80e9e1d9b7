//! The backend abstraction the system core persists through.
//!
//! `medledger-core` writes flush records and snapshots through
//! [`StorageBackend`] without knowing whether the
//! bytes land on disk ([`crate::DurableStore`]), stay in memory
//! ([`MemoryBackend`] — hermetic tests), or pass through a fault
//! injector (the crash-recovery suite wraps a backend and fails appends
//! after a budget).

use crate::Result;
use std::collections::BTreeMap;

/// A set of named append-only record streams plus a snapshot store.
///
/// Streams are created implicitly on first touch. Record indices are
/// dense and start at 0; a stream is never cut, from either end.
/// Snapshot ids are chosen by the caller (the core uses the flush
/// epoch); the newest two by id are retained.
pub trait StorageBackend: Send {
    /// Appends a record to `stream`, returning its index.
    fn append(&mut self, stream: &str, payload: &[u8]) -> Result<u64>;

    /// Reads records `[from, len)` of `stream` in order.
    fn read_from(&mut self, stream: &str, from: u64) -> Result<Vec<Vec<u8>>>;

    /// Stores snapshot `id` atomically (visible fully or not at all).
    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> Result<()>;

    /// Returns snapshot `id` if it is still retained (`None` if not; an
    /// error if it is there but damaged).
    ///
    /// Recovery reads snapshots by the id a flush record names, never
    /// "the newest": a crash between a snapshot write and its flush
    /// record leaves the newest snapshot unreferenced.
    fn read_snapshot(&mut self, id: u64) -> Result<Option<Vec<u8>>>;

    /// Flushes all buffered writes to stable storage.
    fn sync(&mut self) -> Result<()>;

    /// Number of live WAL segment files currently held across all
    /// streams (feeds the `storage.segments` telemetry gauge — see
    /// `docs/OBSERVABILITY.md`). Backends without segmented storage
    /// report 0.
    fn segment_count(&mut self) -> u64 {
        0
    }
}

/// An in-memory backend: same semantics as the durable store, zero I/O.
///
/// Used by hermetic tests and as the substrate for fault-injecting
/// wrappers; "crashing" is modelled by cloning the backend at the crash
/// point and recovering from the clone.
#[derive(Clone, Debug, Default)]
pub struct MemoryBackend {
    streams: BTreeMap<String, Vec<Vec<u8>>>,
    snapshots: BTreeMap<u64, Vec<u8>>,
}

impl MemoryBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots currently retained.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Names of streams that have been touched.
    pub fn stream_names(&self) -> Vec<String> {
        self.streams.keys().cloned().collect()
    }

    /// The records of `stream`, editable in place — how a test tampers
    /// with what a deployment wrote before recovering from it.
    pub fn records_mut(&mut self, stream: &str) -> &mut Vec<Vec<u8>> {
        self.streams.entry(stream.to_string()).or_default()
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&mut self, stream: &str, payload: &[u8]) -> Result<u64> {
        let records = self.streams.entry(stream.to_string()).or_default();
        records.push(payload.to_vec());
        Ok(records.len() as u64 - 1)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> Result<Vec<Vec<u8>>> {
        let records = self.streams.get(stream).map(Vec::as_slice).unwrap_or(&[]);
        Ok(records.iter().skip(from as usize).cloned().collect())
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> Result<()> {
        self.snapshots.insert(id, payload.to_vec());
        // Match the durable store's retention: latest two.
        while self.snapshots.len() > 2 {
            let oldest = *self.snapshots.keys().next().expect("non-empty");
            self.snapshots.remove(&oldest);
        }
        Ok(())
    }

    fn read_snapshot(&mut self, id: u64) -> Result<Option<Vec<u8>>> {
        Ok(self.snapshots.get(&id).cloned())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A cloneable handle onto one shared [`MemoryBackend`].
///
/// The core consumes its backend by value; tests that want to inspect
/// (or recover from) the bytes a system wrote hand it a `SharedBackend`
/// clone and keep another. `snapshot_state()` captures the underlying
/// backend at a "crash point"; recovering from a fresh `SharedBackend`
/// over that capture models a restart that lost everything after it.
#[derive(Clone, Debug, Default)]
pub struct SharedBackend {
    inner: std::sync::Arc<std::sync::Mutex<MemoryBackend>>,
}

impl SharedBackend {
    /// An empty shared backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing captured state (see [`SharedBackend::snapshot_state`]).
    pub fn from_state(state: MemoryBackend) -> Self {
        SharedBackend {
            inner: std::sync::Arc::new(std::sync::Mutex::new(state)),
        }
    }

    /// A deep copy of the current backend state.
    pub fn snapshot_state(&self) -> MemoryBackend {
        self.inner.lock().expect("backend lock").clone()
    }

    fn with<T>(&self, f: impl FnOnce(&mut MemoryBackend) -> Result<T>) -> Result<T> {
        f(&mut self.inner.lock().expect("backend lock"))
    }
}

impl StorageBackend for SharedBackend {
    fn append(&mut self, stream: &str, payload: &[u8]) -> Result<u64> {
        self.with(|b| b.append(stream, payload))
    }

    fn read_from(&mut self, stream: &str, from: u64) -> Result<Vec<Vec<u8>>> {
        self.with(|b| b.read_from(stream, from))
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> Result<()> {
        self.with(|b| b.write_snapshot(id, payload))
    }

    fn read_snapshot(&mut self, id: u64) -> Result<Option<Vec<u8>>> {
        self.with(|b| b.read_snapshot(id))
    }

    fn sync(&mut self) -> Result<()> {
        self.with(|b| b.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_and_ordered() {
        let mut b = MemoryBackend::new();
        assert_eq!(b.append("a", b"1").expect("append"), 0);
        assert_eq!(b.append("b", b"x").expect("append"), 0);
        assert_eq!(b.append("a", b"2").expect("append"), 1);
        assert_eq!(b.read_from("a", 1).expect("read"), vec![b"2".to_vec()]);
        assert!(b.read_from("missing", 0).expect("read").is_empty());
        b.records_mut("a")[0] = b"tampered".to_vec();
        assert_eq!(b.read_from("a", 0).expect("read")[0], b"tampered");
    }

    #[test]
    fn snapshots_keep_latest_two() {
        let mut b = MemoryBackend::new();
        for id in 1..=4u64 {
            b.write_snapshot(id, &[id as u8]).expect("write");
        }
        assert_eq!(b.snapshot_count(), 2);
        assert!(b.read_snapshot(2).expect("read").is_none());
        assert_eq!(b.read_snapshot(4).expect("read"), Some(vec![4]));
    }
}
