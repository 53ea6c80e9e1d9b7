//! The directory-backed [`StorageBackend`].
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   streams/<stream dir>/seg-<index>.log   segmented WAL per stream
//!   snapshots/snap-<id>.bin                atomic snapshot files
//! ```
//!
//! Stream names are mapped to filesystem-safe directory names by
//! keeping `[A-Za-z0-9._-]` and appending a short digest of the full
//! name, so two distinct stream names can never collide after
//! sanitisation.

use crate::backend::StorageBackend;
use crate::snapshot::SnapshotDir;
use crate::wal::{create_dir_durable, SegmentedLog};
use crate::Result;
use medledger_crypto::sha256;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;

/// Default segment rotation budget (bytes).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Durable, directory-backed storage: segmented WALs plus snapshots.
#[derive(Debug)]
pub struct DurableStore {
    root: PathBuf,
    segment_bytes: u64,
    streams: BTreeMap<String, SegmentedLog>,
    snapshots: SnapshotDir,
}

/// Maps a logical stream name to a collision-free directory name.
fn stream_dir_name(stream: &str) -> String {
    let safe: String = stream
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .take(48)
        .collect();
    let digest = sha256(stream.as_bytes());
    format!("{safe}-{}", &digest.to_hex()[..8])
}

impl DurableStore {
    /// Opens (or creates) a store rooted at `root` with the default
    /// segment budget.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with_segment_bytes(root, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens with an explicit segment rotation budget (tests use small
    /// budgets to exercise rotation).
    pub fn open_with_segment_bytes(root: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let root = root.into();
        create_dir_durable(&root)?;
        create_dir_durable(&root.join("streams"))?;
        let snapshots = SnapshotDir::open(root.join("snapshots"))?;
        Ok(DurableStore {
            root,
            segment_bytes,
            streams: BTreeMap::new(),
            snapshots,
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    fn stream(&mut self, name: &str) -> Result<&mut SegmentedLog> {
        Ok(match self.streams.entry(name.to_string()) {
            Entry::Occupied(open) => open.into_mut(),
            Entry::Vacant(slot) => {
                let dir = self.root.join("streams").join(stream_dir_name(name));
                slot.insert(SegmentedLog::open(dir, self.segment_bytes)?)
            }
        })
    }
}

impl StorageBackend for DurableStore {
    fn append(&mut self, stream: &str, payload: &[u8]) -> Result<u64> {
        self.stream(stream)?.append(payload)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> Result<Vec<Vec<u8>>> {
        self.stream(stream)?.read_from(from)
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> Result<()> {
        self.snapshots.write(id, payload)
    }

    fn retain_snapshots(&mut self, keep: &[u64]) -> Result<()> {
        self.snapshots.retain(keep)
    }

    fn read_snapshot(&mut self, id: u64) -> Result<Option<Vec<u8>>> {
        self.snapshots.read(id)
    }

    fn sync(&mut self) -> Result<()> {
        for log in self.streams.values_mut() {
            log.sync()?;
        }
        Ok(())
    }

    fn segment_count(&mut self) -> u64 {
        // Only streams opened this process count — unopened stream
        // directories hold segments too, but scanning them here would
        // turn a telemetry read into disk I/O.
        self.streams.values().map(|l| l.segment_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("medledger-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streams_and_snapshots_survive_reopen() {
        let root = temp_root("reopen");
        {
            let mut store = DurableStore::open_with_segment_bytes(&root, 64).expect("open");
            store.append("chain", b"block-1").expect("append");
            store.append("chain", b"block-2").expect("append");
            store.append("peer-alice", b"rec-a").expect("append");
            store
                .write_snapshot(7, b"snapshot-payload")
                .expect("snapshot");
            store.sync().expect("sync");
        }
        let mut store = DurableStore::open_with_segment_bytes(&root, 64).expect("reopen");
        assert_eq!(
            store.read_from("chain", 0).expect("read"),
            vec![b"block-1".to_vec(), b"block-2".to_vec()]
        );
        assert_eq!(
            store.read_from("peer-alice", 0).expect("read"),
            vec![b"rec-a".to_vec()]
        );
        assert_eq!(
            store.read_snapshot(7).expect("read").expect("some"),
            b"snapshot-payload"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn distinct_streams_never_collide_after_sanitising() {
        let a = stream_dir_name("peer-data/alice");
        let b = stream_dir_name("peer-data_alice");
        assert_ne!(a, b, "digest suffix keeps sanitised names distinct");
        let mut store =
            DurableStore::open_with_segment_bytes(temp_root("collide"), 64).expect("open");
        store.append("peer-data/alice", b"slash").expect("append");
        store
            .append("peer-data_alice", b"underscore")
            .expect("append");
        assert_eq!(
            store.read_from("peer-data/alice", 0).expect("read"),
            vec![b"slash".to_vec()]
        );
        assert_eq!(
            store.read_from("peer-data_alice", 0).expect("read"),
            vec![b"underscore".to_vec()]
        );
        fs::remove_dir_all(store.root()).ok();
    }
}
