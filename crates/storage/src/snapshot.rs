//! Atomic snapshot files.
//!
//! A snapshot is an opaque payload (the core serialises full system
//! state through the codec) stored as `snap-<id>.bin`:
//!
//! ```text
//! [magic "MLSNAP02": 8 bytes][crc32(payload): u32 LE]
//! [payload len: u64 LE][payload]
//! ```
//!
//! Writes go through a temp file + rename + directory fsync, so a crash
//! mid-write leaves either the old set of snapshots or the new one,
//! never a half file, and a write that returned survives a power cut.
//! The two most recent snapshots are retained; older ones are pruned
//! after a successful write, so the caller has an older snapshot to
//! fall back to if the newest file fails its checksum.

use crate::wal::{create_dir_durable, sync_dir};
use crate::{Result, StorageError};
use medledger_crypto::crc32::crc32;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MLSNAP02";
const HEADER: usize = 8 + 4 + 8;

/// Directory-backed snapshot store.
#[derive(Debug)]
pub struct SnapshotDir {
    dir: PathBuf,
}

impl SnapshotDir {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        create_dir_durable(&dir)?;
        Ok(SnapshotDir { dir })
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("snap-{id:012}.bin"))
    }

    /// Writes snapshot `id` atomically and prunes all but the newest two.
    pub fn write(&self, id: u64, payload: &[u8]) -> Result<()> {
        let mut bytes = Vec::with_capacity(HEADER + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let tmp = self.dir.join(format!("snap-{id:012}.tmp"));
        fs::write(&tmp, &bytes)?;
        let f = fs::File::open(&tmp)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, self.path_for(id))?;
        self.prune(2)?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Lists snapshot ids present on disk, oldest first.
    pub fn ids(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("snap-")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Reads and verifies snapshot `id`, or `None` if absent.
    pub fn read(&self, id: u64) -> Result<Option<Vec<u8>>> {
        let path = self.path_for(id);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = fs::read(&path)?;
        Ok(Some(parse(&bytes, &path)?))
    }

    /// Removes all but the newest `keep` snapshots.
    fn prune(&self, keep: usize) -> Result<()> {
        let ids = self.ids()?;
        if ids.len() > keep {
            for id in &ids[..ids.len() - keep] {
                fs::remove_file(self.path_for(*id))?;
            }
        }
        Ok(())
    }
}

/// Validates a snapshot file's framing and checksum.
fn parse(bytes: &[u8], path: &Path) -> Result<Vec<u8>> {
    if bytes.len() < HEADER || &bytes[..8] != MAGIC {
        return Err(StorageError::Corrupt(format!(
            "snapshot {} has bad magic or truncated header",
            path.display()
        )));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let payload = &bytes[HEADER..];
    if payload.len() != len {
        return Err(StorageError::Corrupt(format!(
            "snapshot {} declares {len} payload bytes, has {}",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StorageError::Corrupt(format!(
            "snapshot {} checksum mismatch",
            path.display()
        )));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("medledger-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_prune() {
        let dir = temp_dir("wrp");
        let snaps = SnapshotDir::open(&dir).expect("open");
        assert!(snaps.ids().expect("ids").is_empty());
        for id in 1..=3u64 {
            snaps
                .write(id, format!("state-{id}").as_bytes())
                .expect("write");
        }
        assert_eq!(snaps.ids().expect("ids"), vec![2, 3], "pruned to two");
        assert_eq!(snaps.read(3).expect("read").expect("some"), b"state-3");
        assert_eq!(snaps.read(2).expect("read").expect("some"), b"state-2");
        assert!(snaps.read(1).expect("read").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshot_is_loud_and_leaves_the_older_one_readable() {
        let dir = temp_dir("damaged");
        let snaps = SnapshotDir::open(&dir).expect("open");
        snaps.write(5, b"good-old").expect("write");
        snaps.write(6, b"good-new").expect("write");
        // Flip a payload byte in the newest file.
        let path = dir.join("snap-000000000006.bin");
        let mut bytes = fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, &bytes).expect("write");
        assert!(matches!(snaps.read(6), Err(StorageError::Corrupt(_))));
        assert_eq!(snaps.read(5).expect("read").expect("some"), b"good-old");
        fs::remove_dir_all(&dir).ok();
    }
}
