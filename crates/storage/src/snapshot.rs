//! Atomic snapshot files.
//!
//! A snapshot is an opaque payload (the core serialises full system
//! state through the codec) stored as `snap-<id>.bin`:
//!
//! ```text
//! [magic "MLSNAP03": 8 bytes][crc32(payload): u32 LE]
//! [payload len: u64 LE][payload]
//! ```
//!
//! The magic names the payload's format: `MLSNAP03` snapshots carry share
//! bindings in the codec, where `MLSNAP02` ones carried them as JSON. A
//! file in another `MLSNAP` format is refused, by name.
//!
//! Writes go through a temp file + rename + directory fsync, so a crash
//! mid-write leaves either the old set of snapshots or the new one,
//! never a half file, and a write that returned survives a power cut.
//! Writing prunes nothing; the caller says which snapshots to keep
//! ([`SnapshotDir::retain`]) once a record names the new one, so an
//! orphan of a crashed flush never displaces a named snapshot.

use crate::wal::{create_dir_durable, sync_dir};
use crate::{Result, StorageError};
use medledger_crypto::crc32::crc32;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MLSNAP03";
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

    /// Writes snapshot `id` atomically.
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

    /// Removes every snapshot older than the newest id in `keep` that
    /// `keep` does not name.
    pub fn retain(&self, keep: &[u64]) -> Result<()> {
        let newest = keep.iter().copied().max().unwrap_or(0);
        let doomed: Vec<u64> = (self.ids()?.into_iter())
            .filter(|id| *id < newest && !keep.contains(id))
            .collect();
        for id in &doomed {
            fs::remove_file(self.path_for(*id))?;
        }
        if !doomed.is_empty() {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

/// Validates a snapshot file's framing and checksum.
fn parse(bytes: &[u8], path: &Path) -> Result<Vec<u8>> {
    let header = bytes.split_first_chunk::<8>().and_then(|(magic, rest)| {
        let (crc, rest) = rest.split_first_chunk::<4>()?;
        let (len, payload) = rest.split_first_chunk::<8>()?;
        Some((
            magic,
            u32::from_le_bytes(*crc),
            u64::from_le_bytes(*len),
            payload,
        ))
    });
    let Some((magic, crc, len, payload)) = header else {
        return Err(StorageError::Corrupt(format!(
            "snapshot {} has a truncated header",
            path.display()
        )));
    };
    if magic != MAGIC {
        let why = if magic.starts_with(b"MLSNAP") {
            format!(
                "is in format {}, written by another build; this one reads only {}",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(MAGIC)
            )
        } else {
            "has bad magic".to_string()
        };
        return Err(StorageError::Corrupt(format!(
            "snapshot {} {why}",
            path.display()
        )));
    }
    if payload.len() as u64 != len {
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
    fn write_read_retain() {
        let dir = temp_dir("wrr");
        let snaps = SnapshotDir::open(&dir).expect("open");
        assert!(snaps.ids().expect("ids").is_empty());
        for id in 1..=4u64 {
            snaps
                .write(id, format!("state-{id}").as_bytes())
                .expect("write");
        }
        assert_eq!(snaps.ids().expect("ids"), vec![1, 2, 3, 4], "no pruning");
        snaps.retain(&[1, 3]).expect("retain");
        assert_eq!(snaps.ids().expect("ids"), vec![1, 3, 4]);
        assert_eq!(snaps.read(3).expect("read").expect("some"), b"state-3");
        assert_eq!(snaps.read(1).expect("read").expect("some"), b"state-1");
        assert!(snaps.read(2).expect("read").is_none());
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

    #[test]
    fn another_format_is_refused_by_name() {
        let dir = temp_dir("format");
        let snaps = SnapshotDir::open(&dir).expect("open");
        snaps.write(1, b"payload").expect("write");
        let path = dir.join("snap-000000000001.bin");
        let mut bytes = fs::read(&path).expect("read");
        bytes[..8].copy_from_slice(b"MLSNAP02");
        fs::write(&path, &bytes).expect("write");
        let err = snaps.read(1).expect_err("old format");
        assert!(err.to_string().contains("in format MLSNAP02"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
