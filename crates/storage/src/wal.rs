//! Segmented append-only logs with CRC-protected frames.
//!
//! One [`SegmentedLog`] is one logical record stream (the system core
//! keeps a single one, `log`, holding one record per flush). Records are
//! framed as
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! and appended to numbered segment files `seg-<first record index>.log`;
//! a segment rotates once it exceeds the configured byte budget. Creating
//! a segment (or the log's directory) also fsyncs the directory that
//! holds the new entry, so a power cut cannot lose a file whose contents
//! were already synced.
//!
//! Recovery semantics on open (the crash contract):
//! * a **torn tail** — an incomplete frame, or a final frame whose CRC
//!   fails, at the very end of the *last* segment — is the signature of
//!   a crash mid-append and is silently truncated away;
//! * a bad frame anywhere *else* is real corruption and fails loudly
//!   ([`StorageError::Corrupt`]) — replaying past it would resurrect a
//!   database that disagrees with the chain.

use crate::{Result, StorageError};
use medledger_crypto::crc32::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame header size: payload length + CRC, both `u32` LE.
const FRAME_HEADER: usize = 8;

/// Hard cap on a single record (1 GiB) — a length field beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD: u32 = 1 << 30;

/// One on-disk segment.
#[derive(Debug)]
struct Segment {
    /// Index of the first record in this segment.
    first: u64,
    /// Records stored in this segment.
    records: u64,
    /// File size in bytes (valid frames only).
    bytes: u64,
    path: PathBuf,
}

/// A segmented, CRC-framed, append-only record log.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    segment_bytes: u64,
    segments: Vec<Segment>,
    writer: Option<File>,
}

/// Frames a payload for appending.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Fsyncs a directory, making the entries created, renamed or removed
/// in it durable.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// `create_dir_all`, plus an fsync of the parent when `dir` did not
/// exist yet — the new entry must survive a power cut like the files
/// that will go under it.
pub(crate) fn create_dir_durable(dir: &Path) -> std::io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    fs::create_dir_all(dir)?;
    match dir.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => sync_dir(parent),
        _ => Ok(()),
    }
}

/// Outcome of scanning one segment file.
struct ScanOutcome {
    /// Valid frames found.
    records: u64,
    /// Bytes covered by valid frames (< file length iff a tail was torn).
    valid_bytes: u64,
    /// Description of the invalid tail, if any.
    torn: Option<String>,
}

/// Walks a segment's frames, handing each valid payload to `visit` and
/// stopping at the first invalid frame.
fn scan_segment<'a>(bytes: &'a [u8], mut visit: impl FnMut(&'a [u8])) -> ScanOutcome {
    let mut records = 0u64;
    let mut pos = 0usize;
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            return ScanOutcome {
                records,
                valid_bytes: pos as u64,
                torn: None,
            };
        }
        if rest < FRAME_HEADER {
            return ScanOutcome {
                records,
                valid_bytes: pos as u64,
                torn: Some(format!("{rest}-byte partial frame header")),
            };
        }
        let le_u32 = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let (len, crc) = (le_u32(pos), le_u32(pos + 4));
        if len > MAX_RECORD {
            return ScanOutcome {
                records,
                valid_bytes: pos as u64,
                torn: Some(format!("implausible frame length {len}")),
            };
        }
        let body = pos + FRAME_HEADER;
        if bytes.len() - body < len as usize {
            return ScanOutcome {
                records,
                valid_bytes: pos as u64,
                torn: Some(format!(
                    "frame declares {len} payload bytes, {} present",
                    bytes.len() - body
                )),
            };
        }
        let payload = &bytes[body..body + len as usize];
        if crc32(payload) != crc {
            return ScanOutcome {
                records,
                valid_bytes: pos as u64,
                torn: Some("frame checksum mismatch".into()),
            };
        }
        visit(payload);
        records += 1;
        pos = body + len as usize;
    }
}

impl SegmentedLog {
    /// Opens (or creates) the log in `dir`, scanning and validating every
    /// segment. Torn tails on the last segment are truncated; corruption
    /// anywhere else fails loudly.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let dir = dir.into();
        create_dir_durable(&dir)?;
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
            })
            .collect();
        paths.sort();
        let mut segments = Vec::with_capacity(paths.len());
        let mut next_index = 0u64;
        let last = paths.len().checked_sub(1);
        for (i, path) in paths.iter().enumerate() {
            let declared = segment_first_index(path)?;
            if declared != next_index {
                return Err(StorageError::Corrupt(format!(
                    "segment {} starts at record {declared}, expected {next_index} \
                     (missing or misordered segment)",
                    path.display()
                )));
            }
            let bytes = fs::read(path)?;
            let outcome = scan_segment(&bytes, |_| {});
            if let Some(reason) = outcome.torn {
                if Some(i) == last {
                    // Crash signature: drop the torn tail and carry on.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(outcome.valid_bytes)?;
                    f.sync_all()?;
                } else {
                    return Err(StorageError::Corrupt(format!(
                        "segment {}: {reason} mid-log (only the final segment \
                         may carry a torn tail)",
                        path.display()
                    )));
                }
            }
            next_index += outcome.records;
            segments.push(Segment {
                first: declared,
                records: outcome.records,
                bytes: outcome.valid_bytes,
                path: path.clone(),
            });
        }
        Ok(SegmentedLog {
            dir,
            segment_bytes: segment_bytes.max(1),
            segments,
            writer: None,
        })
    }

    /// Number of records in the log.
    pub fn len(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.first + s.records)
    }

    /// True iff the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files (grows on rotation).
    pub fn segment_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Appends a record, returning its index. Rotates into a fresh
    /// segment once the current one exceeds the byte budget.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let index = self.len();
        let seg = match self.segments.last_mut() {
            Some(seg) if seg.bytes < self.segment_bytes => seg,
            _ => {
                let path = self.dir.join(format!("seg-{index:012}.log"));
                File::create(&path)?.sync_all()?;
                sync_dir(&self.dir)?;
                self.writer = None;
                self.segments.push_mut(Segment {
                    first: index,
                    records: 0,
                    bytes: 0,
                    path,
                })
            }
        };
        let writer = match self.writer.as_mut() {
            Some(writer) => writer,
            None => (self.writer).insert(OpenOptions::new().append(true).open(&seg.path)?),
        };
        let framed = frame(payload);
        writer.write_all(&framed)?;
        seg.records += 1;
        seg.bytes += framed.len() as u64;
        Ok(index)
    }

    /// Reads records `[from, len)` in order.
    pub fn read_from(&self, from: u64) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.first + seg.records <= from {
                continue;
            }
            let bytes = fs::read(&seg.path)?;
            let mut index = seg.first;
            let outcome = scan_segment(&bytes, |payload| {
                if index >= from {
                    out.push(payload.to_vec());
                }
                index += 1;
            });
            if outcome.torn.is_some() || outcome.records != seg.records {
                return Err(StorageError::Corrupt(format!(
                    "segment {} changed shape since open",
                    seg.path.display()
                )));
            }
        }
        Ok(out)
    }

    /// Flushes buffered appends to the OS and fsyncs the active segment.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(w) = &mut self.writer {
            w.flush()?;
            w.sync_all()?;
        }
        Ok(())
    }
}

/// Parses the first-record index out of `seg-<index>.log`.
fn segment_first_index(path: &Path) -> Result<u64> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    name.strip_prefix("seg-")
        .and_then(|s| s.strip_suffix(".log"))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| StorageError::Corrupt(format!("bad segment name {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("medledger-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_round_trip_across_segments() {
        let dir = temp_dir("roundtrip");
        let mut log = SegmentedLog::open(&dir, 64).expect("open");
        for i in 0..20u64 {
            let idx = log
                .append(format!("record-{i}").as_bytes())
                .expect("append");
            assert_eq!(idx, i);
        }
        log.sync().expect("sync");
        assert!(fs::read_dir(&dir).expect("dir").count() > 1, "rotated");
        // Reopen and read everything back.
        let log = SegmentedLog::open(&dir, 64).expect("reopen");
        assert_eq!(log.len(), 20);
        let records = log.read_from(5).expect("read");
        assert_eq!(records.len(), 15);
        assert_eq!(records[0], b"record-5");
        assert_eq!(records[14], b"record-19");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let mut log = SegmentedLog::open(&dir, 1 << 20).expect("open");
        log.append(b"alpha").expect("append");
        log.append(b"beta").expect("append");
        log.sync().expect("sync");
        drop(log);
        // Simulate a crash mid-append: half a frame at the tail.
        let seg = dir.join("seg-000000000000.log");
        let mut bytes = fs::read(&seg).expect("read");
        bytes.extend_from_slice(&[40, 0, 0, 0, 1, 2]); // header cut short
        fs::write(&seg, &bytes).expect("write");
        let log = SegmentedLog::open(&dir, 1 << 20).expect("reopen truncates");
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.read_from(0).expect("read"),
            vec![b"alpha".to_vec(), b"beta".to_vec()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn final_record_crc_mismatch_is_torn() {
        let dir = temp_dir("tail-crc");
        let mut log = SegmentedLog::open(&dir, 1 << 20).expect("open");
        log.append(b"alpha").expect("append");
        log.append(b"beta-beta").expect("append");
        log.sync().expect("sync");
        drop(log);
        let seg = dir.join("seg-000000000000.log");
        let mut bytes = fs::read(&seg).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // corrupt the last payload byte
        fs::write(&seg, &bytes).expect("write");
        let log = SegmentedLog::open(&dir, 1 << 20).expect("reopen truncates");
        assert_eq!(log.len(), 1, "corrupt final record dropped as torn");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_corruption_fails_loudly() {
        let dir = temp_dir("midlog");
        let mut log = SegmentedLog::open(&dir, 1 << 20).expect("open");
        log.append(b"alpha").expect("append");
        log.append(b"beta").expect("append");
        log.sync().expect("sync");
        drop(log);
        let seg = dir.join("seg-000000000000.log");
        let mut bytes = fs::read(&seg).expect("read");
        bytes[FRAME_HEADER] ^= 0xFF; // first record's payload
        fs::write(&seg, &bytes).expect("write");
        // The damage is followed by a valid record, so this is not a torn
        // tail: it must refuse to open... except the scan stops at the bad
        // frame, making everything after it unreachable — which on the
        // *last* segment still reads as a (long) torn tail. Mid-log
        // corruption across segment boundaries is the loud case:
        let dir2 = temp_dir("midlog2");
        let mut log2 = SegmentedLog::open(&dir2, 16).expect("open");
        log2.append(b"first-segment-record").expect("append");
        log2.append(b"second-segment-record").expect("append");
        log2.sync().expect("sync");
        drop(log2);
        let seg0 = dir2.join("seg-000000000000.log");
        let mut b0 = fs::read(&seg0).expect("read");
        b0[FRAME_HEADER + 2] ^= 0xFF;
        fs::write(&seg0, &b0).expect("write");
        let err = SegmentedLog::open(&dir2, 16).expect_err("must fail");
        assert!(matches!(err, StorageError::Corrupt(_)));
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn missing_first_segment_fails_loudly() {
        let dir = temp_dir("headless");
        let mut log = SegmentedLog::open(&dir, 16).expect("open");
        log.append(b"first-segment-record").expect("append");
        log.append(b"second-segment-record").expect("append");
        log.sync().expect("sync");
        drop(log);
        // The log is never cut from the front, so it always starts at 0.
        fs::remove_file(dir.join("seg-000000000000.log")).expect("unlink");
        let err = SegmentedLog::open(&dir, 16).expect_err("must fail");
        assert!(matches!(err, StorageError::Corrupt(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
