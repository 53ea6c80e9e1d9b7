//! Crash-point recovery: kill the deployment at every storage write it
//! ever performs, recover, and verify the recovered state is exactly a
//! committed prefix of the original run.
//!
//! The durable design's contract (see `medledger-core`'s `persist`
//! module) is **frame atomicity**: a flush is one record appended as one
//! frame to the `log` stream, visible if and only if that frame landed.
//! The suite drives real workloads over instrumented backends:
//!
//! * [`RecordingBackend`] captures the shared [`MemoryBackend`] state
//!   *before every append and snapshot write* — each capture is exactly
//!   the bytes a crash at that write would leave behind (the backend is
//!   record-atomic; a frame cut part-way is the log layer's problem,
//!   covered by `medledger-storage`'s own tests plus the end-to-end cut
//!   test below). One workload run therefore enumerates every crash
//!   point, and the call sequence it notes prices a commit in backend
//!   calls.
//! * [`CrashBackend`] fails every append after a budget — *forever*, the
//!   way a dead disk stays dead — to check the live system's behavior on
//!   storage failure: the error surfaces, later flushes refuse to run
//!   (poisoned), and recovery still works.
//!
//! After every recovery the suite checks the full promise chain: the
//! recovered databases equal a committed prefix byte-for-byte
//! (fingerprints), every stored table's content hash matches the
//! contract hash the recovered chain carries (`check_consistency`),
//! and the deployment still *works* — a post-recovery commit goes
//! through with the surviving keys and nonces.

use medledger::bx::LensSpec;
use medledger::core::scenario::{self, Fig1Scenario, SHARE_PD, SHARE_RD};
use medledger::crypto::Hash256;
use medledger::relational::{row, Column, Schema, ValueType};
use medledger::storage::{
    Decode, DurableStore, Encode, MemoryBackend, Result as StorageResult, SharedBackend,
    StorageBackend, StorageError,
};
use medledger::{
    ConsensusKind, CoreError, FlushRecord, LedgerService, MedLedger, PeerId, SystemConfig, Table,
    Value,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ----------------------------------------------------------------------
// Instrumented backends
// ----------------------------------------------------------------------

/// A backend call that writes or syncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Append,
    Snapshot,
    Sync,
}

/// Every writing call in order; appends and snapshot writes carry the
/// backend state captured just before them.
type CallLog = Vec<(Call, Option<MemoryBackend>)>;

/// Notes every writing call, and captures the backend state before each
/// append and snapshot write: capture `k` is what a crash at write `k`
/// leaves on disk.
#[derive(Clone)]
struct RecordingBackend {
    inner: SharedBackend,
    log: Arc<Mutex<CallLog>>,
}

impl RecordingBackend {
    fn new(inner: SharedBackend) -> Self {
        RecordingBackend {
            inner,
            log: Arc::default(),
        }
    }

    fn record(&self, call: Call) {
        let before = (call != Call::Sync).then(|| self.inner.snapshot_state());
        self.log.lock().expect("log lock").push((call, before));
    }

    fn calls(&self) -> Vec<Call> {
        let log = self.log.lock().expect("log lock");
        log.iter().map(|(call, _)| *call).collect()
    }

    /// The writes in call order, each with the state captured before it.
    fn captures(&self) -> Vec<(Call, MemoryBackend)> {
        let log = self.log.lock().expect("log lock");
        log.iter()
            .filter_map(|(call, before)| Some((*call, before.clone()?)))
            .collect()
    }

    fn count(&self, call: Call) -> usize {
        self.calls().iter().filter(|c| **c == call).count()
    }
}

impl StorageBackend for RecordingBackend {
    fn append(&mut self, stream: &str, payload: &[u8]) -> StorageResult<u64> {
        self.record(Call::Append);
        self.inner.append(stream, payload)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.read_from(stream, from)
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> StorageResult<()> {
        self.record(Call::Snapshot);
        self.inner.write_snapshot(id, payload)
    }

    fn read_snapshot(&mut self, id: u64) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot(id)
    }

    /// Not a crash point: it runs after the record naming the snapshots
    /// it keeps is synced, and deleting fewer of the rest is harmless.
    fn retain_snapshots(&mut self, keep: &[u64]) -> StorageResult<()> {
        self.inner.retain_snapshots(keep)
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.record(Call::Sync);
        self.inner.sync()
    }
}

/// Fails every append once a budget of successful appends is spent — and
/// keeps failing forever after, like a disk that died.
struct CrashBackend {
    inner: SharedBackend,
    budget: Arc<AtomicU64>,
    dead: bool,
}

impl CrashBackend {
    fn new(inner: SharedBackend, budget: u64) -> Self {
        CrashBackend {
            inner,
            budget: Arc::new(AtomicU64::new(budget)),
            dead: false,
        }
    }

    fn injected<T>(&mut self) -> StorageResult<T> {
        self.dead = true;
        Err(StorageError::Injected("append budget exhausted".into()))
    }
}

impl StorageBackend for CrashBackend {
    fn append(&mut self, stream: &str, payload: &[u8]) -> StorageResult<u64> {
        if self.dead
            || self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_err()
        {
            return self.injected();
        }
        self.inner.append(stream, payload)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.read_from(stream, from)
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> StorageResult<()> {
        if self.dead {
            return self.injected();
        }
        self.inner.write_snapshot(id, payload)
    }

    fn read_snapshot(&mut self, id: u64) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot(id)
    }

    fn retain_snapshots(&mut self, keep: &[u64]) -> StorageResult<()> {
        if self.dead {
            return self.injected();
        }
        self.inner.retain_snapshots(keep)
    }

    fn sync(&mut self) -> StorageResult<()> {
        if self.dead {
            return self.injected();
        }
        self.inner.sync()
    }
}

// ----------------------------------------------------------------------
// Workload + oracles
// ----------------------------------------------------------------------

fn config(seed: &str) -> SystemConfig {
    SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        },
        seed: seed.into(),
        peer_key_capacity: 32,
        ..Default::default()
    }
}

/// Builds the Fig. 1 scenario on a durable ledger over `backend`.
fn durable_fig1(
    cfg: &SystemConfig,
    backend: Box<dyn StorageBackend>,
) -> medledger::core::Result<Fig1Scenario> {
    let ledger = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(backend)
        .build()?;
    scenario::populate(ledger)
}

/// Commit `i` of the deterministic workload: dosage edits by the doctor
/// on `D13&D31` alternating with mechanism edits by the researcher on
/// `D23&D32`.
fn workload_commit(scn: &mut Fig1Scenario, i: usize) -> Result<(), String> {
    let result = if i.is_multiple_of(2) {
        scn.ledger
            .session(scn.doctor)
            .begin(SHARE_PD)
            .set(
                vec![Value::Int(188)],
                "dosage",
                Value::text(format!("dose-{i}")),
            )
            .commit()
    } else {
        scn.ledger
            .session(scn.researcher)
            .begin(SHARE_RD)
            .update_source(
                "D2",
                vec![Value::text("Ibuprofen")],
                vec![(
                    "mechanism_of_action".into(),
                    Value::text(format!("mech-{i}")),
                )],
            )
            .commit()
    };
    result.map(|_| ()).map_err(|e| e.to_string())
}

/// Everything recovery must reproduce, captured from a live deployment.
#[derive(Debug, PartialEq)]
struct Oracle {
    height: u64,
    fingerprints: Vec<(String, Hash256)>,
    pd_audit_len: usize,
    rd_audit_len: usize,
}

fn capture(ledger: &MedLedger) -> Oracle {
    let sys = ledger.system();
    Oracle {
        height: ledger.chain().height(),
        fingerprints: sys
            .peer_ids()
            .into_iter()
            .map(|id| {
                let p = sys.peer(id).expect("listed peer");
                (p.name.clone(), p.fingerprint())
            })
            .collect(),
        pd_audit_len: ledger.audit(SHARE_PD).len(),
        rd_audit_len: ledger.audit(SHARE_RD).len(),
    }
}

fn recover(cfg: &SystemConfig, state: MemoryBackend) -> medledger::core::Result<MedLedger> {
    MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(SharedBackend::from_state(state)))
        .build()
}

/// The recovered deployment must still *work*: one more doctor commit.
fn assert_live(ledger: &mut MedLedger) {
    let doctor = ledger.peer_id("Doctor").expect("doctor");
    ledger
        .session(doctor)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "dosage",
            Value::text("post-recovery"),
        )
        .commit()
        .expect("post-recovery commit");
    ledger.check_consistency().expect("consistent after commit");
}

// ----------------------------------------------------------------------
// Crash-point sweep
// ----------------------------------------------------------------------

/// Commits in the sweep: enough for the replay debt to reach the
/// snapshot's size twice (Fig. 1's snapshot is ~1.4 KB and a commit logs
/// ~350 B of peer records, so a cadence snapshot falls every 4–5).
const SWEEP_COMMITS: usize = 12;

/// Crash at *every* storage write the workload performs. One recorded
/// run enumerates the crash points; recovery from each capture must
/// yield a verified, committed prefix of the run — never an error,
/// never a state that fails subroot verification, never a state that
/// matches no commit boundary.
#[test]
fn every_crash_point_recovers_a_committed_prefix() {
    let cfg = config("crash-sweep");
    let recorder = RecordingBackend::new(SharedBackend::new());

    // The recorded run, checkpointed at every commit boundary the flush
    // layer can persist (after populate, then after each commit).
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone())).expect("build");
    let setup_snapshots = recorder.count(Call::Snapshot);
    let mut checkpoints = vec![capture(&scn.ledger)];
    for i in 0..SWEEP_COMMITS {
        workload_commit(&mut scn, i).unwrap_or_else(|e| panic!("commit {i}: {e}"));
        checkpoints.push(capture(&scn.ledger));
    }
    scn.ledger.close().expect("close");
    let mut final_state = recorder.inner.snapshot_state();
    let captures = recorder.captures();

    // The sweep is exactly as dense as the run: one append per flush —
    // set-up's structural ones, one per commit, one for `close` — and one
    // write per snapshot, at least two of them taken on cadence.
    let flushes = final_state.read_from("log", 0).expect("read").len();
    assert_eq!(recorder.count(Call::Append), flushes);
    assert_eq!(flushes, setup_snapshots + SWEEP_COMMITS + 1);
    let cadence_snapshots = recorder.count(Call::Snapshot) - setup_snapshots;
    assert!(
        cadence_snapshots >= 2,
        "the sweep must cross two cadence snapshots, crossed {cadence_snapshots}"
    );
    assert_eq!(
        captures.len(),
        flushes + setup_snapshots + cadence_snapshots
    );

    for (k, (_, state)) in captures.into_iter().enumerate() {
        let recovered = recover(&cfg, state)
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        recovered
            .check_consistency()
            .unwrap_or_else(|e| panic!("crash point {k}: inconsistent after recovery: {e}"));
        let oracle = capture(&recovered);
        let is_checkpoint = checkpoints.iter().any(|c| c == &oracle);
        // Crashes inside populate recover to a structural setup state
        // below the first checkpoint; every crash after that must land
        // exactly on a commit boundary.
        assert!(
            is_checkpoint || oracle.height <= checkpoints[0].height,
            "crash point {k}: recovered height {} matches no commit boundary",
            oracle.height
        );
    }

    // And the cleanly-closed final state recovers byte-identical + live.
    let mut recovered = recover(&cfg, final_state).expect("recover final");
    assert_eq!(&capture(&recovered), checkpoints.last().expect("nonempty"));
    assert_live(&mut recovered);
}

/// What a commit costs in backend calls, whatever the disk's speed: an
/// ordinary durable commit is one append and one sync; one that takes a
/// snapshot adds exactly the snapshot write.
#[test]
fn a_commit_is_one_append_and_one_sync() {
    let cfg = config("crash-calls");
    let recorder = RecordingBackend::new(SharedBackend::new());
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone())).expect("build");
    let mut snapshot_commits = 0;
    for i in 0..8 {
        let before = recorder.calls().len();
        workload_commit(&mut scn, i).expect("commit");
        let calls = recorder.calls().split_off(before);
        if calls == [Call::Snapshot, Call::Append, Call::Sync] {
            snapshot_commits += 1;
        } else {
            assert_eq!(calls, [Call::Append, Call::Sync], "commit {i}");
        }
    }
    // Fig. 1's snapshot is 1 379 bytes (1 810 while share bindings were
    // JSON) and a commit logs ~350 B of peer records, so the replay debt
    // reaches it every ~4 commits.
    assert_eq!(
        snapshot_commits, 2,
        "two cadence snapshots in eight commits"
    );
}

// ----------------------------------------------------------------------
// Targeted crash points
// ----------------------------------------------------------------------

/// A scratch directory for one on-disk test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medledger-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy");
        }
    }
}

/// The files under `dir/<sub>/…` whose name starts with `prefix`, sorted.
fn files_under(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            found.extend(files_under(&path, prefix));
        } else if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(prefix))
        {
            found.push(path);
        }
    }
    found.sort();
    found
}

fn recover_dir(cfg: &SystemConfig, dir: &Path) -> medledger::core::Result<MedLedger> {
    MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(DurableStore::open(dir).expect("reopen")))
        .build()
}

/// A crash part-way through the final frame — wherever it cuts — must
/// recover exactly the *previous* commit: the half-written flush
/// vanishes entirely, and nothing before it is touched.
#[test]
fn uncommitted_flush_suffix_is_discarded_on_recovery() {
    let cfg = config("crash-suffix");
    let root = scratch_dir("suffix");
    let store = DurableStore::open(&root).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store)).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    let committed = capture(&scn.ledger);
    workload_commit(&mut scn, 1).expect("commit");
    drop(scn);

    // Find the final frame: `[len: u32 LE][crc: u32 LE][payload]`.
    let segments = files_under(&root, "seg-");
    assert_eq!(segments.len(), 1, "this short run fits one segment");
    let bytes = std::fs::read(&segments[0]).expect("read segment");
    let (start, next) = *frame_spans(&bytes).last().expect("a frame");

    // Cut inside the header, in mid-payload, and one byte short — each
    // two ways: the file cut there (what a torn store of a build without
    // a zero tail looks like), or `[cut, frame end)` still zeros (what a
    // torn write into the preallocated tail leaves). Zeroing a byte that
    // is already zero tears nothing, so the zeroed cuts start at the
    // frame's last non-zero byte at the latest.
    let last_non_zero = (bytes[..next].iter())
        .rposition(|b| *b != 0)
        .expect("a non-zero byte");
    for (tag, keep) in [
        ("header", start + 3),
        ("payload", start + 8 + (next - start - 8) / 2),
        ("last-byte", next - 1),
    ] {
        for zeroed in [false, true] {
            let tag = format!("{tag}-{}", if zeroed { "zeroed" } else { "cut" });
            let copy = scratch_dir(&format!("suffix-{tag}"));
            copy_dir(&root, &copy);
            let segment = &files_under(&copy, "seg-")[0];
            if zeroed {
                let mut torn = std::fs::read(segment).expect("read segment");
                torn[keep.min(last_non_zero)..next].fill(0);
                std::fs::write(segment, torn).expect("write segment");
            } else {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(segment)
                    .expect("open segment");
                file.set_len(keep as u64).expect("cut");
            }

            let mut recovered = recover_dir(&cfg, &copy).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(capture(&recovered), committed, "{tag}");
            assert_live(&mut recovered);
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The `[start, end)` of each frame in a segment's bytes, walked to the
/// all-zero header that ends them; everything after it must be zeros.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    while let Some(header) = bytes.get(start..start + 8).filter(|h| **h != [0; 8]) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        spans.push((start, start + 8 + len as usize));
        start += 8 + len as usize;
    }
    assert!(
        bytes[start..].iter().all(|b| *b == 0),
        "the rest of the segment is zeros"
    );
    spans
}

/// A crash while a rotation creates the next segment leaves it holding
/// no frame: empty, half zero-filled or fully zero-filled. Recovery
/// reaches the last commit, and the next commit lands in that segment.
#[test]
fn crash_creating_a_segment_recovers_the_last_commit() {
    const SEGMENT_BYTES: u64 = 256;
    let cfg = config("crash-rotation");
    let root = scratch_dir("rotation");
    let store = DurableStore::open_with_segment_bytes(&root, SEGMENT_BYTES).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store)).expect("build");
    for i in 0..2 {
        workload_commit(&mut scn, i).expect("commit");
    }
    let committed = capture(&scn.ledger);
    drop(scn);

    // Every flush record outgrows a 256-byte segment, so the next append
    // rotates into `seg-<records so far>.log`.
    let last = files_under(&root, "seg-").pop().expect("a segment");
    let first: u64 = (last.file_name().and_then(|n| n.to_str()))
        .and_then(|n| n.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok())
        .expect("segment index");
    let frames = frame_spans(&std::fs::read(&last).expect("read segment"));
    let (_, end) = *frames.last().expect("a frame");
    assert!(end as u64 >= SEGMENT_BYTES, "the last segment is full");
    let next = first + frames.len() as u64;

    for (tag, zeros) in [
        ("empty", 0),
        ("half", SEGMENT_BYTES / 2),
        ("full", SEGMENT_BYTES),
    ] {
        let copy = scratch_dir(&format!("rotation-{tag}"));
        copy_dir(&root, &copy);
        let stream = last.parent().expect("stream dir");
        let created = copy
            .join(stream.strip_prefix(&root).expect("under root"))
            .join(format!("seg-{next:012}.log"));
        std::fs::write(&created, vec![0; zeros as usize]).expect("plant segment");
        let segments = files_under(&copy, "seg-").len();

        let reopen = || {
            let store = DurableStore::open_with_segment_bytes(&copy, SEGMENT_BYTES);
            MedLedger::builder()
                .config(cfg.clone())
                .storage_backend(Box::new(store.expect("reopen")))
                .build()
        };
        let mut recovered = reopen().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(capture(&recovered), committed, "{tag}");
        assert_live(&mut recovered);
        let landed = capture(&recovered);
        drop(recovered);
        assert_eq!(files_under(&copy, "seg-").len(), segments, "{tag}");
        let frames = frame_spans(&std::fs::read(&created).expect("read"));
        assert_eq!(frames.len(), 1, "{tag}: the next commit's record");
        let again = reopen().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(capture(&again), landed, "{tag}");
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The snapshot the newest record names is unreadable (damaged, or gone):
/// recovery falls back to the snapshot an older record names and replays
/// the log forward from there — all the way to the *newest* commit.
#[test]
fn unreadable_named_snapshot_falls_back_and_still_reaches_the_newest_commit() {
    let cfg = config("crash-snapshot-fallback");
    let root = scratch_dir("fallback");
    let store = DurableStore::open(&root).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store)).expect("build");
    // Past the first cadence snapshot, so the store retains it and the
    // last structural one before it.
    for i in 0..8 {
        workload_commit(&mut scn, i).expect("commit");
    }
    let committed = capture(&scn.ledger);
    drop(scn);
    assert_eq!(files_under(&root, "snap-").len(), 2);

    for damage in ["flip", "unlink"] {
        let copy = scratch_dir(&format!("fallback-{damage}"));
        copy_dir(&root, &copy);
        let newest = files_under(&copy, "snap-").pop().expect("a snapshot");
        if damage == "flip" {
            let mut bytes = std::fs::read(&newest).expect("read");
            let n = bytes.len();
            bytes[n - 1] ^= 0xFF;
            std::fs::write(&newest, &bytes).expect("write");
        } else {
            std::fs::remove_file(&newest).expect("unlink");
        }

        let mut recovered =
            recover_dir(&cfg, &copy).unwrap_or_else(|e| panic!("snapshot {damage}: {e}"));
        assert_eq!(capture(&recovered), committed, "snapshot {damage}");
        assert_live(&mut recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash between a snapshot write and its flush record leaves an
/// orphan: a snapshot no record names, whose id the next flush reuses as
/// its epoch. Recovery must never pick it up — not right after the crash
/// (its id is above the newest epoch) and not after a later commit has
/// caught up with that id without snapshotting.
#[test]
fn orphan_snapshot_of_a_crashed_flush_is_never_used() {
    let cfg = config("crash-orphan");
    let recorder = RecordingBackend::new(SharedBackend::new());
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone())).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    let committed = capture(&scn.ledger);
    // A structural flush: snapshot (with the new peer in it), then record.
    let writes_before = recorder.captures().len();
    scn.ledger.add_peer("Nurse").expect("add peer");
    let (calls, states): (Vec<Call>, Vec<MemoryBackend>) = recorder
        .captures()
        .split_off(writes_before)
        .into_iter()
        .unzip();
    assert_eq!(calls, [Call::Snapshot, Call::Append]);
    // Crash at the append: the snapshot is on disk, its record is not.
    let crashed = states.into_iter().nth(1).expect("state before the append");

    let survivor = SharedBackend::from_state(crashed);
    let mut recovered = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(survivor.clone()))
        .build()
        .expect("recover past the orphan");
    assert_eq!(capture(&recovered), committed);
    // An ordinary commit — no snapshot — takes the orphan's id as its epoch.
    let snapshots_before = survivor.snapshot_state().snapshot_count();
    assert_live(&mut recovered);
    assert_eq!(survivor.snapshot_state().snapshot_count(), snapshots_before);
    let caught_up = capture(&recovered);
    drop(recovered);

    let again = recover(&cfg, survivor.snapshot_state()).expect("recover again");
    assert_eq!(capture(&again), caught_up);
    assert!(again.peer_id("Nurse").is_err(), "the orphan held the nurse");
}

/// The state a crash leaves when it hits a structural flush (a new peer:
/// snapshot, then record) right at its record append — an orphan
/// snapshot on disk that no record names.
fn crash_adding_a_peer(ledger: &mut MedLedger, recorder: &RecordingBackend) -> MemoryBackend {
    let writes_before = recorder.captures().len();
    ledger.add_peer("Nurse").expect("add peer");
    let (calls, states): (Vec<Call>, Vec<MemoryBackend>) = (recorder.captures())
        .split_off(writes_before)
        .into_iter()
        .unzip();
    assert_eq!(calls, [Call::Snapshot, Call::Append]);
    states.into_iter().nth(1).expect("state before the append")
}

/// Two crashes between a snapshot write and its record, with an ordinary
/// commit between them, leave two orphans. Neither may push out the
/// snapshot the newest intact record names: retention counts named
/// snapshots, never files. Once a snapshot flush commits, every orphan
/// older than it goes and exactly two named snapshots stay.
#[test]
fn two_orphan_snapshots_never_displace_the_named_one() {
    let cfg = config("crash-two-orphans");
    let recorder = RecordingBackend::new(SharedBackend::new());
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone())).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    let first_crash = crash_adding_a_peer(&mut scn.ledger, &recorder);
    drop(scn);

    // Recover past the first orphan; an ordinary commit takes its id as
    // its epoch, so the second crash orphans a snapshot with a new id.
    let recorder = RecordingBackend::new(SharedBackend::from_state(first_crash));
    let mut ledger = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(recorder.clone()))
        .build()
        .expect("recover past the first orphan");
    assert_live(&mut ledger);
    let committed = capture(&ledger);
    let second_crash = crash_adding_a_peer(&mut ledger, &recorder);
    drop(ledger);

    let survivor = SharedBackend::from_state(second_crash);
    let mut recovered = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(survivor.clone()))
        .build()
        .expect("recover past the second orphan");
    assert_eq!(capture(&recovered), committed);
    assert!(
        recovered.peer_id("Nurse").is_err(),
        "an orphan held the nurse"
    );

    // A committed snapshot flush retires both orphans and every named
    // snapshot but the one before it.
    recovered.add_peer("Nurse").expect("add peer");
    assert_eq!(survivor.snapshot_state().snapshot_count(), 2);
    let added = capture(&recovered);
    drop(recovered);
    let again = recover(&cfg, survivor.snapshot_state()).expect("recover again");
    assert_eq!(capture(&again), added);
    assert!(again.peer_id("Nurse").is_ok());
}

/// Corruption *inside* the committed region is a storage lie, not a torn
/// tail: recovery must fail loudly rather than serve wrong data.
#[test]
fn corrupt_committed_record_fails_loudly() {
    let cfg = config("crash-corrupt");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone())).expect("build");
    for i in 0..2 {
        workload_commit(&mut scn, i).expect("commit");
    }
    drop(scn);

    // Rewrite a committed mid-log flush record as garbage.
    let mut state = shared.snapshot_state();
    let log = state.records_mut("log");
    assert!(log.len() > 2);
    let mid = log.len() / 2;
    log[mid] = b"\xff\xff not a flush record".to_vec();

    let err = match recover(&cfg, state) {
        Ok(_) => panic!("corruption must not recover"),
        Err(e) => e,
    };
    assert!(
        matches!(err, medledger::CoreError::Storage(_)),
        "unexpected error: {err}"
    );
}

/// A store written by the layout before flush records (a `sys` commit
/// stream, no `log`) is refused, not bootstrapped over.
#[test]
fn store_in_the_previous_layout_is_refused() {
    let mut state = MemoryBackend::new();
    state.append("sys", b"a commit record").expect("append");
    let err = match recover(&config("crash-stale"), state) {
        Ok(_) => panic!("a stale store must not boot"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, medledger::CoreError::Storage(msg) if msg.contains("pre-PR-21 layout")),
        "unexpected error: {err}"
    );
}

/// A store written before Winternitz signatures (PR 23): every block in
/// its log carries 512-value Lamport signatures. Recovery refuses it with
/// a codec error that names the record — it neither panics nor boots a
/// chain whose signatures it would read differently.
#[test]
fn store_with_lamport_sized_signatures_is_refused() {
    let cfg = config("crash-lamport");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone())).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    drop(scn);

    // Re-encode the newest flush record as the older build would have
    // written it: same blocks, 512 values in every signature.
    let mut state = shared.snapshot_state();
    let log = state.records_mut("log");
    let newest = log.len() - 1;
    let mut record = FlushRecord::decode(&log[newest]).expect("decode");
    let signatures: Vec<_> = record
        .blocks
        .iter_mut()
        .flat_map(|block| &mut block.txs)
        .map(|stx| &mut stx.signature)
        .collect();
    assert!(!signatures.is_empty(), "the commit sealed blocks");
    for signature in signatures {
        signature.chains.resize(512, Hash256::ZERO);
    }
    log[newest] = record.encoded();

    let err = match recover(&cfg, state) {
        Ok(_) => panic!("a Lamport-era store must not boot"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, medledger::CoreError::Storage(msg)
            if msg.contains(&format!("corrupt flush record {newest}"))
                && msg.contains("512 chain values, expected 67")),
        "unexpected error: {err}"
    );
}

/// A store whose snapshots an older build wrote: `MLSNAP02` snapshots
/// carry share bindings as JSON, which this build no longer reads. Every
/// named snapshot is refused by its format, so recovery fails with a
/// storage error that says so — it never boots on a misread snapshot.
#[test]
fn store_with_mlsnap02_snapshots_is_refused() {
    let cfg = config("crash-mlsnap02");
    let root = scratch_dir("mlsnap02");
    let store = DurableStore::open(&root).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store)).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    drop(scn);

    let snapshots = files_under(&root, "snap-");
    assert!(!snapshots.is_empty(), "set-up took snapshots");
    for path in &snapshots {
        let mut bytes = std::fs::read(path).expect("read");
        assert_eq!(&bytes[..8], b"MLSNAP03");
        bytes[..8].copy_from_slice(b"MLSNAP02");
        std::fs::write(path, &bytes).expect("write");
    }

    let err = match recover_dir(&cfg, &root) {
        Ok(_) => panic!("a store with MLSNAP02 snapshots must not boot"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, medledger::CoreError::Storage(msg)
            if msg.contains("in format MLSNAP02") && msg.contains("reads only MLSNAP03")),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A live system whose disk dies mid-workload: the failing commit
/// surfaces a storage error, every later flush refuses to run
/// (poisoned — no silent divergence between memory and disk), and the
/// bytes written so far still recover.
#[test]
fn dead_disk_poisons_the_live_system_but_recovers() {
    let cfg = config("crash-poison");
    let shared = SharedBackend::new();
    // Enough budget to finish setup, dying somewhere in the workload.
    let budget = {
        // Count setup appends with a recorded dry run.
        let probe = RecordingBackend::new(SharedBackend::new());
        durable_fig1(&cfg, Box::new(probe.clone())).expect("probe build");
        probe.count(Call::Append) as u64 + 3
    };
    let crash = CrashBackend::new(shared.clone(), budget);
    let mut scn = durable_fig1(&cfg, Box::new(crash)).expect("build");

    let mut first_failure = None;
    for i in 0..6 {
        if let Err(e) = workload_commit(&mut scn, i) {
            first_failure = Some((i, e));
            break;
        }
    }
    let (failed_at, message) = first_failure.expect("budget must exhaust mid-workload");
    assert!(
        message.contains("storage") || message.contains("injected"),
        "commit {failed_at} failed with a non-storage error: {message}"
    );

    // Every subsequent commit fails fast on the poisoned backend.
    let err = workload_commit(&mut scn, failed_at + 1).expect_err("poisoned");
    assert!(err.contains("poisoned"), "unexpected error: {err}");

    // The bytes that made it to the dead disk still recover.
    let mut recovered = recover(&cfg, shared.snapshot_state()).expect("recover");
    recovered.check_consistency().expect("consistent");
    assert_live(&mut recovered);
}

/// A hub sharing three unrelated ward tables with one receiver, each
/// bound to its own source on both sides: on `ward-ok` and
/// `ward-combined` the hub may write `dosage`, on `ward-denied` only the
/// receiver may.
fn three_ward_service(
    cfg: &SystemConfig,
    backend: Box<dyn StorageBackend>,
) -> medledger::core::Result<(LedgerService, PeerId, PeerId)> {
    let mut ledger = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(backend)
        .build()?;
    let hub = ledger.add_peer("Hub")?;
    let receiver = ledger.add_peer("Receiver")?;
    let columns = vec![
        Column::new("patient_id", ValueType::Int),
        Column::new("dosage", ValueType::Text),
    ];
    let mut ward = Table::new(Schema::new(columns, &["patient_id"])?);
    for pid in 1..=2i64 {
        ward.insert(row![pid, "10 mg"])?;
    }
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    for (table, dosage_writer) in [
        ("ward-ok", hub),
        ("ward-denied", receiver),
        ("ward-combined", hub),
    ] {
        let (h, r) = (format!("H-{table}"), format!("R-{table}"));
        ledger.session(hub).load_source(&h, ward.clone())?;
        ledger.session(receiver).load_source(&r, ward.clone())?;
        (ledger.session(hub).share(table))
            .bind(h, lens.clone())
            .with(receiver, r, lens.clone())
            .writers("dosage", &[dosage_writer])
            .writers("patient_id", &[hub])
            .create()?;
    }
    Ok((LedgerService::new(ledger), hub, receiver))
}

/// A wave whose durable flush fails settles each member by its own
/// outcome: only the members its blocks committed get the storage error
/// past the commit point. The contract's denial of a lead, and the
/// pre-screened denial of a rider, stay denials that never reached the
/// chain — the lead's staged writes unwound.
#[test]
fn a_failed_flush_fails_only_the_members_in_flight() {
    let cfg = config("crash-flush-members");
    let setup_appends = {
        let probe = RecordingBackend::new(SharedBackend::new());
        three_ward_service(&cfg, Box::new(probe.clone())).expect("probe build");
        probe.count(Call::Append) as u64
    };
    let shared = SharedBackend::new();
    let crash = CrashBackend::new(shared.clone(), setup_appends);
    let (mut service, hub, receiver) = three_ward_service(&cfg, Box::new(crash)).expect("build");

    let submit = |service: &mut LedgerService, peer: PeerId, table: &str, pid: i64| {
        (service.submit(peer, table))
            .set(vec![Value::Int(pid)], "dosage", Value::text("20 mg"))
            .submit()
            .expect("submit")
    };
    let committed = submit(&mut service, hub, "ward-ok", 1);
    let denied_lead = submit(&mut service, hub, "ward-denied", 1);
    let combined_lead = submit(&mut service, hub, "ward-combined", 1);
    let rider = submit(&mut service, receiver, "ward-combined", 2);

    let err = service.tick().expect_err("the wave's flush dies");
    assert!(matches!(err, CoreError::Storage(_)), "{err}");
    let outcomes = service.take_resolved();
    let tickets: Vec<_> = outcomes.iter().map(|(t, _)| *t).collect();
    assert_eq!(tickets, [committed, denied_lead, combined_lead, rider]);
    assert!(tickets.iter().all(|t| service.take(*t).is_none()), "once");
    let outcome = |ticket| {
        let (_, outcome) = (outcomes.iter())
            .find(|(t, _)| *t == ticket)
            .expect("resolved");
        outcome
            .as_ref()
            .expect_err("no member settles as committed")
    };
    for ticket in [committed, combined_lead] {
        let err = outcome(ticket);
        assert!(err.committed_on_chain(), "in flight at the flush: {err}");
        assert!(err.to_string().contains("injected"), "{err}");
    }
    let err = outcome(denied_lead);
    assert!(err.is_permission_denied(), "{err}");
    assert!(err.receipt().is_some(), "the denial is on chain");
    assert!(!err.committed_on_chain());
    let sys = service.ledger().system();
    let pending = sys
        .peer(hub)
        .and_then(|p| p.has_pending_change("ward-denied"));
    assert!(!pending.expect("check"), "the denied lead's writes unwound");
    let err = outcome(rider);
    assert!(err.is_permission_denied(), "{err}");
    assert!(!err.committed_on_chain());

    // The next submission's wave refuses to flush.
    let next = submit(&mut service, hub, "ward-ok", 2);
    let err = service.tick().expect_err("poisoned");
    assert!(err.to_string().contains("poisoned"), "{err}");
    let err = service.take(next).expect("resolved").expect_err("poisoned");
    assert!(err.to_string().contains("poisoned"), "{err}");

    // The bytes that made it to the dead disk still recover.
    let recovered = recover(&cfg, shared.snapshot_state()).expect("recover");
    recovered.check_consistency().expect("consistent");
}

/// A facade commit is one wave per update, each ending in its own flush
/// record: a crash between the Doctor's medication rename and the cascade
/// it sets off into the research share keeps the rename. The recovered
/// Doctor holds the cascade as a pending change, and propagating it ends
/// exactly where an uncrashed run does.
#[test]
fn crash_between_a_parent_wave_and_its_cascade_keeps_the_parent() {
    let cfg = config("crash-cascade");
    // The rename changes the research share's view key, so its cascade
    // declares every attribute: the Doctor needs the mechanism too.
    let grant = |scn: &mut Fig1Scenario| {
        let (doctor, researcher) = (scn.doctor, scn.researcher);
        (scn.ledger.session(researcher))
            .grant(SHARE_RD, "mechanism_of_action", &[doctor, researcher])
            .expect("grant");
    };
    let rename = |scn: &mut Fig1Scenario| {
        let outcome = (scn.ledger.session(scn.doctor).begin(SHARE_PD))
            .set(
                vec![Value::Int(188)],
                "medication_name",
                Value::text("IbuprofenXR"),
            )
            .commit()
            .expect("rename");
        assert_eq!(outcome.cascades().len(), 1, "the rename cascades");
    };

    let mut uncrashed = durable_fig1(&cfg, Box::new(SharedBackend::new())).expect("build");
    grant(&mut uncrashed);
    rename(&mut uncrashed);

    let recorder = RecordingBackend::new(SharedBackend::new());
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone())).expect("build");
    grant(&mut scn);
    let writes_before = recorder.captures().len();
    rename(&mut scn);
    let writes = recorder.captures().split_off(writes_before);
    let parent_record = (writes.iter().position(|(call, _)| *call == Call::Append))
        .expect("the parent wave appends its record");
    let (_, after_parent) = (writes.into_iter().nth(parent_record + 1))
        .expect("the cascade wave writes after the parent's record");

    let mut recovered = recover(&cfg, after_parent).expect("recover");
    recovered.check_consistency().expect("consistent");
    let (pd, rd) = (
        recovered.share_meta(SHARE_PD).expect("meta"),
        recovered.share_meta(SHARE_RD).expect("meta"),
    );
    assert_eq!((pd.version, rd.version), (1, 0));
    let sys = recovered.system();
    for (meta, table) in [(&pd, SHARE_PD), (&rd, SHARE_RD)] {
        for account in &meta.peers {
            let peer = (sys.peer_ids().into_iter())
                .find(|id| id.account() == *account)
                .and_then(|id| sys.peer(id).ok())
                .expect("sharing peer");
            assert_eq!(peer.applied_versions[table], meta.version, "{}", peer.name);
        }
    }
    let doctor = recovered.peer_id("Doctor").expect("doctor");
    let pending = sys
        .peer(doctor)
        .and_then(|p| p.has_pending_change(SHARE_RD));
    assert!(pending.expect("check"), "the cascade waits on the Doctor");

    (recovered.system_mut())
        .propagate_update(doctor, SHARE_RD)
        .expect("the cascade commits after recovery");
    recovered.check_consistency().expect("consistent");
    assert_eq!(capture(&recovered), capture(&uncrashed.ledger));
}

/// Closing a [`LedgerService`] mid-workload and reopening resumes with
/// identical state and continued wave numbering.
#[test]
fn ledger_service_close_and_reopen_resumes_waves() {
    let cfg = config("crash-service");
    let shared = SharedBackend::new();
    let scn = durable_fig1(&cfg, Box::new(shared.clone())).expect("build");
    let (doctor, researcher) = (scn.doctor, scn.researcher);

    let mut service = LedgerService::new(scn.ledger);
    service
        .submit(doctor, SHARE_PD)
        .set(vec![Value::Int(188)], "dosage", Value::text("wave-1"))
        .submit()
        .expect("stage");
    service
        .submit(researcher, SHARE_RD)
        .update_source(
            "D2",
            vec![Value::text("Ibuprofen")],
            vec![("mechanism_of_action".into(), Value::text("wave-1-mech"))],
        )
        .submit()
        .expect("stage");
    service.drain().expect("drain");
    let waves_before = service.waves();
    assert!(waves_before >= 1);
    let committed = capture(service.ledger());
    service.close().expect("close");

    let recovered = recover(&cfg, shared.snapshot_state()).expect("recover");
    assert_eq!(capture(&recovered), committed);
    let mut service = LedgerService::new(recovered);
    assert_eq!(
        service.waves(),
        waves_before,
        "wave numbering must resume, not restart"
    );
    service
        .submit(doctor, SHARE_PD)
        .set(vec![Value::Int(188)], "dosage", Value::text("wave-2"))
        .submit()
        .expect("stage");
    service.drain().expect("drain");
    assert_eq!(service.waves(), waves_before + 1);
    service
        .ledger()
        .check_consistency()
        .expect("consistent after resumed wave");
}

// ----------------------------------------------------------------------
// Log truncation + wave-ordered recovery
// ----------------------------------------------------------------------

/// Flushes bound the in-memory WAL: each one truncates the database
/// log below the sequence it made durable, so it does not grow with
/// workload length. (The on-disk log is never cut — see the `persist`
/// module docs — and a store rotated across many segments still
/// recovers.)
#[test]
fn snapshots_truncate_the_wal_and_bound_its_growth() {
    let cfg = config("crash-truncate");
    let root = scratch_dir("truncate");
    // Small segments so this short workload rotates many times.
    let store = DurableStore::open_with_segment_bytes(&root, 256).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store)).expect("build");
    for i in 0..6 {
        workload_commit(&mut scn, i).expect("commit");
    }

    // In-memory: the retained log window is shorter than the full record
    // sequence — `Database::truncate_log` ran on the flush path.
    let doctor_db = &scn.ledger.system().peer(scn.doctor).expect("doctor").db();
    let total_records = doctor_db.next_seq();
    let retained = doctor_db.log_since(0).len() as u64;
    assert!(total_records > 0);
    assert!(
        retained < total_records,
        "flushes must truncate the in-memory log \
         (retained {retained} of {total_records} records)"
    );
    let committed = capture(&scn.ledger);
    scn.ledger.close().expect("close");
    assert!(files_under(&root, "seg-").len() > 6, "rotated per flush");

    let reopened = DurableStore::open_with_segment_bytes(&root, 256).expect("reopen");
    let mut recovered = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(reopened))
        .build()
        .expect("recover across segments");
    assert_eq!(capture(&recovered), committed);
    assert_live(&mut recovered);
    let _ = std::fs::remove_dir_all(&root);
}

/// A deployment driven through the wave pipeline recovers exactly: the
/// replay re-verifies every block's attested state root in wave order,
/// and the resumed service continues wave numbering.
#[test]
fn pipelined_deployment_recovers_and_resumes_waves() {
    let cfg = config("crash-pipelined");
    let shared = SharedBackend::new();
    let scn = durable_fig1(&cfg, Box::new(shared.clone())).expect("build");
    let (doctor, researcher) = (scn.doctor, scn.researcher);

    let mut service = LedgerService::new(scn.ledger);
    for round in 0..2 {
        service
            .submit(doctor, SHARE_PD)
            .set(
                vec![Value::Int(188)],
                "dosage",
                Value::text(format!("pipe-{round}")),
            )
            .submit()
            .expect("stage");
        service
            .submit(researcher, SHARE_RD)
            .update_source(
                "D2",
                vec![Value::text("Ibuprofen")],
                vec![(
                    "mechanism_of_action".into(),
                    Value::text(format!("pipe-mech-{round}")),
                )],
            )
            .submit()
            .expect("stage");
        service.drain().expect("drain");
    }
    let waves_before = service.waves();
    assert!(waves_before >= 2);
    let committed = capture(service.ledger());
    // The chain the pipelined run produced is wave-ordered.
    let waves: Vec<u64> = service
        .ledger()
        .chain()
        .blocks()
        .iter()
        .filter_map(|b| b.header.wave)
        .collect();
    assert!(waves.windows(2).all(|w| w[0] <= w[1]), "{waves:?}");
    service.close().expect("close");

    let recovered = recover(&cfg, shared.snapshot_state()).expect("recover pipelined");
    assert_eq!(capture(&recovered), committed);
    recovered.check_consistency().expect("consistent");
    let mut service = LedgerService::new(recovered);
    assert_eq!(service.waves(), waves_before, "wave numbering resumes");
    service
        .submit(doctor, SHARE_PD)
        .set(vec![Value::Int(188)], "dosage", Value::text("post-pipe"))
        .submit()
        .expect("stage");
    service.drain().expect("drain");
    assert_eq!(service.waves(), waves_before + 1);
    service
        .ledger()
        .check_consistency()
        .expect("consistent after resumed pipelined wave");
}

/// A stored chain whose wave attributions go backwards was not produced
/// by the pipeline — recovery must refuse it loudly.
#[test]
fn out_of_wave_order_chain_fails_recovery() {
    let cfg = config("crash-wave-order");
    let shared = SharedBackend::new();
    let scn = durable_fig1(&cfg, Box::new(shared.clone())).expect("build");
    let (doctor, researcher) = (scn.doctor, scn.researcher);
    let mut service = LedgerService::new(scn.ledger);
    for round in 0..2 {
        service
            .submit(doctor, SHARE_PD)
            .set(
                vec![Value::Int(188)],
                "dosage",
                Value::text(format!("tamper-{round}")),
            )
            .submit()
            .expect("stage");
        service
            .submit(researcher, SHARE_RD)
            .update_source(
                "D2",
                vec![Value::text("Ibuprofen")],
                vec![(
                    "mechanism_of_action".into(),
                    Value::text(format!("tamper-mech-{round}")),
                )],
            )
            .submit()
            .expect("stage");
        service.drain().expect("drain");
    }
    service.close().expect("close");

    // Re-attribute the FIRST waved block to a far-future wave; the next
    // waved block then reads as a wave regression during replay.
    let mut state = shared.snapshot_state();
    let log = state.records_mut("log");
    let mut flushes: Vec<FlushRecord> = log
        .iter()
        .map(|raw| FlushRecord::decode(raw).expect("decode"))
        .collect();
    let (at, flush) = flushes
        .iter_mut()
        .enumerate()
        .find(|(_, f)| f.blocks.iter().any(|b| b.header.wave.is_some()))
        .expect("a waved block exists");
    let waved = flush
        .blocks
        .iter_mut()
        .find(|b| b.header.wave.is_some())
        .expect("just found");
    *waved = waved.clone().in_wave(Some(u64::MAX));
    log[at] = flush.encoded();

    let err = match recover(&cfg, state) {
        Ok(_) => panic!("wave-order violation must not recover"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, medledger::CoreError::Storage(msg) if msg.contains("wave")),
        "unexpected error: {err}"
    );
}

// ----------------------------------------------------------------------
// Property: random crash budgets always recover
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random commit counts and crash budgets: recovery never fails and
    /// never serves an unverifiable state.
    #[test]
    fn any_crash_budget_recovers(commits in 1usize..4, budget in 0u64..12) {
        let cfg = config("crash-prop");
        let shared = SharedBackend::new();
        let crash = CrashBackend::new(shared.clone(), budget);
        let _ = durable_fig1(&cfg, Box::new(crash)).map(|mut scn| {
            for i in 0..commits {
                if workload_commit(&mut scn, i).is_err() {
                    break;
                }
            }
        });
        let recovered = recover(&cfg, shared.snapshot_state())
            .expect("recovery must always succeed");
        recovered.check_consistency().expect("recovered state verifies");
    }
}
