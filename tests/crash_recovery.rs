//! Crash-point recovery: kill the deployment at every storage write it
//! ever performs, recover, and verify the recovered state is exactly a
//! committed prefix of the original run.
//!
//! The durable design's contract (see `medledger-core`'s `persist`
//! module) is **commit-record atomicity**: a flush is visible if and
//! only if its `SysMeta` record landed in the `sys` stream. The suite
//! drives real workloads over instrumented backends:
//!
//! * [`RecordingBackend`] captures the shared [`MemoryBackend`] state
//!   *before every append and snapshot write* — each capture is exactly
//!   the bytes a crash at that write would leave behind (the backend is
//!   record-atomic; sub-record torn frames are the WAL layer's problem
//!   and covered by `medledger-storage`'s own tests plus the splice
//!   tests below). One workload run therefore enumerates every
//!   crash point.
//! * [`CrashBackend`] fails every append after a budget — *forever*, the
//!   way a dead disk stays dead — to check the live system's behavior on
//!   storage failure: the error surfaces, later flushes refuse to run
//!   (poisoned), and recovery still works.
//!
//! After every recovery the suite checks the full promise chain: the
//! recovered databases equal a committed prefix byte-for-byte
//! (fingerprints), the folded per-shard Merkle subroots match the
//! contract hashes the recovered chain carries (`check_consistency`),
//! and the deployment still *works* — a post-recovery commit goes
//! through with the surviving keys and nonces.

use medledger::core::scenario::{self, Fig1Scenario, SHARE_PD, SHARE_RD};
use medledger::crypto::Hash256;
use medledger::storage::{
    MemoryBackend, Result as StorageResult, SharedBackend, StorageBackend, StorageError,
};
use medledger::{ConsensusKind, LedgerService, MedLedger, SystemConfig, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ----------------------------------------------------------------------
// Instrumented backends
// ----------------------------------------------------------------------

/// Captures the backend state before every mutating write: capture `k`
/// is what a crash at write `k` leaves on disk.
#[derive(Clone)]
struct RecordingBackend {
    inner: SharedBackend,
    captures: Arc<Mutex<Vec<MemoryBackend>>>,
}

impl RecordingBackend {
    fn new(inner: SharedBackend) -> Self {
        RecordingBackend {
            inner,
            captures: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn record(&self) {
        self.captures
            .lock()
            .expect("captures lock")
            .push(self.inner.snapshot_state());
    }

    fn captures(&self) -> Vec<MemoryBackend> {
        self.captures.lock().expect("captures lock").clone()
    }
}

impl StorageBackend for RecordingBackend {
    fn append(&mut self, stream: &str, payload: &[u8]) -> StorageResult<u64> {
        self.record();
        self.inner.append(stream, payload)
    }

    fn stream_len(&mut self, stream: &str) -> StorageResult<u64> {
        self.inner.stream_len(stream)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.read_from(stream, from)
    }

    fn truncate_to(&mut self, stream: &str, len: u64) -> StorageResult<()> {
        self.inner.truncate_to(stream, len)
    }

    fn compact(&mut self, stream: &str, below: u64) -> StorageResult<()> {
        self.inner.compact(stream, below)
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> StorageResult<()> {
        self.record();
        self.inner.write_snapshot(id, payload)
    }

    fn latest_snapshot(&mut self) -> StorageResult<Option<(u64, Vec<u8>)>> {
        self.inner.latest_snapshot()
    }

    fn read_snapshot(&mut self, id: u64) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot(id)
    }

    fn sync(&mut self) -> StorageResult<()> {
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

    fn stream_len(&mut self, stream: &str) -> StorageResult<u64> {
        self.inner.stream_len(stream)
    }

    fn read_from(&mut self, stream: &str, from: u64) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.read_from(stream, from)
    }

    fn truncate_to(&mut self, stream: &str, len: u64) -> StorageResult<()> {
        self.inner.truncate_to(stream, len)
    }

    fn compact(&mut self, stream: &str, below: u64) -> StorageResult<()> {
        self.inner.compact(stream, below)
    }

    fn write_snapshot(&mut self, id: u64, payload: &[u8]) -> StorageResult<()> {
        if self.dead {
            return self.injected();
        }
        self.inner.write_snapshot(id, payload)
    }

    fn latest_snapshot(&mut self) -> StorageResult<Option<(u64, Vec<u8>)>> {
        self.inner.latest_snapshot()
    }

    fn read_snapshot(&mut self, id: u64) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot(id)
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

fn sharded_config(seed: &str) -> SystemConfig {
    SystemConfig {
        shards_per_table: 4,
        ..config(seed)
    }
}

/// Builds the Fig. 1 scenario on a durable ledger over `backend`.
fn durable_fig1(
    cfg: &SystemConfig,
    backend: Box<dyn StorageBackend>,
    snapshot_every: u64,
) -> medledger::core::Result<Fig1Scenario> {
    let ledger = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(backend)
        .snapshot_every(snapshot_every)
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
    let mut scn = durable_fig1(&cfg, Box::new(recorder.clone()), 2).expect("build");
    let mut checkpoints = vec![capture(&scn.ledger)];
    for i in 0..4 {
        workload_commit(&mut scn, i).unwrap_or_else(|e| panic!("commit {i}: {e}"));
        checkpoints.push(capture(&scn.ledger));
    }
    scn.ledger.close().expect("close");
    let final_state = recorder.inner.snapshot_state();
    let captures = recorder.captures();
    assert!(
        captures.len() > 40,
        "expected a dense sweep, got {} crash points",
        captures.len()
    );

    for (k, state) in captures.into_iter().enumerate() {
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

// ----------------------------------------------------------------------
// Targeted crash points
// ----------------------------------------------------------------------

/// A crash that loses the commit record (WAL/chain records appended but
/// no `SysMeta`) must recover to the *previous* commit — the
/// half-written flush vanishes entirely.
#[test]
fn uncommitted_flush_suffix_is_discarded_on_recovery() {
    let cfg = config("crash-suffix");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone()), 100).expect("build");
    for i in 0..2 {
        workload_commit(&mut scn, i).expect("commit");
    }
    let committed = capture(&scn.ledger);

    // Splice garbage beyond the committed marks of the peer and chain
    // streams — exactly what a flush that died before its commit record
    // leaves behind.
    let mut state = shared.snapshot_state();
    state
        .append("peer/Doctor", b"torn half-written record")
        .expect("splice");
    state.append("chain", b"torn block").expect("splice");

    let recovered = recover(&cfg, state).expect("recover");
    assert_eq!(capture(&recovered), committed);
    recovered.check_consistency().expect("consistent");
}

/// A commit record whose data never made it (sys record present, stream
/// contents shorter than its marks) must be skipped in favor of the
/// previous intact commit — the fsync-ordering hazard.
#[test]
fn commit_record_without_its_data_is_skipped() {
    let cfg = config("crash-dangling-meta");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone()), 100).expect("build");
    workload_commit(&mut scn, 0).expect("commit");
    let committed = capture(&scn.ledger);

    let mut state = shared.snapshot_state();
    // Keep the newest sys record but drop the tail of the chain stream
    // it refers to.
    let chain_len = state.stream_len("chain").expect("len");
    assert!(chain_len > 0);
    state
        .truncate_to("chain", chain_len - 1)
        .expect("drop tail");

    let recovered = recover(&cfg, state).expect("recover");
    let oracle = capture(&recovered);
    assert!(
        oracle.height < committed.height,
        "dangling commit record must not be served (height {} vs {})",
        oracle.height,
        committed.height
    );
    recovered.check_consistency().expect("consistent");
}

/// Corruption *inside* the committed region is a storage lie, not a torn
/// tail: recovery must fail loudly rather than serve wrong data.
#[test]
fn corrupt_committed_record_fails_loudly() {
    let cfg = config("crash-corrupt");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone()), 100).expect("build");
    for i in 0..2 {
        workload_commit(&mut scn, i).expect("commit");
    }
    drop(scn);

    // Rewrite a committed block record as garbage.
    let mut state = shared.snapshot_state();
    let blocks = state.read_from("chain", 0).expect("read");
    assert!(!blocks.is_empty());
    let mut tampered: Vec<Vec<u8>> = blocks;
    let mid = tampered.len() / 2;
    tampered[mid] = b"\xff\xff not a block".to_vec();
    state.truncate_to("chain", 0).expect("clear");
    for rec in &tampered {
        state.append("chain", rec).expect("rewrite");
    }

    let err = match recover(&cfg, state) {
        Ok(_) => panic!("corruption must not recover"),
        Err(e) => e,
    };
    assert!(
        matches!(err, medledger::CoreError::Storage(_)),
        "unexpected error: {err}"
    );
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
        durable_fig1(&cfg, Box::new(probe.clone()), 2).expect("probe build");
        probe.captures().len() as u64 + 3
    };
    let crash = CrashBackend::new(shared.clone(), budget);
    let mut scn = durable_fig1(&cfg, Box::new(crash), 2).expect("build");

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

/// The sharded configuration exercises the fold-verification path: the
/// recovered per-shard subroots must re-fold to the contract hashes.
#[test]
fn sharded_deployment_recovers_with_verified_subroots() {
    let cfg = sharded_config("crash-sharded");
    let shared = SharedBackend::new();
    let mut scn = durable_fig1(&cfg, Box::new(shared.clone()), 2).expect("build");
    for i in 0..4 {
        workload_commit(&mut scn, i).expect("commit");
    }
    let committed = capture(&scn.ledger);
    scn.ledger.close().expect("close");

    let mut recovered = recover(&cfg, shared.snapshot_state()).expect("recover");
    assert_eq!(capture(&recovered), committed);
    recovered.check_consistency().expect("subroots verified");
    assert_live(&mut recovered);
}

/// Closing a [`LedgerService`] mid-workload and reopening resumes with
/// identical state and continued wave numbering.
#[test]
fn ledger_service_close_and_reopen_resumes_waves() {
    let cfg = config("crash-service");
    let shared = SharedBackend::new();
    let scn = durable_fig1(&cfg, Box::new(shared.clone()), 3).expect("build");
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

/// Snapshots bound the WAL: each snapshot flush truncates the in-memory
/// database log below the persisted sequence and compacts the on-disk
/// peer stream, so neither grows with workload length.
#[test]
fn snapshots_truncate_the_wal_and_bound_its_growth() {
    let cfg = config("crash-truncate");
    let root =
        std::env::temp_dir().join(format!("medledger-crash-truncate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Small segments so the segment-granular compaction has something to
    // reclaim within this short workload.
    let store =
        medledger::storage::DurableStore::open_with_segment_bytes(&root, 256).expect("open");
    let mut scn = durable_fig1(&cfg, Box::new(store), 2).expect("build");
    for i in 0..6 {
        workload_commit(&mut scn, i).expect("commit");
    }

    // In-memory: the retained log window is shorter than the full record
    // sequence — `Database::truncate_log` ran on the snapshot path.
    let doctor_db = &scn.ledger.system().peer(scn.doctor).expect("doctor").db;
    let total_records = doctor_db.next_seq();
    let retained = doctor_db.log_since(0).len() as u64;
    assert!(total_records > 0);
    assert!(
        retained < total_records,
        "snapshot flushes must truncate the in-memory log \
         (retained {retained} of {total_records} records)"
    );

    scn.ledger.close().expect("close");

    // On disk: the peer stream's committed prefix was reclaimed — the
    // segmented log refuses to read below its compaction horizon, which
    // is exactly the proof that the snapshot path compacted it.
    let mut reopened =
        medledger::storage::DurableStore::open_with_segment_bytes(&root, 256).expect("reopen");
    let logical = reopened.stream_len("peer/Doctor").expect("len");
    assert!(logical > 0);
    let err = reopened
        .read_from("peer/Doctor", 0)
        .expect_err("snapshot flushes must compact the durable WAL");
    assert!(
        err.to_string().contains("compacted"),
        "unexpected read error: {err}"
    );

    // And the compacted deployment still recovers and works.
    let mut recovered = MedLedger::builder()
        .config(cfg.clone())
        .storage_backend(Box::new(reopened))
        .build()
        .expect("recover compacted");
    recovered.check_consistency().expect("consistent");
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
    let scn = durable_fig1(&cfg, Box::new(shared.clone()), 3).expect("build");
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
    use medledger::ledger::Block;
    use medledger::storage::{Decode, Encode};

    let cfg = config("crash-wave-order");
    let shared = SharedBackend::new();
    let scn = durable_fig1(&cfg, Box::new(shared.clone()), 3).expect("build");
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
    let mut records = state.read_from("chain", 0).expect("read");
    let first_waved = records
        .iter()
        .position(|raw| {
            Block::decode(raw)
                .map(|b| b.header.wave.is_some())
                .unwrap_or(false)
        })
        .expect("a waved block exists");
    let block = Block::decode(&records[first_waved]).expect("decode");
    records[first_waved] = block.in_wave(Some(u64::MAX)).encoded();
    state.truncate_to("chain", 0).expect("clear");
    for rec in &records {
        state.append("chain", rec).expect("rewrite");
    }

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
    fn any_crash_budget_recovers(commits in 1usize..4, budget in 0u64..90) {
        let cfg = config("crash-prop");
        let shared = SharedBackend::new();
        let crash = CrashBackend::new(shared.clone(), budget);
        let _ = durable_fig1(&cfg, Box::new(crash), 2).map(|mut scn| {
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
