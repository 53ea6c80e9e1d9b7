//! The deterministic chain costs, pinned as exact integers.
//!
//! Every number here is an output of the seeded virtual simulation —
//! blocks, waves, rows and bytes — identical on every machine and thread
//! count, so each test asserts the numerator and denominator of a cost
//! ratio with `assert_eq!`. A change that moves one of them by a single
//! unit fails here; re-pin a value only when a PR means to change what a
//! commit costs. `medbench`'s traced runs report the same quantities per
//! workload (`core.blocks_per_commit`, `engine.waves_per_commit`,
//! `storage.wal_bytes_per_commit`, `node.wire_bytes_per_commit`,
//! `node.queue_high_water`).

use medledger_bench::{
    ack_rounds_in_last_blocks, contention_system, hub_system, one_batch_update, one_contended_wave,
    one_dosage_update, one_group_commit, serial_commits, serial_contended_commits, two_peer_system,
    two_peer_system_durable, two_peer_system_sharded,
};
use medledger_core::{ConsensusKind, FlushRecord};
use medledger_crypto::KeyPair;
use medledger_engine::LedgerService;
use medledger_node::wire::WireWrite;
use medledger_node::{Deployment, GatewayConfig, SubmitReply};
use medledger_relational::{LogRecord, Value, WriteOp};
use medledger_storage::{Decode, Encode, SharedBackend, StorageBackend};

/// Patient ids are dense from 1000 in the EHR generator.
const FIRST_PID: i64 = 1000;

fn pbft() -> ConsensusKind {
    ConsensusKind::PrivatePbft {
        block_interval_ms: 100,
    }
}

/// `delta_bytes_moved`, `delta_bytes_ratio`: five one-cell commits on a
/// 1 024-row table ship 475 bytes where whole-table propagation would
/// ship 435 850.
#[test]
fn five_one_cell_commits_move_475_delta_bytes() {
    let mut bench = two_peer_system("bench-bw", pbft(), 1024);
    for rev in 0..5 {
        one_batch_update(&mut bench, &[FIRST_PID], rev);
    }
    let dp = bench.ledger.stats().data_plane;
    assert_eq!(dp.bytes, 475);
    assert_eq!(dp.full_table_equiv_bytes, 435_850);
}

/// `grouped_blocks_per_update_64`, `grouped_vs_serial_rounds_ratio_64`:
/// 64 distinct-table updates share one request block and one
/// aggregated-ack block; one at a time they pay two blocks each.
#[test]
fn sixty_four_grouped_updates_cost_2_blocks_against_128_serial() {
    const BATCH: usize = 64;
    let mut grouped = hub_system("bench-rounds-g", BATCH, 4, 8);
    assert_eq!(one_group_commit(&mut grouped, BATCH, 1), 2);
    let mut serial = hub_system("bench-rounds-s", BATCH, 4, 8);
    assert_eq!(serial_commits(&mut serial, BATCH, 1), 128);
}

/// `combined_blocks_per_update_8`, `combined_vs_serial_rounds_ratio_8`:
/// eight writers contending on ONE table combine into one wave.
#[test]
fn eight_same_table_writers_cost_2_blocks_against_16_serial() {
    let mut combined = contention_system("pipe-rounds-c", 8, 8);
    assert_eq!(one_contended_wave(&mut combined, 1), (2, 8));
    combined
        .service
        .ledger()
        .check_consistency()
        .expect("combined consistent");
    let mut serial = contention_system("pipe-rounds-s", 8, 8);
    assert_eq!(serial_contended_commits(&mut serial, 1), 16);
    serial
        .service
        .ledger()
        .check_consistency()
        .expect("serial consistent");
}

/// `blocks_per_update_r2/r8/r32`, `ack_rounds_per_wave`: a wave of four
/// distinct-table updates costs two blocks, one of them the single
/// aggregated-ack round, independent of the receiver count.
#[test]
fn a_wave_costs_2_blocks_and_1_ack_round_at_2_8_and_32_receivers() {
    const BATCH: usize = 4;
    for receivers in [2, 8, 32] {
        let mut bench = hub_system(
            &format!("ack-sweep-aggregated-{receivers}"),
            BATCH,
            receivers,
            8,
        );
        let blocks = one_group_commit(&mut bench, BATCH, 1);
        let ledger = bench.service.ledger();
        ledger.check_consistency().expect("consistent");
        assert_eq!(blocks, 2, "{receivers} receivers");
        assert_eq!(
            ack_rounds_in_last_blocks(ledger, blocks),
            1,
            "{receivers} receivers"
        );
    }
}

/// `gateway_waves_per_submission_256`, `gateway_queue_high_water_256`,
/// `gateway_wire_bytes_per_commit_256`: 256 sessions each submit one
/// dosage update through a manually pumped gateway (arrival order pinned
/// by awaiting each `Accepted`); all of them ride one wave.
#[test]
fn gateway_commits_256_submissions_in_1_wave() {
    const SESSIONS: usize = 256;
    let bench = two_peer_system("gw-report-256", pbft(), SESSIONS);
    let dep = Deployment::start(
        LedgerService::new(bench.ledger),
        GatewayConfig::default().manual_pump(),
    )
    .expect("deployment");
    let mut clients: Vec<_> = (0..SESSIONS).map(|_| dep.connect()).collect();
    let mut tickets = Vec::with_capacity(SESSIONS);
    for (s, client) in clients.iter_mut().enumerate() {
        let op = WriteOp::Update {
            key: vec![Value::Int(FIRST_PID + s as i64)],
            assignments: vec![("dosage".into(), Value::text("1 mg"))],
        };
        let reply = dep
            .block_on(client.submit("Doctor", "ward", vec![WireWrite::Shared(op)]))
            .expect("submit");
        match reply {
            SubmitReply::Accepted { ticket } => tickets.push(ticket),
            other => panic!("admission failed: {other:?}"),
        }
    }
    while dep.pump().expect("pump").members > 0 {}
    for (client, ticket) in clients.iter_mut().zip(tickets) {
        dep.block_on(client.wait(ticket))
            .expect("wait")
            .expect("commit");
    }
    let (stats, wire_bytes) = (dep.stats(), dep.wire_bytes());
    // Shut down before asserting: a `Deployment` dropped by a failed
    // assertion waits on its peer loops instead of failing the test.
    drop(clients);
    dep.shutdown()
        .expect("shutdown")
        .ledger()
        .check_consistency()
        .expect("consistent");
    assert_eq!(stats.submissions, 256);
    assert_eq!(stats.waves, 1);
    assert_eq!(stats.queue_high_water, 256);
    // 99 324 = 137 797 − 38 473: the receipts' event logs are `key=value`
    // lines where they were JSON — 510 `CoUpdateCommitted` logs 137 → 63
    // bytes and their length prefixes 2 → 1 (−38 250), `UpdateCommitted`
    // 292 → 152 (−140), `AckAggregateRecorded` 196 → 122 and a prefix
    // byte (−75), `AllPeersSynced` 31 → 23 (−8).
    assert_eq!(wire_bytes, 99_324);
}

/// `pipeline_blocks_per_update`, `pipeline_rows_moved`,
/// `pipeline_bytes_moved`: one two-row commit through an 8-shard
/// deployment over 4 096 rows.
#[test]
fn a_sharded_two_row_commit_costs_2_blocks_2_rows_182_bytes() {
    let mut bench = two_peer_system_sharded("bench-shard-pipe", pbft(), 4096, 8);
    let blocks_before = bench.ledger.stats().blocks;
    let moved = one_batch_update(&mut bench, &[FIRST_PID, FIRST_PID + 1], 1);
    assert_eq!(bench.ledger.stats().blocks - blocks_before, 2);
    assert_eq!(moved, (2, 182));
    bench.ledger.check_consistency().expect("consistent");
}

/// What everything below is made of: a signature under a 256-key tree —
/// 67 chain values and an 8-node path, 32 bytes each, behind four one-byte
/// varints (two leaf indices, two counts).
#[test]
fn a_signature_encodes_to_2404_bytes() {
    let mut keys = KeyPair::generate("counts-signature", 256);
    let signature = keys.sign(b"a transaction digest").expect("sign");
    assert_eq!(signature.encoded().len(), 2_404);
    assert_eq!(2_404, 4 + 32 * (67 + 8));
}

/// `chain_bytes_per_commit`: a one-member wave seals two blocks of one
/// transaction each, the request and the aggregated ack.
#[test]
fn a_one_member_wave_appends_5540_chain_bytes() {
    let (mut bench, backend) = two_peer_system_durable("chain-bytes", pbft(), 256);
    one_dosage_update(&mut bench, FIRST_PID, 1);
    let log = SharedBackend::from_state(backend.snapshot_state())
        .read_from("log", 0)
        .expect("read");
    let newest = FlushRecord::decode(log.last().expect("a flush")).expect("decode flush record");
    let txs: Vec<usize> = newest.blocks.iter().map(|b| b.txs.len()).collect();
    assert_eq!(txs, [1, 1]);
    let chain_bytes: usize = newest.blocks.iter().map(|b| b.encoded().len()).sum();
    // Each block's header carries its wave stamp: `Some(wave)` encodes
    // one byte longer than `None` (a facade commit is a scheduler wave).
    // 5 540 = 5 795 − 255 since the call arguments left JSON for the
    // codec: the request's 124 → 45 bytes (−79), the aggregated ack's
    // 278 → 103 and its length prefix 2 → 1 byte (−176).
    assert_eq!(chain_bytes, 5_538 + 2);
}

/// `wal_bytes_per_commit`: eight durable commits with no snapshot in
/// between — one flush record each, all in the one `log` stream — then
/// the doctor's WAL records sized in the storage codec.
#[test]
fn eight_durable_commits_append_48493_log_bytes() {
    let (mut bench, backend) = two_peer_system_durable("persist-report", pbft(), 256);
    let log = |backend: &SharedBackend| -> Vec<Vec<u8>> {
        SharedBackend::from_state(backend.snapshot_state())
            .read_from("log", 0)
            .expect("read")
    };
    let before = log(&backend).len();
    for rev in 1..=8 {
        one_dosage_update(&mut bench, FIRST_PID, rev);
    }
    let flushed = log(&backend).split_off(before);
    assert_eq!(flushed.len(), 8, "one record per commit");
    // Sixteen blocks, each one wave-stamp byte longer than an unstamped
    // one (waves 1–8 fit one varint byte). 48 493 = 50 533 − 8 × 255: each
    // commit's two blocks shrink as in the chain-bytes test above.
    assert_eq!(flushed.iter().map(Vec::len).sum::<usize>(), 48_477 + 16);

    let records: Vec<LogRecord> = log(&backend)
        .iter()
        .map(|raw| FlushRecord::decode(raw).expect("decode flush record"))
        .flat_map(|flush| flush.peer_records)
        .filter(|(peer, _)| peer == "Doctor")
        .flat_map(|(_, records)| records)
        .collect();
    let binary: usize = records.iter().map(|r| r.encoded().len()).sum();
    // No JSON size beside it any more (it was 4 486 bytes): records exist
    // only in the codec now, so a JSON form would be priced for a test.
    assert_eq!((records.len(), binary), (16, 1_712));
}
