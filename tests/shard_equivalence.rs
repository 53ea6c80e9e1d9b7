//! Shard equivalence: sharded peer storage is observationally identical
//! to the unsharded baseline — and both to the Fig. 5 reference model.
//!
//! Property (the ISSUE 5 acceptance criterion): for any sequence of
//! update batches, deployments running `shards_per_table ∈ {1, 2, 8}`
//! end byte-identical: every step of each is held against the reference
//! model (`tests/common`: stored tables row for row, database
//! fingerprints, committed baseline hashes, contract versions and
//! content hashes — i.e. the folded per-shard Merkle subroots reproduce
//! the unsharded digest exactly), and across shard counts the
//! per-transaction receipts and the on-chain audit history agree byte
//! for byte. `check_consistency` must hold after every commit, which
//! exercises the folded-root verification on every sharded peer.
//!
//! A second property drives one stand-alone peer through random local
//! writes, rollbacks, commits and remote applies (valid, corrupt,
//! conflicted with a pending change — the path that replaces a stored
//! copy wholesale) at `shards_per_table ∈ {1, 2, 4, 8}`: the sharded
//! store is the peer's only copy of a shared table, so after every step
//! its fold, its running byte total and the flush's baseline inverses
//! must equal what the assembled rows say, a refused delta must leave the
//! peer untouched, and every shard count must end with the same state and
//! the same mutation log.

mod common;

use common::{arb_fig1_op, run_fig1_script};
use medledger::bx::LensSpec;
use medledger::core::scenario::{Fig1Scenario, SHARE_PD, SHARE_RD};
use medledger::core::{PeerBinding, PeerNode, PropagationMode};
use medledger::crypto::Hash256;
use medledger::relational::{
    diff_tables, row, Column, LogRecord, Schema, TableDelta, ValueType, WriteOp,
};
use medledger::{Table, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn audit_lines(scn: &Fig1Scenario, table: &str) -> Vec<String> {
    scn.ledger
        .audit(table)
        .iter()
        .map(|e| format!("{e:?}"))
        .collect()
}

proptest! {
    // Three deployments per case, each stepped beside the model. The
    // shard/table hash equivalence is separately property-tested at the
    // relational layer.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_and_unsharded_deployments_end_byte_identical(
        script in proptest::collection::vec(arb_fig1_op(), 1..6)
    ) {
        let unsharded = run_fig1_script("shard-equiv", 1, &script);
        for shards in [2usize, 8] {
            let sharded = run_fig1_script("shard-equiv", shards, &script);
            // Per-transaction receipts are identical.
            prop_assert_eq!(&sharded.receipts, &unsharded.receipts);
            // The sharded deployment really is sharded.
            for peer in sharded.scn.ledger.peers() {
                let node = sharded.scn.ledger.system().peer(peer).expect("peer");
                for table in node.shares() {
                    prop_assert!(node.is_sharded(table));
                }
            }
            // The on-chain audit history agrees.
            for table in [SHARE_PD, SHARE_RD] {
                prop_assert_eq!(
                    audit_lines(&unsharded.scn, table),
                    audit_lines(&sharded.scn, table)
                );
            }
        }
    }
}

// ----- one peer, one store: invariants at every shard count -------------

const WARD_PD: &str = "ward-pd";
const WARD_RD: &str = "ward-rd";
const WARD_SHARES: [&str; 2] = [WARD_PD, WARD_RD];

/// How a remote delta is damaged before it reaches the peer.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    /// Announced under a hash the delta does not produce.
    BadHash,
    /// Updates a key the table does not hold.
    MissingKey,
}

#[derive(Clone, Debug)]
enum PeerOp {
    /// `write_shared`: dosage of a stored patient row.
    LocalDosage(u8, u8),
    /// `write_shared` on the distinct share: mechanism of a medication.
    LocalMechanism(u8, u8),
    /// `write_source`: a new patient on a medication of its own.
    SourceInsert,
    /// `write_source`: clinical data of a patient.
    SourceClinical(u8, u8),
    /// Stage a dosage write, then `rollback_writes`.
    Rollback(u8, u8),
    /// `prepare_update_delta` + `commit_delta` of one share.
    Commit(bool),
    /// `apply_remote_delta`: a committed dosage update (the conflict path
    /// when the patient share carries a pending change).
    RemoteDosage(u8, u8, Fault),
    /// `apply_remote_delta`: a medication retired from the distinct share,
    /// which cascades into the patient share as pending deletes.
    RemoteRetire(u8),
}

fn arb_peer_op() -> impl Strategy<Value = PeerOp> {
    let fault = prop_oneof![
        Just(Fault::None),
        Just(Fault::None),
        Just(Fault::BadHash),
        Just(Fault::MissingKey),
    ];
    prop_oneof![
        (0u8..255, 0u8..200).prop_map(|(k, v)| PeerOp::LocalDosage(k, v)),
        (0u8..255, 0u8..200).prop_map(|(k, v)| PeerOp::LocalMechanism(k, v)),
        Just(PeerOp::SourceInsert),
        (0u8..255, 0u8..200).prop_map(|(k, v)| PeerOp::SourceClinical(k, v)),
        (0u8..255, 0u8..200).prop_map(|(k, v)| PeerOp::Rollback(k, v)),
        any::<bool>().prop_map(PeerOp::Commit),
        (0u8..255, 0u8..200, fault).prop_map(|(k, v, f)| PeerOp::RemoteDosage(k, v, f)),
        (0u8..255).prop_map(PeerOp::RemoteRetire),
    ]
}

/// 48 patients on 6 medications; `medication_name → mechanism_of_action`
/// holds, as the distinct lens requires.
fn ward_source() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("medication_name", ValueType::Text),
            Column::new("clinical_data", ValueType::Text),
            Column::nullable("mechanism_of_action", ValueType::Text),
            Column::new("dosage", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema");
    let mut t = Table::new(schema);
    for pid in 0..48i64 {
        let med = pid % 6;
        t.insert(row![
            pid,
            format!("med-{med}"),
            format!("clin-{pid}"),
            format!("mech-{med}"),
            "1x"
        ])
        .expect("insert");
    }
    t
}

fn ward_doctor(shards: usize) -> PeerNode {
    let mut doctor = PeerNode::new("Doctor", "store-props", 1, PropagationMode::Delta, shards);
    doctor
        .add_source_table("D3", ward_source())
        .expect("source");
    doctor
        .join_share(
            WARD_PD,
            PeerBinding {
                source_table: "D3".into(),
                lens: LensSpec::project(
                    &["patient_id", "medication_name", "clinical_data", "dosage"],
                    &["patient_id"],
                ),
            },
        )
        .expect("join patient share");
    doctor
        .join_share(
            WARD_RD,
            PeerBinding {
                source_table: "D3".into(),
                lens: LensSpec::project_distinct(
                    &["medication_name", "mechanism_of_action"],
                    &["medication_name"],
                ),
            },
        )
        .expect("join research share");
    doctor
}

/// Everything a refused delta must leave as it was: stored copies and
/// sources (the fingerprint), baselines, pending rows, applied versions
/// and the length of the mutation log.
#[derive(Debug, PartialEq)]
struct PeerState {
    fingerprint: Hash256,
    committed: Vec<Hash256>,
    pending: Vec<TableDelta>,
    inverses: Vec<(String, TableDelta)>,
    versions: Vec<u64>,
    next_seq: u64,
}

fn state_of(peer: &PeerNode) -> PeerState {
    PeerState {
        fingerprint: peer.fingerprint(),
        committed: WARD_SHARES
            .iter()
            .map(|t| peer.committed_hash(t).expect("committed hash"))
            .collect(),
        pending: WARD_SHARES
            .iter()
            .map(|t| peer.pending_delta(t).expect("pending"))
            .collect(),
        inverses: peer.baseline_inverses(),
        versions: WARD_SHARES
            .iter()
            .map(|t| peer.applied_versions[*t])
            .collect(),
        next_seq: peer.db.next_seq(),
    }
}

/// The `pick`-th key (mod the row count) of `rows` in key order.
fn pick_key(rows: &Table, pick: u8) -> Option<Vec<Value>> {
    let sorted = rows.sorted_rows();
    let row = sorted.get(pick as usize % sorted.len().max(1))?;
    Some(rows.schema().key_of(row))
}

/// The design the peer used to have, kept as the oracle: per share, a
/// second table advanced only by committed deltas.
type Oracle = BTreeMap<&'static str, Table>;

fn oracle_of(peer: &PeerNode) -> Oracle {
    let joined = |t| (t, peer.shared_table(t).expect("joined view"));
    WARD_SHARES.into_iter().map(joined).collect()
}

/// The committed view of `table` as a sender would hold it: rows in key
/// order, whatever the receiver's shard split.
fn committed_view(oracle: &Oracle, table: &str) -> Table {
    let committed = &oracle[table];
    let rows = committed.sorted_rows().into_iter().cloned().collect();
    Table::from_rows(committed.schema().clone(), rows).expect("committed rows")
}

/// A delta the peer just committed, applied to the oracle.
fn advance(oracle: &mut Oracle, table: &str, delta: &TableDelta) {
    let committed = oracle.get_mut(table).expect("oracle table");
    committed.apply_delta(delta).expect("committed delta");
}

fn set_dosage(key: Vec<Value>, v: u8) -> WriteOp {
    WriteOp::Update {
        key,
        assignments: vec![("dosage".into(), Value::text(format!("dose-{v}")))],
    }
}

/// A one-row dosage update of `view`, as a committed view delta.
fn dosage_delta(view: &Table, key: Vec<Value>, v: u8) -> TableDelta {
    let mut row = view.get(&key).expect("picked from the view").clone();
    *row.get_mut(3).expect("dosage cell") = Value::text(format!("remote-{v}"));
    TableDelta {
        updates: vec![(key, row)],
        ..Default::default()
    }
}

fn apply_peer_op(
    peer: &mut PeerNode,
    oracle: &mut Oracle,
    op: &PeerOp,
    version: &mut u64,
    next_pid: &mut i64,
) {
    match op {
        PeerOp::LocalDosage(k, v) => {
            if let Some(key) = pick_key(&peer.shared_table(WARD_PD).expect("view"), *k) {
                peer.write_shared(WARD_PD, set_dosage(key, *v))
                    .expect("local dosage");
            }
        }
        PeerOp::LocalMechanism(k, v) => {
            if let Some(key) = pick_key(&peer.shared_table(WARD_RD).expect("view"), *k) {
                let op = WriteOp::Update {
                    key,
                    assignments: vec![(
                        "mechanism_of_action".into(),
                        Value::text(format!("mech-new-{v}")),
                    )],
                };
                peer.write_shared(WARD_RD, op).expect("local mechanism");
            }
        }
        PeerOp::SourceInsert => {
            let pid = *next_pid;
            *next_pid += 1;
            let row = row![pid, format!("solo-{pid}"), "clin", "mech-solo", "1x"];
            peer.write_source("D3", WriteOp::Insert { row })
                .expect("source insert");
        }
        PeerOp::SourceClinical(k, v) => {
            let source = peer.db.table("D3").expect("D3").clone();
            if let Some(key) = pick_key(&source, *k) {
                let op = WriteOp::Update {
                    key,
                    assignments: vec![("clinical_data".into(), Value::text(format!("clin-{v}")))],
                };
                peer.write_source("D3", op).expect("source clinical");
            }
        }
        PeerOp::Rollback(k, v) => {
            if let Some(key) = pick_key(&peer.shared_table(WARD_PD).expect("view"), *k) {
                let before = state_of(peer);
                let inverses = peer
                    .write_shared(WARD_PD, set_dosage(key, *v))
                    .expect("staged write");
                peer.rollback_writes(&inverses);
                // The log grew (the undo is logged too); nothing else moved.
                let after = state_of(peer);
                assert!(after.next_seq >= before.next_seq);
                assert_eq!(
                    PeerState {
                        next_seq: before.next_seq,
                        ..after
                    },
                    before
                );
            }
        }
        PeerOp::Commit(research) => {
            let table = if *research { WARD_RD } else { WARD_PD };
            let delta = peer.prepare_update_delta(table).expect("prepare");
            if !delta.is_empty() {
                *version += 1;
                peer.commit_delta(table, &delta, *version).expect("commit");
                advance(oracle, table, &delta);
            }
        }
        PeerOp::RemoteDosage(k, v, fault) => {
            let base = committed_view(oracle, WARD_PD);
            let Some(key) = pick_key(&base, *k) else {
                return;
            };
            let mut view_delta = dosage_delta(&base, key, *v);
            let mut announced = {
                let mut after = base.clone();
                after.apply_delta(&view_delta).expect("valid delta");
                after.content_hash()
            };
            match fault {
                Fault::None => {}
                Fault::BadHash => announced = Hash256([9; 32]),
                Fault::MissingKey => {
                    let (_, row) = &mut view_delta.updates[0];
                    *row.get_mut(0).expect("key cell") = Value::Int(-1);
                    view_delta.updates[0].0 = vec![Value::Int(-1)];
                }
            }
            let source_delta = peer
                .translate_remote_delta(WARD_PD, &view_delta)
                .unwrap_or_default();
            let before = state_of(peer);
            *version += 1;
            let result =
                peer.apply_remote_delta(WARD_PD, &view_delta, &source_delta, announced, *version);
            if *fault == Fault::None {
                result.expect("remote dosage");
                advance(oracle, WARD_PD, &view_delta);
            } else {
                assert!(result.is_err(), "{fault:?} must be refused");
                assert_eq!(state_of(peer), before, "{fault:?} left a trace");
            }
        }
        PeerOp::RemoteRetire(k) => {
            // Only on a clean research share: the conflicted resolution
            // of a group delete is the patient share's job above.
            if peer.has_pending_change(WARD_RD).expect("pending") {
                return;
            }
            let base = committed_view(oracle, WARD_RD);
            let Some(key) = pick_key(&base, *k) else {
                return;
            };
            let view_delta = TableDelta {
                deletes: vec![key],
                ..Default::default()
            };
            let mut after = base.clone();
            after.apply_delta(&view_delta).expect("valid delta");
            let source_delta = peer
                .translate_remote_delta(WARD_RD, &view_delta)
                .expect("translate");
            *version += 1;
            peer.apply_remote_delta(
                WARD_RD,
                &view_delta,
                &source_delta,
                after.content_hash(),
                *version,
            )
            .expect("remote retire");
            advance(oracle, WARD_RD, &view_delta);
        }
    }
}

/// Against the oracle: (a) the store fold equals the hash of the
/// assembled rows and the committed hash equals the oracle's, (b) the
/// baseline overlay reads as the oracle, row for row, (c) the pending
/// delta and the flush's baseline inverses equal the full diffs in
/// either direction, (d) the running byte total equals the sum over the
/// rows.
fn assert_store_invariants(peer: &PeerNode, oracle: &Oracle, context: &str) {
    let mut expected_inverses = Vec::new();
    for table in WARD_SHARES {
        let store = peer.shared_store(table).expect("store");
        let (stored_rows, committed) = (store.assemble(), &oracle[table]);
        assert_eq!(
            peer.shared_hash(table).expect("hash"),
            stored_rows.content_hash(),
            "{context}: `{table}` store fold"
        );
        assert_eq!(
            peer.committed_hash(table).expect("hash"),
            committed.content_hash(),
            "{context}: `{table}` committed hash"
        );
        let baseline = peer.baseline(table).expect("baseline");
        assert_eq!(
            diff_tables(&baseline, committed),
            TableDelta::default(),
            "{context}: `{table}` baseline overlay"
        );
        assert_eq!(
            peer.pending_delta(table).expect("pending"),
            diff_tables(committed, &stored_rows),
            "{context}: `{table}` pending delta"
        );
        let bytes: u64 = stored_rows.rows().map(|r| r.encode().len() as u64).sum();
        assert_eq!(
            store.encoded_bytes(),
            bytes,
            "{context}: `{table}` byte total"
        );
        let inverse = diff_tables(&stored_rows, committed);
        if !inverse.is_empty() {
            expected_inverses.push((table.to_string(), inverse));
        }
    }
    assert_eq!(peer.baseline_inverses(), expected_inverses, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_store_per_peer_keeps_its_invariants_at_any_shard_count(
        script in proptest::collection::vec(arb_peer_op(), 1..24)
    ) {
        let mut reference: Option<(PeerState, Vec<LogRecord>)> = None;
        for shards in [1usize, 2, 4, 8] {
            let mut peer = ward_doctor(shards);
            let mut oracle = oracle_of(&peer);
            prop_assert_eq!(peer.is_sharded(WARD_PD), shards > 1);
            assert_store_invariants(&peer, &oracle, &format!("shards={shards} after join"));
            let (mut version, mut next_pid) = (0u64, 1000i64);
            for (i, op) in script.iter().enumerate() {
                apply_peer_op(&mut peer, &mut oracle, op, &mut version, &mut next_pid);
                let context = format!("shards={shards} step {i} {op:?}");
                assert_store_invariants(&peer, &oracle, &context);
            }
            // Same state and the same mutation log whatever the shard
            // count: the WAL never sees how a store is split.
            let end = (state_of(&peer), peer.db.log().to_vec());
            match &reference {
                None => reference = Some(end),
                Some(unsharded) => prop_assert_eq!(&end, unsharded),
            }
        }
    }
}
