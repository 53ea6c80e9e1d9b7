//! The committed baseline is a view over the store — and reads exactly
//! as the second copy it replaced.
//!
//! A peer used to hold every shared table twice: the stored copy, and a
//! committed baseline advanced by every committed delta. The baseline is
//! now [`PeerNode::baseline`], an overlay of the store and the committed
//! rows its uncommitted changes displaced. This test keeps the *old
//! design* as the oracle — per share, a plain `Table` advanced only by
//! what was committed — and drives a peer through random scripts of local
//! writes, rollbacks, commits, remote applies and conflicted remote
//! applies, at 1/2/4/8 shards, asserting after every step that
//!
//! * the overlay reads as the oracle, row for row,
//! * `committed_hash` is the oracle's content hash,
//! * `baseline_inverses` is `diff_tables(store, oracle)`, and
//! * `pending_delta` is `diff_tables(oracle, store)`.

use medledger::bx::LensSpec;
use medledger::core::{PeerBinding, PeerNode, PropagationMode};
use medledger::relational::{diff_tables, row, Column, Schema, TableDelta, ValueType, WriteOp};
use medledger::{Table, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The patient share: a key-preserving projection of the source.
const PD: &str = "ward-pd";
/// The research share: one row per medication (`project_distinct`).
const RD: &str = "ward-rd";
const SHARES: [&str; 2] = [PD, RD];

#[derive(Clone, Debug)]
enum Op {
    /// `write_shared`: dosage of a stored patient row.
    SetDosage(u8, u8),
    /// `write_shared`: a new patient row, on a medication of its own.
    InsertPatient,
    /// `write_shared`: a stored patient row removed.
    DeletePatient(u8),
    /// `write_source`: clinical data of a patient.
    SetClinical(u8, u8),
    /// A staged dosage write, then `rollback_writes`.
    Rollback(u8, u8),
    /// The peer's own pending change of one share, committed.
    Commit(bool),
    /// A committed remote dosage update of the patient share — the
    /// conflict path whenever that share carries a pending change.
    RemoteDosage(u8, u8),
    /// A committed remote delete on a clean research share (it leaves a
    /// cascade pending on the patient share).
    RemoteRetire(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..255, 0u8..200).prop_map(|(k, v)| Op::SetDosage(k, v)),
        Just(Op::InsertPatient),
        (0u8..255).prop_map(Op::DeletePatient),
        (0u8..255, 0u8..200).prop_map(|(k, v)| Op::SetClinical(k, v)),
        (0u8..255, 0u8..200).prop_map(|(k, v)| Op::Rollback(k, v)),
        any::<bool>().prop_map(Op::Commit),
        (0u8..255, 0u8..200).prop_map(|(k, v)| Op::RemoteDosage(k, v)),
        (0u8..255, 0u8..200).prop_map(|(k, v)| Op::RemoteDosage(k, v)),
        (0u8..255).prop_map(Op::RemoteRetire),
    ]
}

/// 48 patients on 6 medications. No mechanism is recorded, so a patient
/// row the lens `put` re-creates from the patient share (mechanism
/// defaulted to NULL) keeps `medication_name → mechanism_of_action`, as
/// the distinct lens requires.
fn ward_doctor(shards: usize) -> PeerNode {
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
    let mut source = Table::new(schema);
    for pid in 0..48i64 {
        let med = format!("med-{}", pid % 6);
        let row = row![pid, med, format!("clin-{pid}"), Value::Null, "1x"];
        source.insert(row).expect("insert");
    }
    let mode = PropagationMode::Delta;
    let mut doctor = PeerNode::new("Doctor", "baseline-oracle", 1, mode, shards);
    doctor.add_source_table("D3", source).expect("source");
    let patient_lens = LensSpec::project(
        &["patient_id", "medication_name", "clinical_data", "dosage"],
        &["patient_id"],
    );
    let research_lens = LensSpec::project_distinct(
        &["medication_name", "mechanism_of_action"],
        &["medication_name"],
    );
    for (share, lens) in [(PD, patient_lens), (RD, research_lens)] {
        let source_table = "D3".into();
        doctor
            .join_share(share, PeerBinding { source_table, lens })
            .expect("join");
    }
    doctor
}

/// One peer and, per share, the table only committed deltas advance.
struct Run {
    peer: PeerNode,
    oracle: BTreeMap<&'static str, Table>,
    version: u64,
    next_pid: i64,
}

/// The `pick`-th key (mod the row count) of `rows` in key order.
fn pick_key(rows: &Table, pick: u8) -> Option<Vec<Value>> {
    let sorted = rows.sorted_rows();
    let row = sorted.get(pick as usize % sorted.len().max(1))?;
    Some(rows.schema().key_of(row))
}

fn set_dosage(key: Vec<Value>, v: u8) -> WriteOp {
    let assignments = vec![("dosage".into(), Value::text(format!("dose-{v}")))];
    WriteOp::Update { key, assignments }
}

impl Run {
    fn new(shards: usize) -> Run {
        let peer = ward_doctor(shards);
        let joined = |t| (t, peer.shared_table(t).expect("joined view"));
        Run {
            oracle: SHARES.into_iter().map(joined).collect(),
            peer,
            version: 0,
            next_pid: 1000,
        }
    }

    /// The committed view of `table` with `delta` on top — what the
    /// announced hash is taken over.
    fn committed_plus(&self, table: &str, delta: &TableDelta) -> Table {
        let mut view = self.oracle[table].clone();
        view.apply_delta(delta).expect("delta built on the oracle");
        view
    }

    /// A committed remote `delta` of `table` arrives. A delta a receiver
    /// cannot translate never commits (the pipeline's pre-flight refuses
    /// it), so it is skipped; an apply the peer refuses must change
    /// nothing, which the invariants after this step check.
    fn remote(&mut self, table: &'static str, delta: TableDelta) {
        let view = self.committed_plus(table, &delta);
        let announced = view.content_hash();
        let Ok(source_delta) = self.peer.translate_remote_delta(table, &delta) else {
            return;
        };
        let version = self.version + 1;
        let applied =
            (self.peer).apply_remote_delta(table, &delta, &source_delta, announced, version);
        if applied.is_ok() {
            self.version += 1;
            self.oracle.insert(table, view);
        }
    }

    fn apply(&mut self, op: &Op) {
        let stored = self.peer.shared_table(PD).expect("view");
        match op {
            Op::SetDosage(k, v) => {
                if let Some(key) = pick_key(&stored, *k) {
                    (self.peer.write_shared(PD, set_dosage(key, *v))).expect("local dosage");
                }
            }
            Op::InsertPatient => {
                let pid = self.next_pid;
                self.next_pid += 1;
                let row = row![pid, format!("solo-{pid}"), "clin", "1x"];
                (self.peer.write_shared(PD, WriteOp::Insert { row })).expect("local insert");
            }
            Op::DeletePatient(k) => {
                if let Some(key) = pick_key(&stored, *k) {
                    (self.peer.write_shared(PD, WriteOp::Delete { key })).expect("local delete");
                }
            }
            Op::SetClinical(k, v) => {
                let source = self.peer.db().table("D3").expect("D3").clone();
                if let Some(key) = pick_key(&source, *k) {
                    let assignments =
                        vec![("clinical_data".into(), Value::text(format!("clin-{v}")))];
                    let op = WriteOp::Update { key, assignments };
                    self.peer.write_source("D3", op).expect("source clinical");
                }
            }
            Op::Rollback(k, v) => {
                if let Some(key) = pick_key(&stored, *k) {
                    let before = self.peer.fingerprint();
                    let inverses =
                        (self.peer.write_shared(PD, set_dosage(key, *v))).expect("staged write");
                    self.peer.rollback_writes(&inverses);
                    assert_eq!(self.peer.fingerprint(), before, "rollback left a trace");
                }
            }
            Op::Commit(research) => {
                let table = if *research { RD } else { PD };
                let version = self.version + 1;
                let delta = self.peer.prepare_update_delta(table).expect("prepare");
                if delta.is_empty() {
                    return;
                }
                (self.peer.commit_delta(table, &delta, version)).expect("commit");
                let committed = self.oracle.get_mut(table).expect("oracle table");
                committed.apply_delta(&delta).expect("committed delta");
                self.version = version;
            }
            Op::RemoteDosage(k, v) => {
                let committed = &self.oracle[PD];
                let Some(key) = pick_key(committed, *k) else {
                    return;
                };
                let mut row = committed.get(&key).expect("picked from the oracle").clone();
                *row.get_mut(3).expect("dosage cell") = Value::text(format!("remote-{v}"));
                let updates = vec![(key, row)];
                self.remote(
                    PD,
                    TableDelta {
                        updates,
                        ..Default::default()
                    },
                );
            }
            Op::RemoteRetire(k) => {
                if self.peer.has_pending_change(RD).expect("pending") {
                    return;
                }
                let Some(key) = pick_key(&self.oracle[RD], *k) else {
                    return;
                };
                let deletes = vec![key];
                self.remote(
                    RD,
                    TableDelta {
                        deletes,
                        ..Default::default()
                    },
                );
            }
        }
    }

    fn check(&self, context: &str) {
        let mut expected_inverses = Vec::new();
        for table in SHARES {
            let committed = &self.oracle[table];
            let stored = self.peer.shared_table(table).expect("stored rows");
            let baseline = self.peer.baseline(table).expect("baseline");
            assert_eq!(
                diff_tables(&baseline, committed),
                TableDelta::default(),
                "{context}: `{table}` baseline overlay vs oracle"
            );
            assert_eq!(
                self.peer.committed_hash(table).expect("hash"),
                committed.content_hash(),
                "{context}: `{table}` committed hash"
            );
            assert_eq!(
                self.peer.pending_delta(table).expect("pending"),
                diff_tables(committed, &stored),
                "{context}: `{table}` pending delta"
            );
            let inverse = diff_tables(&stored, committed);
            if !inverse.is_empty() {
                expected_inverses.push((table.to_string(), inverse));
            }
        }
        assert_eq!(
            self.peer.baseline_inverses(),
            expected_inverses,
            "{context}: baseline inverses"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn baseline_overlay_reads_as_the_second_copy_it_replaced(
        script in proptest::collection::vec(arb_op(), 1..24)
    ) {
        for shards in [1usize, 2, 4, 8] {
            let mut run = Run::new(shards);
            run.check(&format!("shards={shards} after join"));
            for (i, op) in script.iter().enumerate() {
                run.apply(op);
                run.check(&format!("shards={shards} step {i} {op:?}"));
            }
        }
    }
}
