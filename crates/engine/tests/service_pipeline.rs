//! The ticketed commit pipeline: submit/poll lifecycle, same-table write
//! combining, per-submitter receipt demultiplexing, lone-submitter
//! rollback on denial, and cascade re-entry into the next wave.

#![allow(clippy::result_large_err)]

use medledger_bx::LensSpec;
use medledger_core::{CommitError, ConsensusKind, MedLedger, PeerId};
use medledger_engine::LedgerService;
use medledger_relational::{row, Column, Schema, Table, Value, ValueType};

const WARD: &str = "ward";

struct Clinic {
    service: LedgerService,
    doctor: PeerId,
    patient: PeerId,
}

fn ward_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
            Column::new("clinical", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema")
}

fn ward_table() -> Table {
    let mut t = Table::new(ward_schema());
    for pid in 1..=3i64 {
        t.insert(row![pid, "10 mg", "stable"]).expect("seed");
    }
    t
}

/// Doctor and Patient share `ward`; the doctor may write `dosage`, the
/// patient `clinical` — the Fig. 3 split that makes combined same-table
/// updates exercise per-submitter permissions.
fn clinic(seed: &str) -> Clinic {
    let mut ledger = MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        })
        .peer_key_capacity(64)
        .build()
        .expect("ledger boots");
    let doctor = ledger.add_peer("Doctor").expect("doctor");
    let patient = ledger.add_peer("Patient").expect("patient");
    let lens = LensSpec::project(&["patient_id", "dosage", "clinical"], &["patient_id"]);
    ledger
        .session(doctor)
        .load_source("D-ward", ward_table())
        .expect("doctor source");
    ledger
        .session(patient)
        .load_source("P-ward", ward_table())
        .expect("patient source");
    ledger
        .session(doctor)
        .share(WARD)
        .bind("D-ward", lens.clone())
        .with(patient, "P-ward", lens)
        .writers("patient_id", &[doctor])
        .writers("dosage", &[doctor])
        .writers("clinical", &[patient])
        .create()
        .expect("share");
    Clinic {
        service: LedgerService::new(ledger),
        doctor,
        patient,
    }
}

/// The acceptance scenario: two concurrent submissions against the SAME
/// shared table commit in ONE block / ONE scheduled PBFT round via
/// composed deltas — no `Conflicted` — with distinct per-submitter
/// receipts.
#[test]
fn same_table_submissions_combine_into_one_block() {
    let mut c = clinic("svc-combine");
    let blocks_before = c.service.ledger().stats().blocks;

    let doctor_ticket = c
        .service
        .submit(c.doctor, WARD)
        .set(vec![Value::Int(1)], "dosage", Value::text("20 mg"))
        .submit()
        .expect("doctor submits");
    let patient_ticket = c
        .service
        .submit(c.patient, WARD)
        .set(vec![Value::Int(1)], "clinical", Value::text("improving"))
        .submit()
        .expect("patient submits — same table, not Conflicted");

    let report = c.service.tick().expect("wave commits");
    assert_eq!(report.members, 1, "one combined member");
    assert_eq!(report.resolved, 2, "both tickets resolved");

    let doctor_outcome = c
        .service
        .take(doctor_ticket)
        .expect("resolved")
        .expect("doctor commits");
    let patient_outcome = c
        .service
        .take(patient_ticket)
        .expect("resolved")
        .expect("patient commits");

    // Distinct per-submitter receipts: the lead's request_update and
    // the co-author's co_request_update are different transactions.
    let lead_tx = doctor_outcome.receipts[0].tx_id;
    let co_tx = patient_outcome.receipts[0].tx_id;
    assert_ne!(lead_tx, co_tx);
    assert!(patient_outcome.receipts[0].status.is_success());
    assert!(patient_outcome.receipts[0]
        .logs_with_topic("CoUpdateCommitted")
        .next()
        .is_some());

    // ONE version bump, and the request + co-request share ONE block
    // (one scheduled PBFT round decides it).
    assert_eq!(doctor_outcome.version(), 1);
    let chain = c.service.ledger().chain();
    let request_block = chain
        .blocks()
        .iter()
        .find(|b| b.txs.iter().any(|t| t.id() == lead_tx))
        .expect("request block");
    assert!(
        request_block.txs.iter().any(|t| t.id() == co_tx),
        "co-request must ride the same block as the request"
    );
    assert_eq!(request_block.header.wave, Some(1), "wave-attributed");
    // Whole wave: 1 request block + 1 ack block (one receiver).
    assert_eq!(c.service.ledger().stats().blocks - blocks_before, 2);

    // Both edits composed into the committed state, on every peer.
    for peer in [c.doctor, c.patient] {
        let view = c.service.ledger().reader(peer).read(WARD).expect("read");
        let row = view.get(&[Value::Int(1)]).expect("row");
        assert_eq!(row[1], Value::text("20 mg"));
        assert_eq!(row[2], Value::text("improving"));
    }
    c.service
        .ledger()
        .check_consistency()
        .expect("all peers in sync");

    // Both submitters are visible in the table's audit history.
    let audit = c.service.ledger().audit(WARD);
    assert!(audit
        .iter()
        .any(|e| e.method.as_deref() == Some("request_update")));
    assert!(audit
        .iter()
        .any(|e| e.method.as_deref() == Some("co_request_update")));
}

/// A submitter without permission on its changed attributes is excluded
/// from the composition and rolled back ALONE: the permitted submitter's
/// update commits untouched, and the denial is individually receipted on
/// chain.
#[test]
fn denied_submitter_rolls_back_alone() {
    let mut c = clinic("svc-denied");

    let doctor_ticket = c
        .service
        .submit(c.doctor, WARD)
        .set(vec![Value::Int(2)], "dosage", Value::text("5 mg"))
        .submit()
        .expect("doctor submits");
    // The patient may NOT write dosage.
    let patient_ticket = c
        .service
        .submit(c.patient, WARD)
        .set(
            vec![Value::Int(3)],
            "dosage",
            Value::text("self-medicating"),
        )
        .submit()
        .expect("patient submits");

    c.service.drain().expect("drain");

    c.service
        .take(doctor_ticket)
        .expect("resolved")
        .expect("doctor's member commits despite the denied rider");
    let err = c
        .service
        .take(patient_ticket)
        .expect("resolved")
        .expect_err("patient denied");
    assert!(err.is_permission_denied(), "{err}");
    assert!(!err.committed_on_chain());
    let receipt = err.receipt().expect("on-chain denial receipt");
    assert!(!receipt.status.is_success());

    // Lone rollback: the committed state carries the doctor's edit
    // and NOT the patient's, on every peer.
    for peer in [c.doctor, c.patient] {
        let view = c.service.ledger().reader(peer).read(WARD).expect("read");
        assert_eq!(
            view.get(&[Value::Int(2)]).expect("row")[1],
            Value::text("5 mg")
        );
        assert_eq!(
            view.get(&[Value::Int(3)]).expect("row")[1],
            Value::text("10 mg"),
            "denied write must not leak into committed state"
        );
    }
    c.service.ledger().check_consistency().expect("consistent");
}

/// Sequential composition: a later same-table submission sees the
/// earlier one's staged state, so touching the SAME row composes at the
/// attribute level instead of last-writer-wins.
#[test]
fn same_row_same_table_submissions_compose_attribute_wise() {
    let mut c = clinic("svc-same-row");
    let t1 = c
        .service
        .submit(c.doctor, WARD)
        .set(vec![Value::Int(1)], "dosage", Value::text("25 mg"))
        .submit()
        .expect("doctor");
    let t2 = c
        .service
        .submit(c.patient, WARD)
        .set(vec![Value::Int(1)], "clinical", Value::text("worse"))
        .submit()
        .expect("patient");
    c.service.drain().expect("drain");
    c.service.take(t1).expect("resolved").expect("doctor ok");
    c.service.take(t2).expect("resolved").expect("patient ok");
    let view = c
        .service
        .ledger()
        .reader(c.patient)
        .read(WARD)
        .expect("read");
    let row = view.get(&[Value::Int(1)]).expect("row");
    assert_eq!(row[1], Value::text("25 mg"));
    assert_eq!(row[2], Value::text("worse"));
    c.service.ledger().check_consistency().expect("consistent");
}

/// Submissions against distinct tables still batch into one wave (the
/// PR-3 behavior, now without hand-assembling a queue), and the blocking
/// `commit()` convenience is a thin submit+drain wrapper.
#[test]
fn distinct_tables_share_a_wave_and_blocking_commit_works() {
    let mut ledger = MedLedger::builder()
        .seed("svc-distinct")
        .pbft(100)
        .peer_key_capacity(64)
        .build()
        .expect("boots");
    let doctor = ledger.add_peer("Doctor").expect("doctor");
    let patient = ledger.add_peer("Patient").expect("patient");
    let lens = LensSpec::project(&["patient_id", "dosage", "clinical"], &["patient_id"]);
    for t in ["ward-a", "ward-b"] {
        ledger
            .session(doctor)
            .load_source(&format!("D-{t}"), ward_table())
            .expect("source");
        ledger
            .session(patient)
            .load_source(&format!("P-{t}"), ward_table())
            .expect("source");
        ledger
            .session(doctor)
            .share(t)
            .bind(format!("D-{t}"), lens.clone())
            .with(patient, format!("P-{t}"), lens.clone())
            .writers("dosage", &[doctor])
            .create()
            .expect("share");
    }
    let mut service = LedgerService::new(ledger);
    let blocks_before = service.ledger().stats().blocks;
    let ta = service
        .submit(doctor, "ward-a")
        .set(vec![Value::Int(1)], "dosage", Value::text("a"))
        .submit()
        .expect("a");
    let tb = service
        .submit(doctor, "ward-b")
        .set(vec![Value::Int(1)], "dosage", Value::text("b"))
        .submit()
        .expect("b");
    let report = service.tick().expect("wave");
    assert_eq!(report.members, 2);
    service.take(ta).expect("resolved").expect("a commits");
    service.take(tb).expect("resolved").expect("b commits");
    // 1 shared request block + 1 shared ack block.
    assert_eq!(service.ledger().stats().blocks - blocks_before, 2);

    // Blocking convenience on top of the pipeline.
    let outcome = service
        .submit(doctor, "ward-a")
        .set(vec![Value::Int(2)], "dosage", Value::text("c"))
        .commit()
        .expect("blocking commit");
    assert_eq!(outcome.version(), 2);
    service.ledger().check_consistency().expect("consistent");
}

/// A submission whose writes cancel out (insert then delete) is a net
/// no-op on the view: it must resolve NoChange instead of declaring —
/// and being permission-checked on — every column, whether it arrives
/// alone or as a same-table co-submission.
#[test]
fn insert_then_delete_submission_is_no_change() {
    let mut c = clinic("svc-cancel");
    // Alone.
    let t = c
        .service
        .submit(c.patient, WARD)
        .insert(row![9i64, "x", "y"])
        .delete(vec![Value::Int(9)])
        .submit()
        .expect("submit");
    let err = c.service.wait(t).expect_err("net no-op");
    assert!(err.is_no_change(), "{err}");
    // As a co-submission riding a real member: the member commits, the
    // cancelled submission still resolves NoChange (retried as a lead in
    // the next wave), and the patient is NOT denied for the insert's
    // doctor-only columns.
    let lead = c
        .service
        .submit(c.doctor, WARD)
        .set(vec![Value::Int(1)], "dosage", Value::text("7 mg"))
        .submit()
        .expect("lead");
    let cancelled = c
        .service
        .submit(c.patient, WARD)
        .insert(row![9i64, "x", "y"])
        .delete(vec![Value::Int(9)])
        .submit()
        .expect("co");
    c.service.drain().expect("drain");
    c.service
        .take(lead)
        .expect("resolved")
        .expect("lead commits");
    let err = c
        .service
        .take(cancelled)
        .expect("resolved")
        .expect_err("net no-op");
    assert!(err.is_no_change(), "{err}");
    c.service.ledger().check_consistency().expect("consistent");
}

/// An unknown or already-taken ticket errors instead of hanging.
#[test]
fn waiting_on_a_taken_ticket_errors() {
    let mut c = clinic("svc-ticket");
    let t = c
        .service
        .submit(c.doctor, WARD)
        .set(vec![Value::Int(1)], "dosage", Value::text("x"))
        .submit()
        .expect("submit");
    c.service.wait(t).expect("commits");
    let err = c.service.wait(t).expect_err("already taken");
    assert!(matches!(err, CommitError::Engine(_)));
}

/// An empty submission is rejected at submit time.
#[test]
fn empty_submission_rejected() {
    let mut c = clinic("svc-empty");
    let err = c.service.submit(c.doctor, WARD).submit().unwrap_err();
    assert!(matches!(err, CommitError::EmptyBatch { .. }));
}

/// A sharded clinic (shards_per_table = 8): the service's waves route
/// each composed delta to the shards it lands in on every receiver, and
/// the outcome — state, contract hashes, block count — is byte-identical
/// to the unsharded pipeline.
#[test]
fn sharded_service_waves_match_unsharded() {
    let run = |shards: usize| {
        let mut ledger = MedLedger::builder()
            .seed("svc-sharded")
            .consensus(ConsensusKind::PrivatePbft {
                block_interval_ms: 100,
            })
            .peer_key_capacity(64)
            .shards_per_table(shards)
            .build()
            .expect("ledger boots");
        let doctor = ledger.add_peer("Doctor").expect("doctor");
        let patient = ledger.add_peer("Patient").expect("patient");
        let lens = LensSpec::project(&["patient_id", "dosage", "clinical"], &["patient_id"]);
        ledger
            .session(doctor)
            .load_source("D-ward", ward_table())
            .expect("doctor source");
        ledger
            .session(patient)
            .load_source("P-ward", ward_table())
            .expect("patient source");
        ledger
            .session(doctor)
            .share(WARD)
            .bind("D-ward", lens.clone())
            .with(patient, "P-ward", lens)
            .writers("patient_id", &[doctor])
            .writers("dosage", &[doctor])
            .writers("clinical", &[patient])
            .create()
            .expect("share");
        let mut service = LedgerService::new(ledger);
        // Two combined same-table rounds, shard-routed on every receiver.
        for round in 0..2 {
            let dt = service
                .submit(doctor, WARD)
                .set(
                    vec![Value::Int(1 + round)],
                    "dosage",
                    Value::text(format!("combo-{round}")),
                )
                .submit()
                .expect("doctor submits");
            let pt = service
                .submit(patient, WARD)
                .set(
                    vec![Value::Int(1 + round)],
                    "clinical",
                    Value::text(format!("note-{round}")),
                )
                .submit()
                .expect("patient submits");
            service.drain().expect("wave commits");
            service.take(dt).expect("resolved").expect("doctor commits");
            service
                .take(pt)
                .expect("resolved")
                .expect("patient commits");
        }
        service.ledger().check_consistency().expect("consistent");
        let meta = service.ledger().share_meta(WARD).expect("meta");
        let doctor_node = service.ledger().system().peer(doctor).expect("peer");
        assert_eq!(doctor_node.is_sharded(WARD), shards > 1);
        (
            meta.content_hash,
            meta.version,
            service.ledger().stats().blocks,
            doctor_node.fingerprint(),
        )
    };
    let baseline = run(1);
    for shards in [2usize, 8] {
        assert_eq!(run(shards), baseline, "shards={shards}");
    }
}
