//! The typed session-facade API: builder → sessions → transactional
//! update batches.
//!
//! Covers the three behaviors the facade promises on top of the engine:
//! a committed batch drives the whole Fig. 5 pipeline (happy path), a
//! permission-denied write rolls back locally and surfaces the reverted
//! on-chain receipt, and a Researcher→Doctor→Patient cascade stays
//! consistent after every step.

mod common;

use common::fig5_model::{Refusal, Write};
use medledger::core::scenario::{self, PATIENT, SHARE_PD, SHARE_RD};
use medledger::relational::WriteOp;
use medledger::{ConsensusKind, MedLedger, SystemConfig, Value};

fn config(seed: &str) -> SystemConfig {
    SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        },
        seed: seed.into(),
        peer_key_capacity: 64,
        ..Default::default()
    }
}

#[test]
fn permission_denied_commit_reverts_via_inverse_deltas_in_full_table_mode() {
    // A denied commit rolls back through the staged writes' inverse
    // deltas — no table is snapshotted — and must still restore the
    // shared copy and the source exactly: to what they were, and to what
    // the Fig. 5 reference model holds, which undoes a refused batch by
    // putting the peer's whole-table snapshot back.
    let mut scn = scenario::build(config("facade-denied-full")).expect("build");
    let mut model = common::fig1_model(&scn);
    let before = scn
        .ledger
        .session(scn.patient)
        .read(SHARE_PD)
        .expect("read");
    let d1_before = scn.ledger.session(scn.patient).source("D1").expect("D1");

    let self_medicating = [Write::Shared(WriteOp::Update {
        key: vec![Value::Int(188)],
        assignments: vec![("dosage".into(), Value::text("self-medicating"))],
    })];
    let batch = (PATIENT, SHARE_PD, self_medicating.as_slice());
    let (got, expected) = common::commit_on_both(&mut scn.ledger, &mut model, batch, "denied");
    assert!(matches!(expected, Err(Refusal::Denied(attr)) if attr == "dosage"));
    let err = got.unwrap_err();
    assert!(err.is_permission_denied(), "{err}");
    assert!(err.receipt().is_some());

    let after = scn
        .ledger
        .session(scn.patient)
        .read(SHARE_PD)
        .expect("read");
    assert_eq!(before.content_hash(), after.content_hash());
    let d1_after = scn.ledger.session(scn.patient).source("D1").expect("D1");
    assert_eq!(d1_before.content_hash(), d1_after.content_hash());
    assert_eq!(&d1_after, model.peer(PATIENT).source("D1"));
}

#[test]
fn builder_constructs_a_working_ledger() {
    let mut ledger = MedLedger::builder()
        .seed("facade-builder")
        .pbft(100)
        .validators(4)
        .max_block_txs(64)
        .peer_key_capacity(32)
        .build()
        .expect("boots");
    let alice = ledger.add_peer("Alice").expect("add");
    assert_eq!(ledger.peer_name(alice).expect("name"), "Alice");
    assert_eq!(ledger.peer_id("Alice").expect("lookup"), alice);
    assert_eq!(ledger.peers(), vec![alice]);
    // The sharing contract is deployed at boot (one block on chain).
    assert!(ledger.chain().height() >= 1);
    assert!(ledger.remaining_keys(alice).expect("keys") > 0);
}

#[test]
fn commit_happy_path_drives_full_pipeline() {
    let mut scn = scenario::build(config("facade-happy")).expect("build");
    let outcome = scn
        .ledger
        .session(scn.doctor)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "dosage",
            Value::text("half a tablet"),
        )
        .commit()
        .expect("commit");

    // Typed outcome: version, checked attrs, latencies, trace, receipts.
    assert_eq!(outcome.version(), 1);
    assert_eq!(outcome.changed_attrs(), ["dosage".to_string()]);
    assert!(outcome.visibility_latency_ms() > 0);
    assert!(outcome.sync_latency_ms() >= outcome.visibility_latency_ms());
    assert!(outcome.trace.steps.iter().any(|s| s.number == "3"));
    // One request + one ack, both successful, both on chain.
    assert_eq!(outcome.receipts.len(), 2);
    assert!(outcome.receipts.iter().all(|r| r.status.is_success()));

    // The patient saw the change; the whole world is consistent.
    let d13 = scn
        .ledger
        .session(scn.patient)
        .read(SHARE_PD)
        .expect("read");
    assert_eq!(
        d13.get(&[Value::Int(188)]).expect("row")[3],
        Value::text("half a tablet")
    );
    scn.ledger.check_consistency().expect("consistent");
}

#[test]
fn permission_denied_commit_reverts_locally_with_receipt() {
    let mut scn = scenario::build(config("facade-denied")).expect("build");
    let before = scn
        .ledger
        .session(scn.patient)
        .read(SHARE_PD)
        .expect("read");

    let err = scn
        .ledger
        .session(scn.patient)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "dosage",
            Value::text("self-medicating"),
        )
        .commit()
        .unwrap_err();

    // Typed error with the reverted on-chain receipt.
    assert!(err.is_permission_denied(), "{err}");
    let receipt = err.receipt().expect("reverted receipt");
    assert!(!receipt.status.is_success());
    assert_eq!(
        receipt.status.revert_kind(),
        Some(medledger::ledger::RevertKind::PermissionDenied)
    );

    // Transactional: the patient's staged local write was rolled back —
    // the shared copy AND the source are unchanged.
    let after = scn
        .ledger
        .session(scn.patient)
        .read(SHARE_PD)
        .expect("read");
    assert_eq!(before.content_hash(), after.content_hash());
    let d1 = scn.ledger.session(scn.patient).source("D1").expect("D1");
    assert_eq!(
        d1.get(&[Value::Int(188)]).expect("row")[4],
        Value::text("one tablet every 4h")
    );
    scn.ledger.check_consistency().expect("consistent");
}

#[test]
fn researcher_doctor_patient_chain_stays_consistent() {
    // The paper's Fig. 5 narrative as a Researcher→Doctor→Patient chain:
    // the Researcher's source edit reaches the Doctor's full record
    // (steps 1–6), then the Doctor's follow-up reaches the Patient
    // (steps 7–11). Consistency must hold after every commit.
    let mut scn = scenario::build(config("facade-chain")).expect("build");
    let (patient, doctor, researcher) = (scn.patient, scn.doctor, scn.researcher);

    // Researcher → Doctor: edit the D2 source, commit through the
    // research share.
    let r_outcome = scn
        .ledger
        .session(researcher)
        .begin(SHARE_RD)
        .update_source(
            "D2",
            vec![Value::text("Ibuprofen")],
            vec![("mechanism_of_action".into(), Value::text("MeA1-v2"))],
        )
        .commit()
        .expect("researcher commit");
    assert_eq!(
        r_outcome.changed_attrs(),
        ["mechanism_of_action".to_string()]
    );
    scn.ledger
        .check_consistency()
        .expect("consistent after researcher");
    let d3 = scn.ledger.session(doctor).source("D3").expect("D3");
    assert_eq!(
        d3.get(&[Value::Int(188)]).expect("row")[3],
        Value::text("MeA1-v2")
    );

    // Doctor → Patient: the dosage follow-up (the paper's step 7).
    let d_outcome = scn
        .ledger
        .session(doctor)
        .begin(SHARE_PD)
        .set(vec![Value::Int(188)], "dosage", Value::text("two tablets"))
        .commit()
        .expect("doctor commit");
    scn.ledger
        .check_consistency()
        .expect("consistent after doctor");
    let d1 = scn.ledger.session(patient).source("D1").expect("D1");
    assert_eq!(
        d1.get(&[Value::Int(188)]).expect("row")[4],
        Value::text("two tablets")
    );
    assert!(d_outcome.receipts.iter().all(|r| r.status.is_success()));
}

#[test]
fn step6_cascade_flows_through_commit() {
    // An automatic Step-6 cascade: a Doctor-side medication rename on the
    // patient share rewrites D3, the dependency check finds the research
    // share changed, and the cascade carries the rename to the
    // Researcher — all inside one commit().
    let mut scn = scenario::build(config("facade-cascade")).expect("build");
    let (doctor, researcher) = (scn.doctor, scn.researcher);
    // A rename changes the research share's view key, so the cascade's
    // diff counts every attribute; the authority widens the mechanism
    // writer set first.
    scn.ledger
        .session(researcher)
        .grant(SHARE_RD, "mechanism_of_action", &[doctor, researcher])
        .expect("grant");

    let outcome = scn
        .ledger
        .session(doctor)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "medication_name",
            Value::text("Ibuprofen-XR"),
        )
        .commit()
        .expect("commit");

    assert_eq!(
        outcome.cascades().len(),
        1,
        "trace:\n{}",
        outcome.trace.render()
    );
    assert_eq!(outcome.cascades()[0].table_id, SHARE_RD);
    let d2 = scn.ledger.session(researcher).source("D2").expect("D2");
    assert!(d2.get(&[Value::text("Ibuprofen-XR")]).is_some());
    // Receipts cover the cascade's transactions too (2 per propagation).
    assert!(outcome.receipts.len() >= 4);
    assert!(outcome.receipts.iter().all(|r| r.status.is_success()));
    scn.ledger
        .check_consistency()
        .expect("consistent at the end");
}

#[test]
fn no_change_commit_keeps_local_edits_outside_lens_footprint() {
    // A staged source edit to a column the lens drops (D2's
    // mode_of_action is outside BX23's footprint) yields NoChange —
    // there is nothing to propagate — but the edit is a valid local
    // write and must survive, exactly as if made directly.
    let mut scn = scenario::build(config("facade-nochange")).expect("build");
    let err = scn
        .ledger
        .session(scn.researcher)
        .begin(SHARE_RD)
        .update_source(
            "D2",
            vec![Value::text("Ibuprofen")],
            vec![("mode_of_action".into(), Value::text("MoA1-local"))],
        )
        .commit()
        .unwrap_err();
    assert!(err.is_no_change(), "{err}");
    assert!(!err.committed_on_chain());
    let d2 = scn.ledger.reader(scn.researcher).source("D2").expect("D2");
    assert_eq!(
        d2.get(&[Value::text("Ibuprofen")]).expect("row")[2],
        Value::text("MoA1-local"),
        "local edit must not be rolled back by a NoChange commit"
    );
    scn.ledger.check_consistency().expect("consistent");
}

#[test]
fn sessions_list_their_shares() {
    let mut scn = scenario::build(config("facade-shares")).expect("build");
    let doctor_shares = scn.ledger.session(scn.doctor).shares().expect("shares");
    assert!(doctor_shares.contains(&SHARE_PD.to_string()));
    assert!(doctor_shares.contains(&SHARE_RD.to_string()));
    let patient_shares = scn.ledger.session(scn.patient).shares().expect("shares");
    assert_eq!(patient_shares, vec![SHARE_PD.to_string()]);
}
