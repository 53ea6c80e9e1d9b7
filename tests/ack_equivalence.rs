//! The acknowledgement side of a wave, against the Fig. 5 reference
//! model: whoever updates, every other sharing peer — and nobody else —
//! fetched, applied and acknowledged that version, exactly once.
//!
//! The paper's cost model has each receiver send its own `ack_update`;
//! the pipeline folds a wave's acks into ONE `ack_update_aggregate` whose
//! audit expansion attributes each receiver individually. The reference
//! is the model's receiver set per committed version (`Committed`), an
//! absolute statement where this suite used to compare two ack protocols
//! with each other. Checked on Fig. 1 scripts (denials, cascades and
//! invalid writes included), and on a four-peer ward where
//! the updater — and so the receiver set — changes from commit to commit.
//! The dissent path (a share that fails verification) is driven end to
//! end in `core::system`'s unit tests, which can reach between signing
//! and submitting.

mod common;

use common::fig5_model::{Committed, Fig5Model, Write};
use common::{arb_fig1_op, commit_on_both, run_fig1_script};
use medledger::bx::LensSpec;
use medledger::relational::{row, Column, Schema, ValueType, WriteOp};
use medledger::{MedLedger, Table, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// `(updater, receivers)` of every version of `share`, as account hex.
type Waves = Vec<(String, BTreeSet<String>)>;

/// Per committed version of `share`, who the chain says requested it and
/// who it attributes an acknowledgement to — each at most once, or the
/// audit fails here.
fn audited_waves(ledger: &MedLedger, share: &str) -> Waves {
    let mut waves: Waves = Vec::new();
    let mut seen_aggregates = BTreeSet::new();
    for e in ledger.audit(share) {
        let succeeded = (ledger.system().receipt(&e.tx_id)).is_some_and(|r| r.status.is_success());
        let sender = e.sender.0.to_hex();
        match e.method.as_deref() {
            Some("request_update") if succeeded => waves.push((sender, BTreeSet::new())),
            Some("ack_update") | Some("ack_update_aggregate") => {
                assert!(succeeded, "`{share}`: an ack reverted");
                // An aggregate's first entry is its submitter, the
                // updater: bookkeeping, not a receiver's ack.
                let is_aggregate = e.method.as_deref() == Some("ack_update_aggregate");
                if is_aggregate && seen_aggregates.insert(e.tx_id) {
                    continue;
                }
                let (_, acked) = waves.last_mut().expect("ack before any request");
                assert!(acked.insert(sender), "`{share}`: a receiver acked twice");
            }
            _ => {}
        }
    }
    waves
}

/// The same from the model's commits.
fn model_waves(ledger: &MedLedger, committed: &[Committed], share: &str) -> Waves {
    let hex = |name: &str| ledger.peer_id(name).expect("peer").account().0.to_hex();
    let of_share = committed.iter().flat_map(Committed::flatten);
    let of_share = of_share.filter(|c| c.share == share);
    let wave = |c: &Committed| {
        (
            hex(&c.updater),
            c.receivers.iter().map(|r| hex(r)).collect(),
        )
    };
    of_share.map(wave).collect()
}

/// One aggregated ack transaction per committed version, whatever the
/// receiver count.
fn assert_one_ack_tx_per_version(ledger: &MedLedger, model: &Fig5Model, share: &str) {
    let history = ledger.audit(share);
    let aggregates = history
        .iter()
        .filter(|e| e.method.as_deref() == Some("ack_update_aggregate"));
    let txs: BTreeSet<_> = aggregates.map(|e| e.tx_id).collect();
    assert_eq!(txs.len() as u64, model.version(share), "`{share}`");
}

// ----- a ward shared four ways --------------------------------------------

const WARD: &str = "ward";
const WARD_PEERS: [&str; 4] = ["Hub", "R0", "R1", "R2"];

/// Patients 1–3 on every peer, shared four ways through one projection;
/// `Hub` and `R0` may write the dosage, nobody else.
fn ward_world(seed: &str) -> (MedLedger, Fig5Model) {
    let columns = vec![
        Column::new("patient_id", ValueType::Int),
        Column::new("dosage", ValueType::Text),
    ];
    let mut ward = Table::new(Schema::new(columns, &["patient_id"]).expect("schema"));
    for pid in 1..=3i64 {
        ward.insert(row![pid, "10 mg"]).expect("row");
    }
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    let builder = MedLedger::builder().seed(seed).pbft(50);
    let mut ledger = builder.peer_key_capacity(64).build().expect("boot");
    let mut model = Fig5Model::default();
    let ids = WARD_PEERS.map(|name| {
        let id = ledger.add_peer(name).expect("peer");
        (ledger.session(id).load_source("S", ward.clone())).expect("source");
        model.add_peer(name).load_source("S", ward.clone());
        id
    });
    let mut session = ledger.session(ids[0]);
    let mut share = session.share(WARD).bind("S", lens.clone());
    for id in &ids[1..] {
        share = share.with(*id, "S", lens.clone());
    }
    (share.writers("patient_id", &[ids[0]]))
        .writers("dosage", &ids[..2])
        .create()
        .expect("share");
    let bindings = WARD_PEERS.map(|name| (name, "S", lens.clone()));
    let writers: [(&str, &[&str]); 2] = [("patient_id", &["Hub"]), ("dosage", &["Hub", "R0"])];
    model.create_share(WARD, &bindings, &writers);
    (ledger, model)
}

proptest! {
    // One deployment per case beside the model.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aggregated_and_legacy_ack_waves_end_equivalent(
        script in proptest::collection::vec(arb_fig1_op(), 1..6)
    ) {
        let run = run_fig1_script("ack-equiv", &script);
        let ledger = &run.scn.ledger;
        for share in run.model.peer("Doctor").shares() {
            let expected = model_waves(ledger, &run.committed, share);
            prop_assert_eq!(audited_waves(ledger, share), expected);
            assert_one_ack_tx_per_version(ledger, &run.model, share);
        }
    }

    #[test]
    fn every_receiver_of_a_wave_is_attributed_once_whoever_updates(
        script in proptest::collection::vec((0usize..4, 1i64..4, 0u8..50), 1..8)
    ) {
        let (mut ledger, mut model) = ward_world("ack-ward");
        let mut committed = Vec::new();
        for (i, (peer, pid, dose)) in script.iter().enumerate() {
            let set_dose = [Write::Shared(WriteOp::Update {
                key: vec![Value::Int(*pid)],
                assignments: vec![("dosage".into(), Value::text(format!("{dose} mg")))],
            })];
            let batch = (WARD_PEERS[*peer], WARD, set_dose.as_slice());
            let context = format!("step {i} {:?}", script[i]);
            let (_, expected) = commit_on_both(&mut ledger, &mut model, batch, &context);
            // `R1` and `R2` hold no permission: denied unless it changes nothing.
            prop_assert!(*peer < 2 || expected.is_err());
            committed.extend(expected);
        }
        let expected = model_waves(&ledger, &committed, WARD);
        prop_assert!(expected.iter().all(|(_, receivers)| receivers.len() == 3));
        prop_assert_eq!(audited_waves(&ledger, WARD), expected);
        assert_one_ack_tx_per_version(&ledger, &model, WARD);
    }
}
