//! Ack-protocol equivalence: the aggregated threshold-ack protocol is
//! observationally identical to the legacy one-`ack_update`-per-receiver
//! protocol.
//!
//! Property (the ISSUE 7 acceptance criterion): for any sequence of
//! update batches, deployments running `aggregated_acks ∈ {true, false}`
//! — in **both** propagation modes and for `shards_per_table ∈ {1, 8}` —
//! end equivalent: every peer's stored tables and database fingerprint,
//! every contract-committed content hash and version, the success of
//! every receipt, and the per-receiver ack *attribution* in the audit
//! history (each receiver of each wave is attributed exactly once,
//! whether through its own `ack_update` transaction or through the
//! expansion of the wave's single `ack_update_aggregate`). A denied
//! update rolls back identically in both modes.

use medledger::core::scenario::{self, Fig1Scenario, SHARE_PD, SHARE_RD};
use medledger::{ConsensusKind, PropagationMode, SystemConfig, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Clone, Debug)]
enum ScriptOp {
    /// Doctor edits patient 188's dosage through the patient share.
    DoctorDosage(u8),
    /// Patient edits its clinical data through the patient share.
    PatientClinical(u8),
    /// Researcher edits a medication's mechanism in its D2 source and
    /// commits through the research share.
    ResearcherMechanism(u8, u8),
    /// Patient tries to edit dosage — denied by the Fig. 3 matrix; the
    /// staged write must roll back identically in both ack modes.
    PatientDosageDenied(u8),
}

fn arb_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0u8..200).prop_map(ScriptOp::DoctorDosage),
        (0u8..200).prop_map(ScriptOp::PatientClinical),
        (0u8..2, 0u8..200).prop_map(|(m, v)| ScriptOp::ResearcherMechanism(m, v)),
        (0u8..200).prop_map(ScriptOp::PatientDosageDenied),
    ]
}

fn build(mode: PropagationMode, shards: usize, aggregated: bool, seed: &str) -> Fig1Scenario {
    scenario::build(SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 50,
        },
        seed: seed.into(),
        peer_key_capacity: 256,
        propagation: mode,
        shards_per_table: shards,
        aggregated_acks: aggregated,
        ..Default::default()
    })
    .expect("build")
}

/// Runs the script; returns one outcome line per op ("ok vN" /
/// "no-change" / "denied") so the op-level behavior can be compared
/// across ack modes without depending on per-mode transaction counts.
fn run_script(scn: &mut Fig1Scenario, script: &[ScriptOp]) -> Vec<String> {
    let mut outcomes = Vec::new();
    for op in script {
        let result = match op {
            ScriptOp::DoctorDosage(v) => scn
                .ledger
                .session(scn.doctor)
                .begin(SHARE_PD)
                .set(
                    vec![Value::Int(188)],
                    "dosage",
                    Value::text(format!("dose-{v}")),
                )
                .commit(),
            ScriptOp::PatientClinical(v) => scn
                .ledger
                .session(scn.patient)
                .begin(SHARE_PD)
                .set(
                    vec![Value::Int(188)],
                    "clinical_data",
                    Value::text(format!("clin-{v}")),
                )
                .commit(),
            ScriptOp::ResearcherMechanism(m, v) => {
                let med = ["Ibuprofen", "Wellbutrin"][*m as usize];
                scn.ledger
                    .session(scn.researcher)
                    .begin(SHARE_RD)
                    .update_source(
                        "D2",
                        vec![Value::text(med)],
                        vec![(
                            "mechanism_of_action".into(),
                            Value::text(format!("mech-{v}")),
                        )],
                    )
                    .commit()
            }
            ScriptOp::PatientDosageDenied(v) => scn
                .ledger
                .session(scn.patient)
                .begin(SHARE_PD)
                .set(
                    vec![Value::Int(188)],
                    "dosage",
                    Value::text(format!("sneaky-{v}")),
                )
                .commit(),
        };
        match result {
            Ok(outcome) => {
                assert!(outcome.receipts.iter().all(|r| r.status.is_success()));
                outcomes.push(format!("ok v{}", outcome.version()));
            }
            Err(e) if e.is_no_change() => outcomes.push("no-change".into()),
            Err(e) if e.is_permission_denied() => {
                assert!(
                    matches!(op, ScriptOp::PatientDosageDenied(_)),
                    "unexpected denial for {op:?}: {e}"
                );
                outcomes.push("denied".into());
            }
            Err(e) => panic!("unexpected failure for {op:?}: {e}"),
        }
        scn.ledger.check_consistency().expect("consistent");
    }
    outcomes
}

/// The per-receiver ack attribution of a table's audit history: one
/// `(position, sender)` per attributed receiver ack, in chain order.
///
/// Legacy mode attributes receivers through their own `ack_update`
/// transactions; aggregated mode through the expansion of the wave's
/// single `ack_update_aggregate` (whose *first* entry is the submitting
/// updater, skipped here — it is bookkeeping, not a receiver ack).
fn ack_attributions(scn: &Fig1Scenario, table: &str) -> Vec<BTreeSet<String>> {
    let mut waves: Vec<BTreeSet<String>> = Vec::new();
    let mut seen_aggregates = BTreeSet::new();
    for e in scn.ledger.audit(table) {
        match e.method.as_deref() {
            Some("request_update") => waves.push(BTreeSet::new()),
            Some("ack_update") => {
                waves
                    .last_mut()
                    .expect("ack before any request")
                    .insert(e.sender.0.to_hex());
            }
            Some("ack_update_aggregate") => {
                // First entry per aggregate tx is the submitter.
                if seen_aggregates.insert(e.tx_id) {
                    continue;
                }
                waves
                    .last_mut()
                    .expect("ack before any request")
                    .insert(e.sender.0.to_hex());
            }
            _ => {}
        }
    }
    waves
}

proptest! {
    // Few cases: each runs eight whole simulated deployments through
    // multiple consensus rounds. The share-verification / dissent logic
    // is separately unit-tested in the contract and core crates.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn aggregated_and_legacy_ack_waves_end_equivalent(
        script in proptest::collection::vec(arb_op(), 1..4)
    ) {
        for mode in [PropagationMode::Delta, PropagationMode::FullTable] {
            for shards in [1usize, 8] {
                let mut legacy_scn = build(mode, shards, false, "ack-equiv");
                let legacy_outcomes = run_script(&mut legacy_scn, &script);

                let mut agg_scn = build(mode, shards, true, "ack-equiv");
                let agg_outcomes = run_script(&mut agg_scn, &script);

                // Same op-level outcomes (success/denial/no-change and
                // committed versions).
                prop_assert_eq!(&agg_outcomes, &legacy_outcomes);

                // Every peer's tables and database fingerprint agree.
                let pairs = [
                    (legacy_scn.patient, agg_scn.patient),
                    (legacy_scn.doctor, agg_scn.doctor),
                    (legacy_scn.researcher, agg_scn.researcher),
                ];
                for (l_peer, a_peer) in pairs {
                    let l_reader = legacy_scn.ledger.reader(l_peer);
                    let a_reader = agg_scn.ledger.reader(a_peer);
                    for table in l_reader.shares().expect("shares") {
                        prop_assert_eq!(
                            l_reader.read(&table).expect("read").content_hash(),
                            a_reader.read(&table).expect("read").content_hash()
                        );
                    }
                    let l_fp =
                        legacy_scn.ledger.system().peer(l_peer).expect("peer").fingerprint();
                    let a_fp =
                        agg_scn.ledger.system().peer(a_peer).expect("peer").fingerprint();
                    prop_assert_eq!(l_fp, a_fp);
                }

                // Contract-committed hashes/versions agree, the barrier is
                // open in both, and every wave attributes the same
                // receiver set — via R `ack_update`s on one side, via ONE
                // expanded `ack_update_aggregate` on the other.
                for table in [SHARE_PD, SHARE_RD] {
                    let l_meta = legacy_scn.ledger.share_meta(table).expect("meta");
                    let a_meta = agg_scn.ledger.share_meta(table).expect("meta");
                    prop_assert_eq!(l_meta.content_hash, a_meta.content_hash);
                    prop_assert_eq!(l_meta.version, a_meta.version);
                    prop_assert_eq!(l_meta.synced(), a_meta.synced());
                    prop_assert_eq!(
                        ack_attributions(&legacy_scn, table),
                        ack_attributions(&agg_scn, table)
                    );
                    // The chain-cost win: per committed wave, the
                    // aggregated deployment carries exactly one ack
                    // transaction regardless of the receiver count.
                    let agg_ack_txs: BTreeSet<_> = agg_scn
                        .ledger
                        .audit(table)
                        .iter()
                        .filter(|e| e.method.as_deref() == Some("ack_update_aggregate"))
                        .map(|e| e.tx_id)
                        .collect();
                    prop_assert_eq!(agg_ack_txs.len() as u64, a_meta.version);
                }
            }
        }
    }
}
