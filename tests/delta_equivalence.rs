//! Mode equivalence: delta propagation and the full-table baseline are
//! observationally identical.
//!
//! Property: for any sequence of permission-valid update batches, a
//! deployment running `PropagationMode::Delta` ends in **byte-identical**
//! peer state (per-table content hashes, whole-database fingerprints) to
//! one running `PropagationMode::FullTable` — the ISSUE 2 acceptance
//! criterion that lets the incremental pipeline replace the paper-literal
//! whole-table exchange without changing semantics.

use medledger::core::scenario::{self, Fig1Scenario, SHARE_PD, SHARE_RD};
use medledger::{ConsensusKind, PropagationMode, SystemConfig, Value};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum ScriptOp {
    /// Doctor edits patient 188's dosage through the patient share.
    DoctorDosage(u8),
    /// Patient edits its clinical data through the patient share.
    PatientClinical(u8),
    /// Researcher edits a medication's mechanism in its D2 source and
    /// commits through the research share.
    ResearcherMechanism(u8, u8),
}

fn arb_op() -> impl Strategy<Value = ScriptOp> {
    prop_oneof![
        (0u8..200).prop_map(ScriptOp::DoctorDosage),
        (0u8..200).prop_map(ScriptOp::PatientClinical),
        (0u8..2, 0u8..200).prop_map(|(m, v)| ScriptOp::ResearcherMechanism(m, v)),
    ]
}

fn build(mode: PropagationMode, seed: &str) -> Fig1Scenario {
    scenario::build(SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 50,
        },
        seed: seed.into(),
        peer_key_capacity: 256,
        propagation: mode,
        ..Default::default()
    })
    .expect("build")
}

fn run_script(scn: &mut Fig1Scenario, script: &[ScriptOp]) {
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
        };
        match result {
            Ok(_) => {}
            Err(e) if e.is_no_change() => {}
            Err(e) => panic!("unexpected failure for {op:?}: {e}"),
        }
        scn.ledger.check_consistency().expect("consistent");
    }
}

proptest! {
    // Few cases, because each runs two whole simulated deployments
    // through multiple consensus rounds; the bx-level equivalence of the
    // delta operators is separately property-tested per combinator.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn delta_and_full_table_modes_end_byte_identical(
        script in proptest::collection::vec(arb_op(), 1..4)
    ) {
        let mut delta_scn = build(PropagationMode::Delta, "mode-equiv");
        let mut full_scn = build(PropagationMode::FullTable, "mode-equiv");
        run_script(&mut delta_scn, &script);
        run_script(&mut full_scn, &script);

        // Every peer's stored copy of every shared table hashes
        // identically across modes, as does each peer's whole database
        // (sources included).
        let pairs = [
            (delta_scn.patient, full_scn.patient),
            (delta_scn.doctor, full_scn.doctor),
            (delta_scn.researcher, full_scn.researcher),
        ];
        for (d_peer, f_peer) in pairs {
            let d_reader = delta_scn.ledger.reader(d_peer);
            let f_reader = full_scn.ledger.reader(f_peer);
            for table in d_reader.shares().expect("shares") {
                let d = d_reader.read(&table).expect("read").content_hash();
                let f = f_reader.read(&table).expect("read").content_hash();
                prop_assert_eq!(d, f);
            }
            let d_fp = delta_scn.ledger.system().peer(d_peer).expect("peer").fingerprint();
            let f_fp = full_scn.ledger.system().peer(f_peer).expect("peer").fingerprint();
            prop_assert_eq!(d_fp, f_fp);
        }

        // And both match the hash the contract committed.
        for table in [SHARE_PD, SHARE_RD] {
            let d_meta = delta_scn.ledger.share_meta(table).expect("meta");
            let f_meta = full_scn.ledger.share_meta(table).expect("meta");
            prop_assert_eq!(d_meta.content_hash, f_meta.content_hash);
            prop_assert_eq!(d_meta.version, f_meta.version);
        }
    }
}
