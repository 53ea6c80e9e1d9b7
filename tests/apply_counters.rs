//! The per-table apply counters, pinned on every path a delta takes into
//! a peer's stored copy of a shared table.
//!
//! `store.applied_rows.<table>` and `store.applied_bytes.<table>` add up
//! `row_count()` and `encoded_size()` of each delta applied to a stored
//! copy of `<table>`, on any peer. The Fig. 1 world runs one script:
//!
//! 1. the Doctor commits a dosage change: a local write, then the
//!    committed remote delta on the Patient;
//! 2. the Patient's write of the same cell is denied: a local write and
//!    its rollback;
//! 3. the Doctor renames a medication: the research share changes on the
//!    Doctor's side and its Step-6 cascade reaches the Researcher;
//! 4. a remote delta whose announced hash is wrong reaches the Patient:
//!    applied, found not to match, and reverted.
//!
//! The constants are what the apply heat map these counters replaced
//! read at its `(table, 0)` cells after each step of the same script. A failure here means an apply path stopped counting, or
//! counts twice — never "update the constants".

use medledger::core::scenario::{self, SHARE_PD, SHARE_RD};
use medledger::crypto::Hash256;
use medledger::relational::TableDelta;
use medledger::telemetry::{Recorder, Registry};
use medledger::{ConsensusKind, SystemConfig, Value};

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

/// `(rows, bytes)` applied so far to the stored copies of each of the
/// two Fig. 1 shares: the patient share, then the research share.
type Applied = [(u64, u64); 2];

fn applied(registry: &Registry) -> Applied {
    let snap = registry.snapshot();
    [SHARE_PD, SHARE_RD].map(|table| {
        let read = |metric: &str| snap.counter(&format!("{metric}.{table}")).unwrap_or(0);
        (read("store.applied_rows"), read("store.applied_bytes"))
    })
}

#[test]
fn every_apply_path_counts_rows_and_bytes_per_table() {
    let mut scn = scenario::build(config("apply-counters")).expect("build");
    let registry = Registry::shared();
    scn.ledger.set_recorder(Recorder::new(&registry));
    let (patient, doctor, researcher) = (scn.patient, scn.doctor, scn.researcher);
    assert_eq!(
        applied(&registry),
        [(0, 0), (0, 0)],
        "joining counts nothing"
    );

    // 1. Local write on the Doctor, committed remote delta on the Patient.
    scn.ledger
        .session(doctor)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "dosage",
            Value::text("half a tablet"),
        )
        .commit()
        .expect("doctor commit");
    assert_eq!(applied(&registry), [(2, 178), (0, 0)], "commit");

    // 2. The Patient may not write the dosage: write, then rollback.
    let err = scn
        .ledger
        .session(patient)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "dosage",
            Value::text("self-medicating"),
        )
        .commit()
        .unwrap_err();
    assert!(err.is_permission_denied(), "{err}");
    assert_eq!(applied(&registry), [(4, 358), (0, 0)], "rollback");

    // 3. A rename on the patient share cascades into the research share.
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
        .expect("cascading commit");
    assert_eq!(outcome.cascades().len(), 1, "{}", outcome.trace.render());
    assert_eq!(applied(&registry), [(6, 542), (4, 140)], "cascade");

    // 4. A delta announced under the wrong hash: applied, then reverted.
    let stored = scn.ledger.reader(patient).read(SHARE_PD).expect("read");
    let mut row = stored.get(&[Value::Int(188)]).expect("row 188").clone();
    *row.get_mut(3).expect("dosage cell") = Value::text("tampered");
    let delta = TableDelta {
        updates: vec![(vec![Value::Int(188)], row)],
        ..TableDelta::default()
    };
    let refused = scn
        .ledger
        .system_mut()
        .peer_mut(patient)
        .expect("patient")
        .apply_remote_delta(SHARE_PD, &delta, &TableDelta::default(), Hash256::ZERO, 9);
    assert!(refused.is_err(), "a hash mismatch is refused");
    assert_eq!(
        scn.ledger.reader(patient).read(SHARE_PD).expect("read"),
        stored,
        "the refused delta left the stored copy as it was"
    );
    assert_eq!(applied(&registry), [(8, 721), (4, 140)], "revert");
    scn.ledger.check_consistency().expect("consistent");
}
