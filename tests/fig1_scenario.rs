//! E1 — the paper's Fig. 1 data distribution, reproduced exactly.
//!
//! Builds the three-peer world through the typed facade and checks every
//! table of the figure cell by cell: the full records, D1 (Patient), D2
//! (Researcher), D3 (Doctor), and the shared D13/D31 and D23/D32 pairs.

use medledger::core::scenario::{self, SHARE_PD, SHARE_RD};
use medledger::workload::fig1_full_records;
use medledger::{ConsensusKind, SystemConfig, Value};

fn config() -> SystemConfig {
    SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        },
        seed: "fig1-int".into(),
        peer_key_capacity: 64,
        ..Default::default()
    }
}

#[test]
fn full_records_match_paper_cells() {
    let full = fig1_full_records();
    assert_eq!(full.len(), 2);
    let r = full.get(&[Value::Int(188)]).expect("row 188");
    let expect = [
        "Ibuprofen",
        "CliD1",
        "Sapporo",
        "one tablet every 4h",
        "MeA1",
        "MoA1",
    ];
    for (i, cell) in expect.iter().enumerate() {
        assert_eq!(r[i + 1], Value::text(*cell), "attr a{}", i + 1);
    }
    let r = full.get(&[Value::Int(189)]).expect("row 189");
    let expect = [
        "Wellbutrin",
        "CliD2",
        "Osaka",
        "100 mg twice daily",
        "MeA2",
        "MoA2",
    ];
    for (i, cell) in expect.iter().enumerate() {
        assert_eq!(r[i + 1], Value::text(*cell), "attr a{}", i + 1);
    }
}

#[test]
fn source_tables_match_paper() {
    let scn = scenario::build(config()).expect("build");

    // D1 (Patient): attributes a0-a4, only patient 188.
    let d1 = scn.ledger.reader(scn.patient).source("D1").expect("D1");
    assert_eq!(
        d1.schema().column_names(),
        vec![
            "patient_id",
            "medication_name",
            "clinical_data",
            "address",
            "dosage"
        ]
    );
    assert_eq!(d1.len(), 1);
    assert_eq!(
        d1.get(&[Value::Int(188)]).expect("row")[3],
        Value::text("Sapporo")
    );

    // D2 (Researcher): a1, a5, a6 keyed by medication.
    let d2 = scn.ledger.reader(scn.researcher).source("D2").expect("D2");
    assert_eq!(
        d2.schema().column_names(),
        vec!["medication_name", "mechanism_of_action", "mode_of_action"]
    );
    assert_eq!(d2.len(), 2);
    assert_eq!(
        d2.get(&[Value::text("Wellbutrin")]).expect("row")[2],
        Value::text("MoA2")
    );

    // D3 (Doctor): a0, a1, a2, a5, a4 for both patients.
    let d3 = scn.ledger.reader(scn.doctor).source("D3").expect("D3");
    assert_eq!(
        d3.schema().column_names(),
        vec![
            "patient_id",
            "medication_name",
            "clinical_data",
            "mechanism_of_action",
            "dosage"
        ]
    );
    assert_eq!(d3.len(), 2);
}

#[test]
fn shared_views_match_paper() {
    let scn = scenario::build(config()).expect("build");

    // D13 == D31: a0, a1, a2, a4 for patient 188 only.
    let d13 = scn
        .ledger
        .reader(scn.patient)
        .read(SHARE_PD)
        .expect("patient reads D13");
    let d31 = scn
        .ledger
        .reader(scn.doctor)
        .read(SHARE_PD)
        .expect("doctor reads D31");
    assert_eq!(d13.content_hash(), d31.content_hash());
    assert_eq!(
        d13.schema().column_names(),
        vec!["patient_id", "medication_name", "clinical_data", "dosage"]
    );
    assert_eq!(d13.len(), 1);
    assert_eq!(
        d13.get(&[Value::Int(188)]).expect("row")[3],
        Value::text("one tablet every 4h")
    );

    // D23 == D32: a1, a5 for both medications.
    let d23 = scn
        .ledger
        .reader(scn.researcher)
        .read(SHARE_RD)
        .expect("researcher reads D23");
    let d32 = scn
        .ledger
        .reader(scn.doctor)
        .read(SHARE_RD)
        .expect("doctor reads D32");
    assert_eq!(d23.content_hash(), d32.content_hash());
    assert_eq!(
        d23.schema().column_names(),
        vec!["medication_name", "mechanism_of_action"]
    );
    assert_eq!(d23.len(), 2);
    assert_eq!(
        d23.get(&[Value::text("Ibuprofen")]).expect("row")[1],
        Value::text("MeA1")
    );
}

#[test]
fn views_regenerate_from_sources_by_get() {
    // Every stored shared copy equals a fresh `get` from its source —
    // the lens definition of Fig. 1's arrows.
    let scn = scenario::build(config()).expect("build");
    for (peer, share) in [
        (scn.patient, SHARE_PD),
        (scn.doctor, SHARE_PD),
        (scn.researcher, SHARE_RD),
        (scn.doctor, SHARE_RD),
    ] {
        let node = scn.ledger.system().peer(peer).expect("peer");
        let binding = node.binding(share).expect("binding");
        let source = node.db.table(&binding.source_table).expect("source");
        let regen = medledger::bx::exec::get(&binding.lens, source).expect("get");
        let stored = node.shared_table(share).expect("stored");
        assert_eq!(
            regen.content_hash(),
            stored.content_hash(),
            "{peer}/{share}"
        );
    }
}
