//! Write-combining equivalence: N same-table submissions composed into
//! ONE wave by the `LedgerService` end in byte-identical peer state,
//! byte-identical committed baselines, and an equivalently attributed
//! audit trail to the same N batches committed sequentially through the
//! blocking facade.
//!
//! ("Equivalently attributed": the combined trail carries one
//! `request_update` plus one `co_request_update` per later submitter
//! instead of N `request_update`s, so the *transactions* differ by
//! design; what must match is the multiset of update authors the chain
//! records for the table.)

#![allow(clippy::result_large_err)]

use medledger_bx::LensSpec;
use medledger_core::{ConsensusKind, MedLedger, PeerId};
use medledger_engine::LedgerService;
use medledger_ledger::AccountId;
use medledger_relational::{row, Column, Schema, Table, Value, ValueType};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WARD: &str = "ward";

#[derive(Clone, Debug)]
struct Edit {
    /// False → Doctor edits `dosage`; true → Patient edits `clinical`.
    by_patient: bool,
    row: i64,
    val: u8,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (any::<bool>(), 1i64..4, 0u8..50).prop_map(|(by_patient, row, val)| Edit {
        by_patient,
        row,
        val,
    })
}

fn ward_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
            Column::new("clinical", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema");
    let mut t = Table::new(schema);
    for pid in 1..=3i64 {
        t.insert(row![pid, "10 mg", "stable"]).expect("seed");
    }
    t
}

fn build(seed: &str) -> (MedLedger, PeerId, PeerId) {
    let mut ledger = MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 50,
        })
        .peer_key_capacity(256)
        .build()
        .expect("boots");
    let doctor = ledger.add_peer("Doctor").expect("doctor");
    let patient = ledger.add_peer("Patient").expect("patient");
    let lens = LensSpec::project(&["patient_id", "dosage", "clinical"], &["patient_id"]);
    ledger
        .session(doctor)
        .load_source("D-ward", ward_table())
        .expect("source");
    ledger
        .session(patient)
        .load_source("P-ward", ward_table())
        .expect("source");
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
    (ledger, doctor, patient)
}

/// `(attr, value)` of one edit; values are indexed so no edit is ever a
/// no-op of the previous state.
fn payload(e: &Edit, i: usize) -> (&'static str, Value) {
    if e.by_patient {
        ("clinical", Value::text(format!("P{i}-{}", e.val)))
    } else {
        ("dosage", Value::text(format!("D{i}-{}", e.val)))
    }
}

/// Per-peer database fingerprints + committed baselines of the shared
/// table.
fn state_digest(ledger: &MedLedger, peers: &[PeerId]) -> Vec<String> {
    peers
        .iter()
        .map(|p| {
            let node = ledger.system().peer(*p).expect("peer");
            format!(
                "{:?}/{:?}",
                node.fingerprint(),
                node.committed_hash(WARD).expect("baseline")
            )
        })
        .collect()
}

/// Multiset of update authors the chain's audit trail records for the
/// table (senders of `request_update` and `co_request_update` entries).
fn update_authors(ledger: &MedLedger) -> BTreeMap<AccountId, usize> {
    let mut out = BTreeMap::new();
    for e in ledger.audit(WARD) {
        if matches!(
            e.method.as_deref(),
            Some("request_update") | Some("co_request_update")
        ) {
            *out.entry(e.sender).or_insert(0) += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn combined_wave_equals_sequential_commits(edits in proptest::collection::vec(arb_edit(), 1..6)) {
        // Sequential reference: one blocking facade commit per edit,
        // in submission order.
        let (mut seq, doctor, patient) = build("wc-equiv");
        for (i, e) in edits.iter().enumerate() {
            let (attr, val) = payload(e, i);
            let who = if e.by_patient { patient } else { doctor };
            seq.session(who)
                .begin(WARD)
                .set(vec![Value::Int(e.row)], attr, val)
                .commit()
                .expect("sequential commit");
        }

        // Combined: all edits submitted up front, ONE wave.
        let (ledger, doctor2, patient2) = build("wc-equiv");
        prop_assert_eq!(doctor.account(), doctor2.account());
        let mut service = LedgerService::new(ledger);
        let tickets: Vec<_> = edits
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let (attr, val) = payload(e, i);
                let who = if e.by_patient { patient2 } else { doctor2 };
                service
                    .submit(who, WARD)
                    .set(vec![Value::Int(e.row)], attr, val)
                    .submit()
                    .expect("submit")
            })
            .collect();
        let report = service.tick().expect("wave");
        prop_assert_eq!(report.members, 1);
        for t in tickets {
            service.take(t).expect("resolved").expect("combined commit");
        }
        prop_assert!(!service.has_work());

        // Byte-identical final state and committed baselines.
        let seq_digest = state_digest(&seq, &[doctor, patient]);
        let svc_digest = state_digest(service.ledger(), &[doctor2, patient2]);
        prop_assert_eq!(seq_digest, svc_digest);
        seq.check_consistency().expect("sequential consistent");
        service.ledger().check_consistency().expect("combined consistent");

        // Same update authors on the audit trail (attribution is
        // preserved through combining).
        prop_assert_eq!(update_authors(&seq), update_authors(service.ledger()));
    }
}
