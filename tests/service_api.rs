//! The ticketed commit pipeline against the paper's Fig. 1 scenario:
//! cascade re-entry into the next wave, parity with the blocking facade,
//! and wave-attributed blocks.

use medledger::core::scenario::{self, SHARE_PD, SHARE_RD};
use medledger::engine::LedgerService;
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

/// The facade's Step-6 cascade scenario, run through the service: the
/// Doctor's medication rename on the patient share commits in wave 1;
/// the cascade into the research share is detected, re-entered, and
/// commits in wave 2 — ending in the exact state the inline (blocking)
/// facade path produces.
#[test]
fn cascade_reenters_the_next_wave() {
    // Inline reference run.
    let mut inline = scenario::build(config("svc-cascade")).expect("build");
    let (doctor_i, researcher_i) = (inline.doctor, inline.researcher);
    inline
        .ledger
        .session(researcher_i)
        .grant(SHARE_RD, "mechanism_of_action", &[doctor_i, researcher_i])
        .expect("grant");
    let inline_outcome = inline
        .ledger
        .session(doctor_i)
        .begin(SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "medication_name",
            Value::text("Ibuprofen-XR"),
        )
        .commit()
        .expect("inline commit");
    assert_eq!(inline_outcome.cascades().len(), 1);

    // Pipelined run (same seed → same accounts → comparable state).
    let scn = scenario::build(config("svc-cascade")).expect("build");
    let (doctor, researcher, patient) = (scn.doctor, scn.researcher, scn.patient);
    let mut service = LedgerService::new(scn.ledger);
    service
        .ledger_mut()
        .session(researcher)
        .grant(SHARE_RD, "mechanism_of_action", &[doctor, researcher])
        .expect("grant");

    let ticket = service
        .submit(doctor, SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "medication_name",
            Value::text("Ibuprofen-XR"),
        )
        .submit()
        .expect("submit");

    // Wave 1: the parent commits; the cascade defers instead of running
    // inline.
    let wave1 = service.tick().expect("wave 1");
    assert_eq!(wave1.members, 1);
    assert_eq!(wave1.cascades_deferred, 1);
    let outcome = service.take(ticket).expect("resolved").expect("commits");
    assert!(
        outcome.cascades().is_empty(),
        "cascade deferred, not inline"
    );
    assert!(service.has_work(), "the cascade awaits the next wave");

    // Wave 2: the cascade itself commits as a first-class member.
    let wave2 = service.tick().expect("wave 2");
    assert_eq!(wave2.members, 1);
    assert!(!service.has_work());
    assert_eq!(service.waves(), 2);
    let cascades = service.cascades();
    assert_eq!(cascades.len(), 1);
    assert_eq!(cascades[0].origin, SHARE_PD);
    assert_eq!(cascades[0].table_id, SHARE_RD);
    assert_eq!(cascades[0].wave, 2);
    let report = cascades[0].result.as_ref().expect("cascade commits");
    assert_eq!(report.table_id, SHARE_RD);

    // The rename reached the Researcher's source, as in the inline run.
    let d2 = service
        .ledger()
        .reader(researcher)
        .source("D2")
        .expect("D2");
    assert!(d2.get(&[Value::text("Ibuprofen-XR")]).is_some());
    service.ledger().check_consistency().expect("consistent");

    // Byte-identical end state to the inline reference, peer by peer.
    for (a, b) in [
        (doctor_i, doctor),
        (patient, patient),
        (researcher_i, researcher),
    ] {
        let fp_inline = format!(
            "{:?}",
            inline.ledger.system().peer(a).expect("peer").fingerprint()
        );
        let fp_service = format!(
            "{:?}",
            service
                .ledger()
                .system()
                .peer(b)
                .expect("peer")
                .fingerprint()
        );
        assert_eq!(fp_inline, fp_service);
    }

    // Every block of each wave is attributed to it.
    let chain = service.ledger().chain();
    let wave_tags: Vec<Option<u64>> = chain.blocks().iter().map(|b| b.header.wave).collect();
    assert!(wave_tags.contains(&Some(1)));
    assert!(wave_tags.contains(&Some(2)));
    // Setup blocks (contract deploy, share registration, grant) are
    // unattributed.
    assert!(wave_tags.iter().filter(|w| w.is_none()).count() >= 3);
}

/// A cascade whose permission stays denied is recorded as blocked (the
/// peer keeps its pending delta), mirroring the inline `failed_cascades`
/// semantics.
#[test]
fn blocked_cascade_is_recorded_and_retryable() {
    let scn = scenario::build(config("svc-blocked-cascade")).expect("build");
    let (doctor, researcher) = (scn.doctor, scn.researcher);
    let mut service = LedgerService::new(scn.ledger);

    // No grant: the research share's mechanism stays researcher-only, so
    // the doctor-side cascade of a medication rename is denied.
    let ticket = service
        .submit(doctor, SHARE_PD)
        .set(
            vec![Value::Int(188)],
            "medication_name",
            Value::text("Ibuprofen-XR"),
        )
        .submit()
        .expect("submit");
    service.drain().expect("drain");
    service
        .take(ticket)
        .expect("resolved")
        .expect("parent commits");

    let cascades = service.cascades();
    assert_eq!(cascades.len(), 1);
    let reason = cascades[0].result.as_ref().expect_err("cascade blocked");
    assert!(
        reason.contains("permission") || reason.contains("reverted"),
        "{reason}"
    );
    // The doctor retains the pending research-share delta for a retry
    // after a grant — and the system stays consistent meanwhile.
    service.ledger().check_consistency().expect("consistent");

    // After the grant, a doctor-side retry (pending delta only — no new
    // writes are needed, the submission rides on what Step 6 stashed)
    // drains cleanly... the retry is a fresh submission with a no-op-free
    // path: grant, then re-submit the pending change via the service.
    service
        .ledger_mut()
        .session(researcher)
        .grant(SHARE_RD, "mechanism_of_action", &[doctor, researcher])
        .expect("grant");
    let retry = service
        .submit(doctor, SHARE_RD)
        .set(
            vec![Value::text("Ibuprofen-XR")],
            "mechanism_of_action",
            Value::text("MeA1"),
        )
        .submit()
        .expect("submit retry");
    service.drain().expect("drain");
    service
        .take(retry)
        .expect("resolved")
        .expect("retry commits");
    service.ledger().check_consistency().expect("consistent");
}
