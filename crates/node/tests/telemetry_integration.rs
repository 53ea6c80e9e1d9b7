//! Telemetry acceptance through the gateway: a deployment with a live
//! [`Recorder`] must feed the registry consistently — every Fig. 5
//! phase histogram records exactly once per wave, phase timings are
//! monotone and sum-consistent against the wave total, and the `stats`
//! wire message ships the same registry snapshot as JSON.

#![allow(clippy::result_large_err)]

use medledger_bx::LensSpec;
use medledger_core::{ConsensusKind, MedLedger};
use medledger_engine::LedgerService;
use medledger_node::wire::WireWrite;
use medledger_node::{Deployment, GatewayConfig, SubmitReply};
use medledger_relational::{row, Column, Schema, Table, Value, ValueType, WriteOp};
use medledger_telemetry::{Recorder, Registry, Snapshot};

const WARD: &str = "ward";

/// The Fig. 5 pipeline stages, in wave order.
const PHASES: [&str; 7] = [
    "screen",
    "prepare",
    "consensus",
    "fanout",
    "ack",
    "cascade",
    "flush",
];

fn clinic(seed: &str) -> LedgerService {
    let schema = Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
            Column::new("clinical", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema");
    let mut table = Table::new(schema);
    for pid in 1..=3i64 {
        table.insert(row![pid, "10 mg", "stable"]).expect("seed");
    }
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
        .load_source("D-ward", table.clone())
        .expect("doctor source");
    ledger
        .session(patient)
        .load_source("P-ward", table)
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
    LedgerService::new(ledger)
}

/// Runs `writes` through a recorder-equipped manual-pump deployment,
/// one wave per `pump_after = true` boundary plus a trailing drain,
/// and returns the registry snapshot with the number of waves pumped.
fn pumped_snapshot(seed: &str, registry: &std::sync::Arc<Registry>) -> (Snapshot, u64) {
    let dep = Deployment::start(
        clinic(seed),
        GatewayConfig::default()
            .manual_pump()
            .recorder(Recorder::new(registry)),
    )
    .expect("deployment starts");
    let writes: [(&str, &str, i64, &str, bool); 6] = [
        ("Doctor", "dosage", 1, "20 mg", false),
        ("Patient", "clinical", 1, "improving", true),
        ("Doctor", "dosage", 2, "5 mg", false),
        ("Patient", "clinical", 3, "worsening", true),
        ("Doctor", "dosage", 3, "40 mg", false),
        ("Patient", "clinical", 2, "recovering", false),
    ];
    let mut waiters = Vec::new();
    for (peer, attr, key, value, pump) in writes {
        let mut client = dep.connect();
        let op = WriteOp::Update {
            key: vec![Value::Int(key)],
            assignments: vec![(attr.into(), Value::text(value))],
        };
        let reply = dep
            .block_on(client.submit(peer, WARD, vec![WireWrite::Shared(op)]))
            .expect("submit");
        let SubmitReply::Accepted { ticket } = reply else {
            panic!("not accepted: {reply:?}");
        };
        waiters.push(dep.spawn(async move { client.wait(ticket).await }));
        if pump {
            dep.pump().expect("wave");
        }
    }
    while dep.pump().expect("drain wave").members > 0 {}
    for w in waiters {
        let outcome = dep.block_on(w).expect("wire ok");
        assert!(outcome.is_ok(), "commit failed: {outcome:?}");
    }
    let stats = dep.stats();
    dep.shutdown().expect("shutdown");
    (registry.snapshot(), stats.waves)
}

#[test]
fn wave_phase_timings_are_monotone_and_sum_consistent() {
    let registry = Registry::shared();
    let (snap, waves) = pumped_snapshot("tel-waves", &registry);
    assert!(waves >= 3, "plan pumps at least three waves, got {waves}");
    assert_eq!(
        snap.counter("chain.waves"),
        Some(waves),
        "chain.waves counts exactly the pumped waves"
    );

    let total = snap
        .histogram("wave.total_us")
        .expect("wave total histogram fed");
    assert_eq!(total.count, waves, "one total per wave");

    let mut phase_sum = 0u64;
    for phase in PHASES {
        let name = format!("wave.phase.{phase}_us");
        let h = snap.histogram(&name).expect("phase histogram fed");
        assert_eq!(h.count, waves, "`{name}` records exactly once per wave");
        // Percentile estimates are monotone in the quantile and pinned
        // to the observed envelope.
        assert!(h.min <= h.p50, "`{name}` p50 under min");
        assert!(
            h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max,
            "`{name}` percentiles must be monotone: {h:?}"
        );
        // Each stage interval is a sub-interval of its wave, so the
        // hottest stage observation can never exceed the hottest total.
        assert!(
            h.max <= total.max,
            "`{name}` max {} exceeds wave total max {}",
            h.max,
            total.max
        );
        phase_sum += h.sum;
    }
    // The stages partition each wave's [start, finish) into disjoint
    // intervals, and per-stage floor-to-µs rounding only loses time — so
    // the summed stage time never exceeds the summed totals.
    assert!(
        phase_sum <= total.sum,
        "phase time {phase_sum}µs exceeds wave total {}µs",
        total.sum
    );

    // Wave composition histograms agree with the chain counters.
    for (hist, counter) in [
        ("wave.blocks", "chain.blocks"),
        ("wave.txs", "chain.txs"),
        ("wave.p2p_bytes", "chain.p2p_bytes"),
    ] {
        let h = snap.histogram(hist).expect("composition histogram fed");
        assert_eq!(h.count, waves, "`{hist}` records once per wave");
        assert_eq!(
            Some(h.sum),
            snap.counter(counter),
            "`{hist}` must sum to `{counter}`"
        );
    }
}

#[test]
fn stats_wire_message_ships_the_registry_snapshot() {
    let registry = Registry::shared();
    let dep = Deployment::start(
        clinic("tel-stats"),
        GatewayConfig::default()
            .manual_pump()
            .recorder(Recorder::new(&registry)),
    )
    .expect("deployment starts");
    let mut client = dep.connect();
    let op = WriteOp::Update {
        key: vec![Value::Int(1)],
        assignments: vec![("dosage".into(), Value::text("20 mg"))],
    };
    let reply = dep
        .block_on(client.submit("Doctor", WARD, vec![WireWrite::Shared(op)]))
        .expect("submit");
    let SubmitReply::Accepted { ticket } = reply else {
        panic!("not accepted: {reply:?}");
    };
    dep.pump().expect("wave");
    let outcome = dep.block_on(client.wait(ticket)).expect("wait");
    assert!(outcome.is_ok(), "commit failed: {outcome:?}");

    let json = dep.block_on(client.stats()).expect("stats reply");
    for needle in [
        "\"submissions\":1",
        "\"registry\":",
        "\"chain.waves\":1",
        "wave.total_us",
        "gateway.ticket_wait_us",
    ] {
        assert!(
            json.contains(needle),
            "stats JSON must carry {needle}, got: {json}"
        );
    }
    // The shipped registry rendering is the same snapshot the local
    // handle sees.
    assert!(
        json.contains(&registry.snapshot().render_json()),
        "wire stats must embed the registry's own render_json"
    );

    let snap = registry.snapshot();
    let wait = snap
        .histogram("gateway.ticket_wait_us")
        .expect("ticket wait histogram fed");
    assert_eq!(wait.count, 1, "one resolved ticket, one wait sample");
    assert_eq!(snap.counter("gateway.submissions"), Some(1));
    assert_eq!(snap.counter("gateway.resolved"), Some(1));
    dep.shutdown().expect("shutdown");
}
