//! Gateway acceptance: N concurrent client sessions through the
//! async multi-node runtime are **byte-identical** (receipts, database
//! fingerprints, committed table hashes, chain shape) to the same
//! submissions through a serial `LedgerService`, for any executor
//! thread count; plus backpressure (`Overloaded` + successful retry)
//! and a shutdown drain of in-flight tickets.

#![allow(clippy::result_large_err)]

use medledger_bx::LensSpec;
use medledger_core::{ConsensusKind, MedLedger, PeerId};
use medledger_engine::LedgerService;
use medledger_node::wire::{WireCommit, WireReject, WireWrite};
use medledger_node::{Deployment, GatewayConfig, SubmitReply};
use medledger_relational::{row, Column, Schema, Table, Value, ValueType, WriteOp};
use medledger_storage::Encode;
use proptest::prelude::*;

const WARD: &str = "ward";

// ---------------------------------------------------------------------
// Scenario: Doctor and Patient share `ward` (Fig. 3 writer split:
// doctor writes `dosage`, patient writes `clinical`).
// ---------------------------------------------------------------------

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

fn clinic(seed: &str) -> (LedgerService, PeerId, PeerId) {
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
    (LedgerService::new(ledger), doctor, patient)
}

/// One planned submission: which peer writes which attr on which key.
#[derive(Clone, Debug)]
struct PlannedWrite {
    doctor: bool,
    key: i64,
    value: String,
}

impl PlannedWrite {
    fn attr(&self) -> &'static str {
        if self.doctor {
            "dosage"
        } else {
            "clinical"
        }
    }

    fn op(&self) -> WriteOp {
        WriteOp::Update {
            key: vec![Value::Int(self.key)],
            assignments: vec![(self.attr().into(), Value::text(self.value.clone()))],
        }
    }
}

/// `plan[i]` submits before `plan[i+1]`; `pump_after[i]` runs a wave
/// right after submission `i`. A trailing drain resolves the rest.
#[derive(Clone, Debug)]
struct Plan {
    writes: Vec<PlannedWrite>,
    pump_after: Vec<bool>,
}

/// What one run produces, all in comparable (encoded) form.
#[derive(Debug, PartialEq)]
struct RunDigest {
    /// Per submission: Ok(encoded receipts ++ version) or Err(kind+reason).
    outcomes: Vec<Result<(Vec<u8>, u64), String>>,
    waves: u64,
    blocks: u64,
    /// Per peer (account order): database fingerprint.
    fingerprints: Vec<String>,
    /// Per peer: committed hash of the shared table.
    committed: Vec<String>,
}

fn digest_state(service: &LedgerService) -> (u64, Vec<String>, Vec<String>) {
    let ledger = service.ledger();
    let blocks = ledger.stats().blocks;
    let mut fingerprints = Vec::new();
    let mut committed = Vec::new();
    for id in ledger.peers() {
        let peer = ledger.system().peer(id).expect("peer attached");
        fingerprints.push(format!("{:?}", peer.fingerprint()));
        committed.push(format!("{:?}", peer.committed_hash(WARD)));
    }
    (blocks, fingerprints, committed)
}

/// The baseline: same plan, straight through a serial `LedgerService`.
fn run_serial(seed: &str, plan: &Plan) -> RunDigest {
    let (mut service, doctor, patient) = clinic(seed);
    let mut tickets = Vec::new();
    for (i, w) in plan.writes.iter().enumerate() {
        let peer = if w.doctor { doctor } else { patient };
        let ticket = service
            .submit(peer, WARD)
            .write(w.op())
            .submit()
            .expect("serial submit");
        tickets.push(ticket);
        if plan.pump_after[i] {
            service.tick().expect("serial wave");
        }
    }
    service.drain().expect("serial drain");
    let outcomes = tickets
        .into_iter()
        .map(|t| {
            service
                .take(t)
                .expect("resolved")
                .map(|o| {
                    let mut bytes = Vec::new();
                    for r in &o.receipts {
                        r.encode_into(&mut bytes);
                    }
                    (bytes, o.version())
                })
                .map_err(|e| {
                    format!("{e:?}")
                        .split('{')
                        .next()
                        .unwrap_or("")
                        .trim()
                        .to_string()
                })
        })
        .collect();
    let waves = service.waves();
    let (blocks, fingerprints, committed) = digest_state(&service);
    RunDigest {
        outcomes,
        waves,
        blocks,
        fingerprints,
        committed,
    }
}

fn encode_wire_outcome(result: &Result<WireCommit, WireReject>) -> Result<(Vec<u8>, u64), String> {
    match result {
        Ok(c) => {
            let mut bytes = Vec::new();
            for r in &c.receipts {
                r.encode_into(&mut bytes);
            }
            Ok((bytes, c.version))
        }
        Err(rej) => Err(format!("{:?}", rej.kind)),
    }
}

/// The same plan through the gateway: one client session per
/// submission, arrival order pinned by the submit/Accepted turnstile,
/// waves driven manually at the same boundaries.
fn run_gateway(seed: &str, plan: &Plan, threads: usize) -> RunDigest {
    let (service, _, _) = clinic(seed);
    let dep = Deployment::start(
        service,
        GatewayConfig::default().threads(threads).manual_pump(),
    )
    .expect("deployment starts");

    let mut clients = Vec::new();
    let mut tickets = Vec::new();
    for (i, w) in plan.writes.iter().enumerate() {
        let mut client = dep.connect();
        let peer = if w.doctor { "Doctor" } else { "Patient" };
        let reply = dep
            .block_on(client.submit(peer, WARD, vec![WireWrite::Shared(w.op())]))
            .expect("gateway submit");
        let SubmitReply::Accepted { ticket } = reply else {
            panic!("submission {i} not accepted: {reply:?}");
        };
        clients.push(client);
        tickets.push(ticket);
        if plan.pump_after[i] {
            dep.pump().expect("gateway wave");
        }
    }
    // Event-driven waits: all sessions park concurrently; draining
    // pumps resolve them.
    let waiters: Vec<_> = clients
        .into_iter()
        .zip(tickets)
        .map(|(mut client, ticket)| dep.spawn(async move { client.wait(ticket).await }))
        .collect();
    while dep.pump().expect("drain wave").members > 0 {}
    let outcomes = waiters
        .into_iter()
        .map(|w| encode_wire_outcome(&dep.block_on(w).expect("wait succeeds")))
        .collect();

    let stats = dep.stats();
    let service = dep.shutdown().expect("shutdown returns service");
    assert!(!service.has_work(), "shutdown drained everything");
    let waves = service.waves();
    assert_eq!(stats.waves, waves);
    let (blocks, fingerprints, committed) = digest_state(&service);
    RunDigest {
        outcomes,
        waves,
        blocks,
        fingerprints,
        committed,
    }
}

fn fixed_plan() -> Plan {
    let writes = vec![
        PlannedWrite {
            doctor: true,
            key: 1,
            value: "20 mg".into(),
        },
        PlannedWrite {
            doctor: false,
            key: 1,
            value: "improving".into(),
        },
        PlannedWrite {
            doctor: true,
            key: 2,
            value: "5 mg".into(),
        },
        PlannedWrite {
            doctor: false,
            key: 3,
            value: "worsening".into(),
        },
        PlannedWrite {
            doctor: true,
            key: 3,
            value: "40 mg".into(),
        },
        PlannedWrite {
            doctor: false,
            key: 2,
            value: "stable".into(),
        },
    ];
    let pump_after = vec![false, false, true, false, false, false];
    Plan { writes, pump_after }
}

#[test]
fn gateway_sessions_match_serial_waves_byte_for_byte() {
    let plan = fixed_plan();
    let serial = run_serial("gw-equiv", &plan);
    for threads in [1, 4] {
        let gateway = run_gateway("gw-equiv", &plan, threads);
        assert_eq!(
            gateway, serial,
            "gateway ({threads} threads) diverged from serial"
        );
    }
}

#[test]
fn peer_loops_own_state_and_see_wave_notifications() {
    let plan = fixed_plan();
    let (service, _, _) = clinic("gw-telemetry");
    let dep = Deployment::start(service, GatewayConfig::default().manual_pump())
        .expect("deployment starts");
    let mut client = dep.connect();
    for w in &plan.writes {
        let peer = if w.doctor { "Doctor" } else { "Patient" };
        let reply = dep
            .block_on(client.submit(peer, WARD, vec![WireWrite::Shared(w.op())]))
            .expect("submit");
        assert!(matches!(reply, SubmitReply::Accepted { .. }));
    }
    let report = dep.pump().expect("wave");
    assert!(report.members > 0);
    let waves = report.wave;
    // `pump` returns once the wave's frames are *sent*; the peer loops may
    // still be reading them. A loop reads its frames in the order they were
    // sent and the check-in is the last of a wave, so a peer whose check-ins
    // have caught up has counted everything before them. Bounded wait.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while dep.telemetry().iter().any(|(_, c)| c.checkins < waves)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for (name, counts) in dep.telemetry() {
        assert_eq!(
            counts.checkouts, waves,
            "peer `{name}` was gathered for every wave"
        );
        assert_eq!(counts.checkins, waves, "and returned after each");
        assert_eq!(counts.consensus_sealed, waves);
        assert_eq!(counts.acks_sealed, waves);
        assert!(
            counts.fan_outs > 0,
            "peer `{name}` saw the committed update fan out"
        );
    }
    dep.shutdown().expect("shutdown");
}

#[test]
fn admission_queue_overloads_then_recovers() {
    let (service, _, _) = clinic("gw-backpressure");
    let dep = Deployment::start(
        service,
        GatewayConfig::default()
            .queue_depth(2)
            .retry_after_ms(7)
            .manual_pump(),
    )
    .expect("deployment starts");
    let mut client = dep.connect();

    let submit = |client: &mut medledger_node::GatewayClient, key: i64, value: &str| {
        let op = WriteOp::Update {
            key: vec![Value::Int(key)],
            assignments: vec![("dosage".into(), Value::text(value))],
        };
        dep.block_on(client.submit("Doctor", WARD, vec![WireWrite::Shared(op)]))
            .expect("submit")
    };

    let mut tickets = Vec::new();
    for key in [1i64, 2] {
        match submit(&mut client, key, "20 mg") {
            SubmitReply::Accepted { ticket } => tickets.push(ticket),
            other => panic!("expected admission, got {other:?}"),
        }
    }
    // Queue full: typed rejection with the configured retry hint.
    match submit(&mut client, 3, "30 mg") {
        SubmitReply::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 7),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // A wave drains the queue; the retry is admitted.
    dep.pump().expect("wave");
    match submit(&mut client, 3, "30 mg") {
        SubmitReply::Accepted { ticket } => tickets.push(ticket),
        other => panic!("retry should be admitted, got {other:?}"),
    }
    dep.pump().expect("wave");
    for ticket in tickets {
        let outcome = dep.block_on(client.wait(ticket)).expect("wait");
        assert!(outcome.is_ok(), "commit failed: {outcome:?}");
    }
    let stats = dep.stats();
    assert_eq!(stats.overloaded, 1);
    assert_eq!(stats.submissions, 3);
    assert_eq!(stats.queue_high_water, 2);
    dep.shutdown().expect("shutdown");
}

#[test]
fn shutdown_drains_in_flight_tickets() {
    let (service, _, _) = clinic("gw-shutdown");
    let dep = Deployment::start(service, GatewayConfig::default().manual_pump())
        .expect("deployment starts");

    // Two sessions submit and park on their tickets; nothing has been
    // pumped when shutdown begins.
    let mut waiters = Vec::new();
    for (peer, attr, value) in [
        ("Doctor", "dosage", "20 mg"),
        ("Patient", "clinical", "improving"),
    ] {
        let mut client = dep.connect();
        let op = WriteOp::Update {
            key: vec![Value::Int(1)],
            assignments: vec![(attr.into(), Value::text(value))],
        };
        let reply = dep
            .block_on(client.submit(peer, WARD, vec![WireWrite::Shared(op)]))
            .expect("submit");
        let SubmitReply::Accepted { ticket } = reply else {
            panic!("not accepted: {reply:?}");
        };
        waiters.push(dep.spawn(async move { client.wait(ticket).await }));
    }

    let service = dep.shutdown().expect("shutdown drains");
    assert!(!service.has_work());
    assert_eq!(service.waves(), 1, "the drain ran the queued wave");
    for mut w in waiters {
        let outcome = w
            .try_join()
            .expect("waiter finished before the executor stopped")
            .expect("wire ok");
        assert!(outcome.is_ok(), "in-flight ticket failed: {outcome:?}");
    }
}

// ---------------------------------------------------------------------
// Property: arbitrary plans, serial vs gateway at 1 and 4 threads.
// ---------------------------------------------------------------------

fn arb_write() -> impl Strategy<Value = PlannedWrite> {
    const VALUES: [&str; 4] = ["a", "bb", "ccc", "dddd"];
    (any::<bool>(), 1..4i64, 0..VALUES.len()).prop_map(|(doctor, key, v)| PlannedWrite {
        doctor,
        key,
        value: VALUES[v].to_string(),
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    proptest::collection::vec((arb_write(), any::<bool>()), 1..8).prop_map(|steps| {
        let (writes, pump_after): (Vec<_>, Vec<_>) = steps.into_iter().unzip();
        Plan { writes, pump_after }
    })
}

proptest! {
    // Few cases: each runs three whole deployments (serial + two
    // threaded gateways) through multiple waves.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn gateway_is_deterministic_for_any_thread_count(plan in arb_plan()) {
        let serial = run_serial("gw-prop", &plan);
        for threads in [1usize, 4] {
            let gateway = run_gateway("gw-prop", &plan, threads);
            prop_assert!(
                gateway == serial,
                "gateway ({} threads) diverged from serial: {:?} vs {:?}",
                threads,
                gateway,
                serial
            );
        }
    }
}
