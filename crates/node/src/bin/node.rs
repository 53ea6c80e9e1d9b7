//! The `node` binary: boots a deployment from a durable store, serves
//! the gateway front door, runs a small multi-session workload against
//! it, and drains cleanly on shutdown.
//!
//! Usage:
//!
//! ```text
//! node [--data DIR] [--threads N] [--sessions N] [--updates N]
//! ```
//!
//! On a fresh `--data` directory the Fig. 1 scenario (Patient / Doctor /
//! Researcher sharing medical records) is bootstrapped; on an existing
//! one the previous deployment is *recovered* — logged WAL records
//! replayed onto the snapshot the newest flush names, Merkle subroots
//! re-verified — and the gateway resumes with wave numbering continuing
//! where it left off.

use std::process::ExitCode;

use medledger_core::scenario::{self, SHARE_PD};
use medledger_core::MedLedger;
use medledger_engine::LedgerService;
use medledger_node::wire::WireWrite;
use medledger_node::{Deployment, GatewayConfig, SubmitReply};
use medledger_relational::{Value, WriteOp};
use medledger_telemetry::{Recorder, Registry};

struct Args {
    data: String,
    threads: usize,
    sessions: usize,
    updates: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data: "medledger-node-data".into(),
        threads: 2,
        sessions: 4,
        updates: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} expects a value"));
        match flag.as_str() {
            "--data" => args.data = take("--data")?,
            "--threads" => {
                args.threads = take("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--sessions" => {
                args.sessions = take("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--updates" => {
                args.updates = take("--updates")?
                    .parse()
                    .map_err(|e| format!("--updates: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: node [--data DIR] [--threads N] [--sessions N] [--updates N]".into(),
                )
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    // Boot (or recover) the durable ledger.
    let ledger = MedLedger::builder()
        .seed("node-boot")
        .durable(&args.data)
        .build()
        .map_err(|e| format!("boot failed: {e}"))?;
    let fresh = ledger.peers().is_empty();
    let ledger = if fresh {
        println!(
            "node: fresh store at `{}`, bootstrapping Fig. 1 scenario",
            args.data
        );
        scenario::populate(ledger)
            .map_err(|e| format!("bootstrap failed: {e}"))?
            .ledger
    } else {
        println!(
            "node: recovered deployment from `{}` ({} peers, {} blocks)",
            args.data,
            ledger.peers().len(),
            ledger.stats().blocks
        );
        ledger
    };
    let boot_mark = ledger.stats().blocks;
    let peers = ledger.peers().len();

    // Serve the gateway with live telemetry: a shared registry the
    // deployment records into, drained by a periodic printer thread.
    let registry = Registry::shared();
    let recorder = Recorder::new(&registry);
    let service = LedgerService::new(ledger);
    let dep = Deployment::start(
        service,
        GatewayConfig::default()
            .threads(args.threads)
            .recorder(recorder),
    )
    .map_err(|e| format!("deployment failed: {e}"))?;
    println!(
        "node: gateway up — {} executor threads, {} peers",
        args.threads, peers
    );

    // Periodic snapshot line (wave-phase p50/p95, chain counters, apply
    // heat) until the workload finishes. A dropped sender stops the
    // printer — no atomics, no polling protocol.
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let printer = std::thread::spawn({
        let registry = registry.clone();
        move || loop {
            match stop_rx.recv_timeout(std::time::Duration::from_millis(500)) {
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    let snap = registry.snapshot();
                    if !snap.is_empty() {
                        println!("telemetry: {}", snap.render_line());
                    }
                }
                _ => return,
            }
        }
    });

    // A small concurrent workload: `sessions` clients alternate Doctor
    // dosage updates and Patient clinical notes on the shared record.
    // Values carry the boot mark so re-runs against the same store
    // write fresh data instead of no-ops.
    let mut workers = Vec::new();
    for s in 0..args.sessions {
        let mut client = dep.connect();
        let updates = args.updates;
        workers.push(dep.spawn(async move {
            let mut committed = 0u64;
            let mut retried = 0u64;
            for u in 0..updates {
                let n = s * updates + u;
                let (peer, attr, value) = if n.is_multiple_of(2) {
                    ("Doctor", "dosage", format!("{}.{n} mg", boot_mark))
                } else {
                    ("Patient", "clinical_data", format!("note {boot_mark}.{n}"))
                };
                let op = WriteOp::Update {
                    key: vec![Value::Int(188)],
                    assignments: vec![(attr.into(), Value::text(value))],
                };
                let ticket = loop {
                    match client
                        .submit(peer, SHARE_PD, vec![WireWrite::Shared(op.clone())])
                        .await
                    {
                        Ok(SubmitReply::Accepted { ticket }) => break Some(ticket),
                        Ok(SubmitReply::Overloaded { .. }) => retried += 1,
                        Ok(SubmitReply::Rejected(rej)) => {
                            eprintln!("session {s}: rejected: {rej}");
                            break None;
                        }
                        Err(e) => {
                            eprintln!("session {s}: wire error: {e}");
                            break None;
                        }
                    }
                };
                let Some(ticket) = ticket else { continue };
                match client.wait(ticket).await {
                    Ok(Ok(_)) => committed += 1,
                    Ok(Err(rej)) => eprintln!("session {s}: update rejected: {rej}"),
                    Err(e) => eprintln!("session {s}: wait failed: {e}"),
                }
            }
            let _ = client.close().await;
            (committed, retried)
        }));
    }
    let mut committed = 0u64;
    let mut retried = 0u64;
    for w in workers {
        let (c, r) = dep.block_on(w);
        committed += c;
        retried += r;
    }

    drop(stop_tx);
    let _ = printer.join();

    let stats = dep.stats();
    let wire_bytes = dep.wire_bytes();
    println!(
        "node: {} commits over {} waves ({} sessions peak, {} overload retries, {} wire bytes)",
        committed, stats.waves, stats.sessions_peak, retried, wire_bytes
    );
    // The full registry rendering — same `Snapshot` type the bench
    // `report` binary consumes.
    print!("{}", registry.snapshot().render_text());

    // Orderly drain: outstanding waves run, then durable state flushes.
    dep.close().map_err(|e| format!("close failed: {e}"))?;
    println!("node: drained and closed cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
