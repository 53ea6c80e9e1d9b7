//! Regenerates every experiment (`e1` … `e13`; `main` below is the index).
//!
//! ```sh
//! cargo run --release -p medledger-bench --bin report          # all
//! cargo run --release -p medledger-bench --bin report -- e6    # one
//! ```
//!
//! System-level experiments render through the `medledger-telemetry`
//! registry: the report installs a [`Recorder`] on the deployments it
//! drives and prints the resulting [`Snapshot`] — the same type the
//! `node` binary prints periodically and the gateway ships over its
//! `stats` wire message — so benches and the live node share one
//! metrics vocabulary (see docs/OBSERVABILITY.md for the catalog).

use medledger_bench::baselines::storage_comparison;
use medledger_bench::{
    one_dosage_update, two_peer_system, two_peer_system_sharded, wide_projection,
};
use medledger_bx::exec::{get, put};
use medledger_bx::{check_getput, check_putget};
use medledger_consensus::{PbftConfig, PbftRound, PowModel};
use medledger_contracts::runtime::CallCtx;
use medledger_contracts::sharing::{
    AckUpdateArgs, ChangePermissionArgs, RegisterShareArgs, RequestUpdateArgs, SharingContract,
};
use medledger_contracts::ContractState;
use medledger_core::exposure::{
    all_attrs, exposure_report, paper_fine_grained_design, paper_profiles, total_interference,
    SharingDesign,
};
use medledger_core::scenario::{self, run_fig5, SHARE_PD, SHARE_RD};
use medledger_core::{ConsensusKind, SystemConfig};
use medledger_crypto::{sha256, Hash256, KeyPair};
use medledger_engine::LedgerService;
use medledger_ledger::{Mempool, Transaction, TxPayload};
use medledger_network::LatencyModel;
use medledger_relational::Value;
use medledger_telemetry::{Recorder, Registry, Snapshot};
use medledger_workload::{fig1_full_records, EhrGenerator, UpdateStream};
use std::collections::BTreeSet;
use std::time::Instant;

fn main() {
    let filter: Option<String> = std::env::args().nth(1).map(|s| s.to_lowercase());
    let run = |name: &str| filter.as_deref().is_none_or(|f| f == name);

    println!("MedLedger experiment report — all times are *virtual* ms unless noted.\n");
    if run("e1") {
        e1_fig1();
    }
    if run("e3") {
        e3_metadata();
    }
    if run("e5") {
        e5_workflow();
    }
    if run("e6") {
        e6_latency();
    }
    if run("e7") {
        e7_conflict_rule();
    }
    if run("e8") {
        e8_storage();
    }
    if run("e9") {
        e9_exposure();
    }
    if run("e10") {
        e10_lens_laws();
    }
    if run("e11") {
        e11_consensus();
    }
    if run("e12") {
        e12_contract_gas();
    }
    if run("e13") {
        e13_telemetry();
    }
}

fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

fn scenario_config(seed: &str) -> SystemConfig {
    SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 1_000,
        },
        seed: seed.into(),
        peer_key_capacity: 64,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- E1

fn e1_fig1() {
    header("E1 — Fig. 1 data distribution (exact reproduction)");
    let scn = scenario::build(scenario_config("report-e1")).expect("build");
    println!("Full medical records:");
    println!("{}", fig1_full_records().to_pretty());
    for (peer, table, label) in [
        (scn.patient, "D1", "D1 (Patient)"),
        (scn.researcher, "D2", "D2 (Researcher)"),
        (scn.doctor, "D3", "D3 (Doctor)"),
    ] {
        println!("{label}:");
        println!(
            "{}",
            scn.ledger
                .reader(peer)
                .source(table)
                .expect("table")
                .to_pretty()
        );
    }
    println!("D13 / D31 (shared Patient↔Doctor):");
    println!(
        "{}",
        scn.ledger
            .reader(scn.patient)
            .read(SHARE_PD)
            .expect("read")
            .to_pretty()
    );
    println!("D23 / D32 (shared Researcher↔Doctor):");
    println!(
        "{}",
        scn.ledger
            .reader(scn.researcher)
            .read(SHARE_RD)
            .expect("read")
            .to_pretty()
    );
    println!();
}

// ---------------------------------------------------------------- E3

fn e3_metadata() {
    header("E3 — Fig. 3 metadata collection in the sharing contract");
    let mut scn = scenario::build(scenario_config("report-e3")).expect("build");
    for table_id in [SHARE_PD, SHARE_RD] {
        let m = scn.ledger.share_meta(table_id).expect("meta");
        println!("Metadata ID: {table_id}");
        println!(
            "  sharing peers : {:?}",
            m.peers.iter().map(|p| p.short()).collect::<Vec<_>>()
        );
        println!("  authority     : {}", m.authority.short());
        println!("  last update   : {} ms", m.last_update_ms);
        println!("  version       : {}", m.version);
        for (attr, writers) in &m.write_permission {
            println!(
                "  write[{attr:<20}] = {:?}",
                writers.iter().map(|w| w.short()).collect::<Vec<_>>()
            );
        }
    }
    // The paper's permission-change example.
    let (doctor, patient) = (scn.doctor, scn.patient);
    scn.ledger
        .session(doctor)
        .grant(SHARE_PD, "dosage", &[doctor, patient])
        .expect("grant");
    let m = scn.ledger.share_meta(SHARE_PD).expect("meta");
    println!(
        "\nAfter the Doctor grants Patient write on Dosage: write[dosage] = {:?}",
        m.write_permission["dosage"]
            .iter()
            .map(|w| w.short())
            .collect::<Vec<_>>()
    );
    println!();
}

// ---------------------------------------------------------------- E5

fn e5_workflow() {
    header("E5 — Fig. 5 update workflow trace");
    let mut scn = scenario::build(scenario_config("report-e5")).expect("build");
    let (r, d) = run_fig5(&mut scn).expect("fig5");
    println!("Researcher updates MeA1 through `{SHARE_RD}`:");
    print!("{}", r.trace.render());
    println!("Doctor follows up on dosage through `{SHARE_PD}` (steps 7-11):");
    print!("{}", d.trace.render());
    scn.ledger.check_consistency().expect("consistent");
    println!("consistency check: PASS\n");
}

// ---------------------------------------------------------------- E6

fn e6_latency() {
    header("E6 — update latency vs. chain flavor (paper Sec. IV-1/IV-3)");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "chain", "mean visible", "p95 visible", "mean synced", "updates"
    );
    let configs: Vec<(&str, ConsensusKind)> = vec![
        (
            "PBFT 100ms (private)",
            ConsensusKind::PrivatePbft {
                block_interval_ms: 100,
            },
        ),
        (
            "PBFT 1s (private)",
            ConsensusKind::PrivatePbft {
                block_interval_ms: 1_000,
            },
        ),
        (
            "PBFT 5s (private)",
            ConsensusKind::PrivatePbft {
                block_interval_ms: 5_000,
            },
        ),
        (
            "PoW 12s (Ethereum)",
            ConsensusKind::PublicPow {
                mean_interval_ms: 12_000,
            },
        ),
        (
            "PoW 15s (public)",
            ConsensusKind::PublicPow {
                mean_interval_ms: 15_000,
            },
        ),
    ];
    let k = 20;
    for (label, consensus) in configs {
        let mut bench = two_peer_system("report-e6", consensus, 16);
        let mut visible = Vec::with_capacity(k);
        let mut synced = Vec::with_capacity(k);
        for rev in 0..k {
            let (v, s) = one_dosage_update(&mut bench, 1000, rev);
            visible.push(v);
            synced.push(s);
        }
        visible.sort_unstable();
        let mean_v: u64 = visible.iter().sum::<u64>() / k as u64;
        let p95 = visible[(k * 95) / 100 - 1];
        let mean_s: u64 = synced.iter().sum::<u64>() / k as u64;
        println!("{label:<22} {mean_v:>9} ms {p95:>9} ms {mean_s:>9} ms {k:>12}");
    }

    // Batching (the paper: "nodes may choose to collect a lot of updates
    // and then send requests to contracts").
    println!("\nBatching amortization on PoW 12s (virtual ms per edit, all-visible):");
    println!(
        "{:>10} {:>16} {:>16}",
        "batch", "latency/batch", "latency/edit"
    );
    for batch in [1usize, 4, 16, 64] {
        let mut bench = two_peer_system(
            "report-e6-batch",
            ConsensusKind::PublicPow {
                mean_interval_ms: 12_000,
            },
            128,
        );
        let pids: Vec<i64> = (1000..1000 + batch as i64).collect();
        let rounds = 5;
        let mut total = 0u64;
        for r in 0..rounds {
            // All edits of a round are staged on one UpdateBatch and
            // commit as a single request-update transaction.
            let mut session = bench.ledger.session(bench.doctor);
            let mut staged = session.begin("ward");
            for (i, pid) in pids.iter().enumerate() {
                staged = staged.set(
                    vec![Value::Int(*pid)],
                    "dosage",
                    Value::text(format!("b{r}-{i}")),
                );
            }
            let outcome = staged.commit().expect("commit");
            total += outcome.visibility_latency_ms();
        }
        let per_batch = total / rounds;
        println!(
            "{batch:>10} {per_batch:>13} ms {:>13} ms",
            per_batch / batch as u64
        );
    }
    println!();
}

// ---------------------------------------------------------------- E7

fn e7_conflict_rule() {
    header("E7 — one tx per shared table per block (paper Sec. III-B)");
    println!("Draining 64 update transactions spread over k shared tables:");
    println!(
        "{:>10} {:>10} {:>22} {:>26}",
        "tables", "blocks", "serialization factor", "added latency @1s blocks"
    );
    for k in [1usize, 4, 16, 64] {
        let mut mp = Mempool::new();
        let mut keys: Vec<KeyPair> = (0..k)
            .map(|i| KeyPair::generate(&format!("report-e7-{i}"), 128))
            .collect();
        let mut nonces = vec![0u64; k];
        for i in 0..64 {
            let which = i % k;
            let tx = Transaction {
                sender: keys[which].public(),
                nonce: nonces[which],
                payload: TxPayload::Noop,
                conflict_key: Some(format!("table-{which}")),
            };
            nonces[which] += 1;
            mp.add(tx.sign(&mut keys[which]).expect("sign"));
        }
        let mut blocks = 0usize;
        while !mp.is_empty() {
            let sel = mp.select(128, &BTreeSet::new());
            let ids: Vec<_> = sel.iter().map(|stx| stx.id()).collect();
            mp.remove_committed(&ids);
            blocks += 1;
        }
        let ideal = 64usize.div_ceil(128).max(1);
        let _ = ideal;
        println!(
            "{k:>10} {blocks:>10} {:>21.1}x {:>23} s",
            blocks as f64 / 1.0,
            blocks
        );
    }
    println!(
        "\nWith one table, every one of the 64 updates needs its own block; \
         with 64 tables one block suffices — the paper's serialization rule \
         trades throughput on hot tables for per-table update atomicity.\n"
    );
}

// ---------------------------------------------------------------- E8

fn e8_storage() {
    header("E8 — on-chain storage: metadata vs. data (paper Sec. V vs HDG)");
    println!(
        "{:<30} {:>14} {:>16}",
        "model", "bytes/update", "bytes/100 updates"
    );
    for n_records in [2usize, 100, 1_000] {
        let records = if n_records == 2 {
            fig1_full_records()
        } else {
            EhrGenerator::new("report-e8").full_records(n_records)
        };
        println!("--- shared record size: {n_records} rows ---");
        for row in storage_comparison(&records, 100) {
            println!(
                "{:<30} {:>14} {:>16}",
                row.model, row.bytes_per_update, row.total_bytes
            );
        }
    }
    println!(
        "\nOurs and MedRec are record-size independent; HDG grows linearly with \
         the data (the paper's storage-burden argument).\n"
    );
}

// ---------------------------------------------------------------- E9

fn e9_exposure() {
    header("E9 — attribute exposure: fine-grained views vs whole-record");
    let profiles = paper_profiles();
    let fine = exposure_report(&paper_fine_grained_design(), &profiles);
    let whole = exposure_report(
        &SharingDesign::whole_record(&["Patient", "Researcher", "Doctor"], &all_attrs()),
        &profiles,
    );
    println!(
        "{:<12} | {:>8} {:>12} {:>8} | {:>8} {:>12} {:>8}",
        "", "fine", "interference", "missing", "whole", "interference", "missing"
    );
    for (f, w) in fine.iter().zip(&whole) {
        println!(
            "{:<12} | {:>8} {:>12} {:>8} | {:>8} {:>12} {:>8}",
            f.name, f.exposed, f.interference, f.missing, w.exposed, w.interference, w.missing
        );
    }
    println!(
        "total interference: fine-grained = {}, whole-record = {}\n",
        total_interference(&fine),
        total_interference(&whole)
    );
}

// ---------------------------------------------------------------- E10

fn e10_lens_laws() {
    header("E10 — lens round-tripping laws at scale (wall-clock timings)");
    let mut checked = 0usize;
    let lens = wide_projection();
    let t0 = Instant::now();
    for n in [10usize, 100, 1_000] {
        let src = EhrGenerator::new(&format!("report-e10-{n}")).full_records(n);
        check_getput(&lens, &src).expect("GetPut");
        let mut view = get(&lens, &src).expect("get");
        let key = src.sorted_rows()[n / 2][0].clone();
        view.update(&[key], &[("dosage", Value::text("edited"))])
            .expect("edit");
        check_putget(&lens, &src, &view).expect("PutGet");
        checked += 2;
    }
    println!(
        "{checked} law checks over sources of 10/100/1000 rows: PASS ({} ms wall)",
        t0.elapsed().as_millis()
    );

    println!("\nget/put wall-clock scaling (project lens):");
    println!("{:>10} {:>12} {:>12}", "rows", "get", "put");
    for n in [100usize, 1_000, 10_000] {
        let src = EhrGenerator::new(&format!("report-e10s-{n}")).full_records(n);
        let t = Instant::now();
        let view = get(&lens, &src).expect("get");
        let get_us = t.elapsed().as_micros();
        let mut edited = view.clone();
        let key = src.sorted_rows()[n / 2][0].clone();
        edited
            .update(&[key], &[("dosage", Value::text("x"))])
            .expect("edit");
        let t = Instant::now();
        put(&lens, &src, &edited).expect("put");
        let put_us = t.elapsed().as_micros();
        println!("{n:>10} {get_us:>9} µs {put_us:>9} µs");
    }
    println!();
}

// ---------------------------------------------------------------- E11

fn e11_consensus() {
    header("E11 — PBFT commit latency vs validators (virtual ms)");
    println!(
        "{:<8} {:<6} {:>12} {:>12} {:>10} {:>12}",
        "network", "n", "first commit", "all commit", "messages", "KiB"
    );
    for (net_label, latency) in [("LAN", LatencyModel::lan()), ("WAN", LatencyModel::wan())] {
        for n in [4usize, 7, 10, 13] {
            let out = PbftRound::new(PbftConfig {
                n,
                latency: latency.clone(),
                seed: "report-e11".into(),
                ..Default::default()
            })
            .run(1, sha256(b"block"), 10_000_000);
            println!(
                "{:<8} {:<6} {:>9} ms {:>9} ms {:>10} {:>12}",
                net_label,
                n,
                out.first_commit_ms.expect("commit"),
                out.all_commit_ms.expect("all"),
                out.messages,
                out.bytes / 1024
            );
        }
    }
    // View change cost.
    let crashed = PbftRound::new(PbftConfig {
        seed: "report-e11-vc".into(),
        ..Default::default()
    })
    .crash(1) // proposer of height 1, view 0
    .run(1, sha256(b"block"), 10_000_000);
    println!(
        "\ncrashed proposer (n=4, 1s timeout): commit at {} ms after {} view change(s)",
        crashed.first_commit_ms.expect("commit"),
        crashed.view_changes
    );

    println!("\nPoW interval model (mean 12s, 10k samples):");
    let mut pow = PowModel::ethereum("report-e11");
    let samples: Vec<u64> = (0..10_000).map(|_| pow.next_interval_ms()).collect();
    let mean: u64 = samples.iter().sum::<u64>() / samples.len() as u64;
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    println!(
        "  mean {} ms, median {} ms, p95 {} ms, max {} ms",
        mean,
        sorted[sorted.len() / 2],
        sorted[(sorted.len() * 95) / 100],
        sorted.last().expect("nonempty")
    );
    println!();
}

// ---------------------------------------------------------------- E12

fn e12_contract_gas() {
    header("E12 — sharing contract gas per operation");
    let doctor = KeyPair::generate("report-e12-doc", 2).public();
    let patient = KeyPair::generate("report-e12-pat", 2).public();
    let ctx = |sender| CallCtx {
        sender,
        contract: Hash256([1; 32]),
        block_height: 1,
        timestamp_ms: 1_000,
    };
    let mut state = ContractState::new();
    let reg = RegisterShareArgs {
        table_id: "D13&D31".into(),
        peers: vec![doctor, patient],
        write_permission: [
            ("dosage".to_string(), vec![doctor]),
            ("clinical_data".to_string(), vec![doctor, patient]),
            ("medication_name".to_string(), vec![doctor]),
        ]
        .into_iter()
        .collect(),
        authority: doctor,
        initial_hash: Hash256([5; 32]),
    };
    let out = SharingContract::call(
        &mut state,
        &ctx(doctor),
        "register_share",
        &serde_json::to_vec(&reg).expect("args"),
    )
    .expect("register");
    println!("{:<28} {:>8} gas", "register_share (3 attrs)", out.gas_used);

    let req = RequestUpdateArgs {
        table_id: "D13&D31".into(),
        new_hash: Hash256([6; 32]),
        changed_attrs: vec!["dosage".into()],
    };
    let out = SharingContract::call(
        &mut state,
        &ctx(doctor),
        "request_update",
        &serde_json::to_vec(&req).expect("args"),
    )
    .expect("update");
    println!("{:<28} {:>8} gas", "request_update (1 attr)", out.gas_used);

    let ack = AckUpdateArgs {
        table_id: "D13&D31".into(),
        version: 1,
        applied_hash: Hash256([6; 32]),
    };
    let out = SharingContract::call(
        &mut state,
        &ctx(patient),
        "ack_update",
        &serde_json::to_vec(&ack).expect("args"),
    )
    .expect("ack");
    println!("{:<28} {:>8} gas", "ack_update", out.gas_used);

    let chg = ChangePermissionArgs {
        table_id: "D13&D31".into(),
        attr: "dosage".into(),
        writers: vec![doctor, patient],
    };
    let out = SharingContract::call(
        &mut state,
        &ctx(doctor),
        "change_permission",
        &serde_json::to_vec(&chg).expect("args"),
    )
    .expect("change");
    println!("{:<28} {:>8} gas", "change_permission", out.gas_used);

    // Workload sanity: a mixed stream's denial rate when patients try
    // dosage writes (permission ablation flavor).
    let mut stream = UpdateStream::new("report-e12", vec![188], 0.0);
    let sample = stream.take(10);
    println!(
        "\n(mixed update stream sample: {} dosage / {} clinical / {} mechanism)",
        sample
            .iter()
            .filter(|u| u.kind == medledger_workload::UpdateKind::Dosage)
            .count(),
        sample
            .iter()
            .filter(|u| u.kind == medledger_workload::UpdateKind::ClinicalData)
            .count(),
        sample
            .iter()
            .filter(|u| u.kind == medledger_workload::UpdateKind::Mechanism)
            .count(),
    );
    println!();
}

// ---------------------------------------------------------------- E13

/// The per-wave phase latency table: one row per Fig. 5 pipeline stage,
/// summarized from the `wave.*` histograms of a registry [`Snapshot`].
fn wave_phase_table(snap: &Snapshot) -> String {
    const PHASES: [&str; 8] = [
        "wave.phase.screen_us",
        "wave.phase.prepare_us",
        "wave.phase.consensus_us",
        "wave.phase.fanout_us",
        "wave.phase.ack_us",
        "wave.phase.cascade_us",
        "wave.phase.flush_us",
        "wave.total_us",
    ];
    let total_sum = snap
        .histogram("wave.total_us")
        .map(|h| h.sum)
        .unwrap_or(0)
        .max(1);
    let mut out = format!(
        "{:<26} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        "phase", "waves", "p50 µs", "p95 µs", "p99 µs", "max µs", "share"
    );
    for name in PHASES {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        out.push_str(&format!(
            "{:<26} {:>6} {:>9} {:>9} {:>9} {:>9} {:>6.1}%\n",
            name,
            h.count,
            h.p50,
            h.p95,
            h.p99,
            h.max,
            100.0 * h.sum as f64 / total_sum as f64
        ));
    }
    out
}

fn e13_telemetry() {
    header("E13 — live telemetry: wave histograms, shard heat, chain cost");
    // A sharded doctor+patient deployment with a live recorder, driven
    // through the pipeline service — the same instrumentation path the
    // node binary's gateway uses, so the numbers here and the node's
    // periodic `telemetry:` lines come from one vocabulary.
    let registry = Registry::shared();
    let mut bench = two_peer_system_sharded(
        "report-e13",
        ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        },
        64,
        4,
    );
    let (doctor, patient) = (bench.doctor, bench.patient);
    bench.ledger.set_recorder(Recorder::new(&registry));
    let mut service = LedgerService::new(bench.ledger);

    // Hotspot-skewed workload: most edits land on 4 hot patients, so the
    // per-shard apply attribution shows visible skew in the heat bars.
    // Dosage edits go through the Doctor, clinical notes through the
    // Patient; each wave combines one of each against the shared table.
    let all_ids: Vec<i64> = (0..64).map(|i| 1000 + i).collect();
    let mut stream = UpdateStream::hotspot("report-e13", all_ids, 4);
    let updates = stream.take(64);
    let dosage: Vec<_> = updates
        .iter()
        .filter(|u| u.kind == medledger_workload::UpdateKind::Dosage)
        .cloned()
        .collect();
    let clinical: Vec<_> = updates
        .iter()
        .filter(|u| u.kind == medledger_workload::UpdateKind::ClinicalData)
        .cloned()
        .collect();
    let waves = dosage.len().min(clinical.len()).min(12);
    for i in 0..waves {
        let t_doc = service
            .submit(doctor, "ward")
            .set(
                vec![dosage[i].target.clone()],
                "dosage",
                dosage[i].new_value.clone(),
            )
            .submit()
            .expect("doctor submit");
        let t_pat = service
            .submit(patient, "ward")
            .set(
                vec![clinical[i].target.clone()],
                "clinical_data",
                clinical[i].new_value.clone(),
            )
            .submit()
            .expect("patient submit");
        service.drain().expect("drain");
        service
            .take(t_doc)
            .expect("doctor resolved")
            .expect("doctor commit");
        service
            .take(t_pat)
            .expect("patient resolved")
            .expect("patient commit");
    }
    service.ledger().check_consistency().expect("consistent");

    let snap = registry.snapshot();
    println!("{waves} combined waves (1 Doctor dosage + 1 Patient note each), 64 rows, 4 shards\n");
    println!("Per-wave pipeline latency (wall-clock, from the shared registry Snapshot):");
    print!("{}", wave_phase_table(&snap));

    let n_waves = snap.counter("chain.waves").unwrap_or(0).max(1);
    println!("\nChain cost counters:");
    for key in [
        "chain.waves",
        "chain.blocks",
        "chain.txs",
        "chain.consensus_msgs",
        "chain.consensus_bytes",
        "chain.p2p_bytes",
    ] {
        let v = snap.counter(key).unwrap_or(0);
        println!(
            "  {key:<22} {v:>10}   ({:.2}/wave)",
            v as f64 / n_waves as f64
        );
    }

    println!("\nFull registry rendering — the same `Snapshot::render_text` the node");
    println!("binary prints on shutdown (heat bars: per-shard apply attribution):");
    print!("{}", snap.render_text());
    println!(
        "\n(one-line form, as the node's periodic `telemetry:` lines print it:\n {})",
        snap.render_line()
    );
    println!();
}
