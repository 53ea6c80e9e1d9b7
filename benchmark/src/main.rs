//! `medbench` — the repo's wall-clock benchmark. See `README.md`.
//!
//! ```text
//! medbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--setups <n>] [--tmp <dir>] [--out <dir>]
//! medbench merge <dir>            # *.run.json → results.json + table
//! medbench compare A.json B.json  # exit 1 when a gated pairing regressed
//! medbench manifest               # BENCHMARK.json from the catalogue
//! ```

mod check;
mod drive;
mod gen;
mod ladder;
mod measure;
mod report;
mod stats;
mod trace;
mod world;

use check::Verdict;
use gen::Workload;
use medledger_core::system::SystemStats;
use medledger_telemetry::{Recorder, Registry, Snapshot};
use report::{Metrics, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is timed this many times per run and the median reported.
const SETUPS: usize = 3;
/// Plans past this key capacity are refused before anything is timed:
/// key generation alone would take longer than the run is allowed to.
const MAX_KEY_CAPACITY: usize = 16_384;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("merge") if args.len() == 2 => merge_command(Path::new(&args[1])),
        Some("compare") if args.len() == 3 => compare_command(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: medbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             [--setups <n>] [--tmp <dir>] [--out <dir>]\n       \
             medbench merge <dir> | compare A.json B.json | manifest"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("medbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    tmp: PathBuf,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: Workload::WardPaced,
        seed: 1,
        seconds: gen::NOMINAL_SECONDS,
        traced: false,
        setups: SETUPS,
        tmp: PathBuf::from("target/medbench-tmp"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut named_workload = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Workload::parse(value).ok_or_else(bad)?;
                named_workload = true;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.traced = matches!(value.as_str(), "1"),
            "--setups" => parsed.setups = value.parse().map_err(|_| bad())?,
            "--tmp" => parsed.tmp = value.into(),
            "--out" => parsed.out = value.into(),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !named_workload || parsed.seconds.is_nan() || parsed.seconds <= 0.0 || parsed.setups == 0 {
        return Err("`run` needs --workload, a positive --seconds and at least one set-up".into());
    }
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let result = run(&args)?;
    result.print();
    let name = format!("{}.{}", args.workload.name(), u8::from(args.traced));
    write_file(
        &args.out.join(format!("{name}.run.json")),
        &(result.document().to_string() + "\n"),
    )?;
    // The contract's last line.
    println!("{}", result.contract_line());
    Ok(true)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, text).map_err(io)
}

fn read_json(path: &Path) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn merge_command(dir: &Path) -> Result<bool, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".run.json"))
        .collect();
    paths.sort();
    let docs = paths
        .iter()
        .map(|p| read_json(p))
        .collect::<Result<Vec<_>, _>>()?;
    let all_correct = docs.iter().all(|d| d["correct"] == true);
    let merged = report::merge(docs);
    let out = dir.join("results.json");
    let text = serde_json::to_string_pretty(&merged).map_err(|e| e.to_string())?;
    write_file(&out, &(text + "\n"))?;
    if let serde_json::Value::Object(derived) = &merged["derived"] {
        for (workload, d) in derived {
            println!(
                "{workload}: trace_overhead_frac = {}",
                d["trace_overhead_frac"]
            );
        }
    }
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn compare_command(a: &str, b: &str) -> Result<bool, String> {
    let regressions = report::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
    for r in &regressions {
        println!("REGRESSION {r}");
    }
    Ok(regressions.is_empty())
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

fn core_err(what: &'static str) -> impl Fn(medledger_core::CoreError) -> String {
    move |e| format!("{what}: {e}")
}

fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut m = Metrics::default();
    let mut info: Vec<(String, String)> = Vec::new();
    let mut verdict = Verdict::default();

    let t = Instant::now();
    let plan = gen::plan(
        args.workload,
        args.seed,
        args.seconds / gen::NOMINAL_SECONDS,
    );
    let planned = plan.ops().count();
    m.set(
        "workload.gen_us_per_op",
        t.elapsed().as_secs_f64() * 1e6 / planned as f64,
    );
    if plan.key_capacity > MAX_KEY_CAPACITY {
        return Err(format!(
            "the plan needs {} one-time keys per peer (limit {MAX_KEY_CAPACITY}); lower --seconds",
            plan.key_capacity
        ));
    }
    let tmp = args
        .tmp
        .join(format!("{}-{}", plan.workload.name(), std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    info.push(("operations planned".into(), planned.to_string()));
    info.push((
        "key plan".into(),
        format!(
            "capacity {} per peer, predicted {:?}",
            plan.key_capacity, plan.predicted_keys
        ),
    ));
    info.push((
        "processors".into(),
        std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
    ));
    info.push(("scratch filesystem".into(), measure::filesystem_of(&tmp)));

    // Set-up, several times; the last one is the deployment that runs.
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for i in 0..args.setups {
        let dir = plan.durable.then(|| tmp.join(format!("store-{i}")));
        let registry = args.traced.then(Registry::shared);
        let recorder = registry
            .as_ref()
            .map_or_else(Recorder::disabled, Recorder::new);
        let t = Instant::now();
        let live = world::setup(&plan, dir.as_deref(), recorder).map_err(core_err("set-up"))?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if i + 1 < args.setups {
            live.dep
                .shutdown()
                .map_err(core_err("discarding a set-up"))?;
            if let Some(dir) = dir {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        } else {
            kept = Some((live, dir, registry));
        }
    }
    m.set("setup_s", stats::median(&setup_secs));
    info.push(("set-ups".into(), format!("{setup_secs:.3?} s")));
    let (live, store, registry) = kept.expect("at least one set-up ran");

    // Drive the stages.
    let epoch = Instant::now();
    let mut trace = trace::Trace::new(epoch);
    let mut clients = live.clients;
    let mut runs = Vec::new();
    for staged in plan.stages.iter().enumerate() {
        let (back, stage_run) = drive::run_stage(&live.dep, clients, &plan.world, staged, epoch);
        clients = back;
        runs.push(stage_run);
    }
    m.set("rss_mb", measure::peak_rss_mib());
    drop(clients);
    let gateway = live.dep.stats();
    let wire_bytes = live.dep.wire_bytes();
    let service = live.dep.shutdown().map_err(core_err("shutdown"))?;

    // Correctness.
    let samples: Vec<drive::Sample> = runs
        .iter()
        .flat_map(|r| r.samples.iter().cloned())
        .collect();
    check::check_outcomes(&plan, &samples, &mut verdict);
    check::check_gateway(&gateway, &mut verdict);
    let ledger_check = check::check_ledger(&plan, &service, &mut verdict);
    check::check_state(&plan, &samples, service.ledger(), &mut verdict);

    measure::from_samples(&plan, &runs, &mut m, &mut info);
    let commits = samples
        .iter()
        .filter(|s| matches!(s.outcome, drive::Outcome::Committed { .. }))
        .count()
        .max(1) as f64;
    let keys = (
        live.keys_spent.as_slice(),
        ledger_check.keys_spent.as_slice(),
    );
    counts(
        &service,
        &live.stats,
        keys,
        &gateway,
        wire_bytes,
        commits,
        &mut m,
    );
    m.set(
        "core.check_consistency_ms",
        ledger_check.consistency_secs * 1e3,
    );
    let blocks = service.ledger().chain().blocks().len() as f64;
    m.set(
        "ledger.verify_chain_us_per_block",
        ledger_check.verify_chain_secs * 1e6 / blocks,
    );

    if args.traced {
        measure::spans(&plan, &runs, &mut trace);
        m.set("telemetry.commits_per_s_traced", m.get("commits_per_s"));
        if let Some(registry) = &registry {
            from_registry(&registry.snapshot(), commits, &mut m);
        }
        let art = ladder::Artifacts {
            plan: &plan,
            service: &service,
            tmp: &tmp,
        };
        for failure in ladder::run(&art, &mut trace, &mut m) {
            verdict.violations.push(failure);
        }
        m.set(
            "node.gateway_overhead_us",
            (m.get("commit_p50_ms") * 1e3 - m.get("engine.tick_us")).max(0.0),
        );
    }

    // Durable: recover a copy taken before `close()`, then close and
    // weigh the directory.
    if store.is_none() && args.traced {
        for name in [
            "storage.recovery_s",
            "storage.disk_bytes_per_commit",
            "core.flush_us",
            "core.recover_replay_s",
        ] {
            m.set(name, 0.0); // does not apply in memory
        }
    }
    if let Some(store) = &store {
        let copy = tmp.join("store-copy");
        copy_dir(store, &copy).map_err(|e| format!("copying the store: {e}"))?;
        let t = Instant::now();
        let recovered = world::boot(&plan, plan.key_capacity, Some(&copy));
        let recovery_s = t.elapsed().as_secs_f64();
        match recovered {
            Ok(recovered) => {
                check::check_recovered(&plan, service.ledger(), &recovered, &mut verdict)
            }
            Err(e) => verdict.violations.push(format!("recovery failed: {e}")),
        }
        m.set("storage.recovery_s", recovery_s);
        if m.has("crypto.keygen_us_per_key") {
            // Every peer's key pair is re-derived before replay starts.
            let keygen_s = m.get("crypto.keygen_us_per_key") / 1e6
                * (plan.key_capacity * plan.world.peers.len()) as f64;
            m.set("core.recover_replay_s", (recovery_s - keygen_s).max(0.0));
        }
        service.close().map_err(core_err("close"))?;
        let bytes = dir_bytes(store).map_err(|e| format!("sizing the store: {e}"))?;
        m.set("storage.disk_bytes_per_commit", bytes as f64 / commits);
    }

    if args.traced {
        let path = args
            .out
            .join(format!("{}.trace.json", plan.workload.name()));
        trace
            .write_json(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        info.push((
            "trace".into(),
            format!("{} spans in {}", trace.len(), path.display()),
        ));
    }
    std::fs::remove_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;

    for v in &verdict.violations {
        info.push(("VIOLATION".into(), v.clone()));
    }
    Ok(RunResult {
        workload: plan.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: verdict.correct(),
        attempted: samples.len(),
        failed: verdict.failed_ops,
        metrics: m,
        info,
    })
}

/// Per-commit counts read from the deployment after it stopped.
fn counts(
    service: &medledger_engine::LedgerService,
    stats0: &SystemStats,
    (keys0, keys1): (&[u64], &[u64]),
    gateway: &medledger_node::GatewayStats,
    wire_bytes: u64,
    commits: f64,
    m: &mut Metrics,
) {
    let stats = service.ledger().stats();
    let per_commit = |after: u64, before: u64| (after - before) as f64 / commits;
    m.set(
        "core.blocks_per_commit",
        per_commit(stats.blocks, stats0.blocks),
    );
    m.set("core.txs_per_commit", per_commit(stats.txs, stats0.txs));
    m.set(
        "core.keys_per_commit",
        per_commit(keys1.iter().sum(), keys0.iter().sum()),
    );
    m.set(
        "consensus.msgs_per_commit",
        per_commit(stats.consensus_msgs, stats0.consensus_msgs),
    );
    m.set(
        "consensus.bytes_per_commit",
        per_commit(stats.consensus_bytes, stats0.consensus_bytes),
    );
    m.set(
        "network.p2p_bytes_per_commit",
        per_commit(stats.data_plane.bytes, stats0.data_plane.bytes),
    );
    m.set("node.wire_bytes_per_commit", wire_bytes as f64 / commits);
    m.set("node.queue_high_water", gateway.queue_high_water as f64);
    let waves = gateway.waves.max(1) as f64;
    let cascades = service.cascades();
    m.set(
        "engine.members_per_wave",
        (gateway.resolved as f64 + cascades.len() as f64) / waves,
    );
    m.set("engine.waves_per_commit", waves / commits);
    m.set(
        "engine.cascades_per_commit",
        cascades.len() as f64 / commits,
    );
    m.set(
        "engine.cascades_blocked",
        cascades.iter().filter(|c| c.result.is_err()).count() as f64,
    );
}

/// Phase times and storage counts from the recorder the traced run
/// installed (histogram means — the log₂ percentiles are too coarse).
fn from_registry(snap: &Snapshot, commits: f64, m: &mut Metrics) {
    let mean_us = |name: &str| {
        snap.histogram(name)
            .filter(|h| h.count > 0)
            .map_or(0.0, |h| h.sum as f64 / h.count as f64)
    };
    let phases = [
        ("core.wave.screen_us", "wave.phase.screen_us"),
        ("core.wave.prepare_us", "wave.phase.prepare_us"),
        ("core.wave.consensus_us", "wave.phase.consensus_us"),
        ("core.wave.fanout_us", "wave.phase.fanout_us"),
        ("core.wave.ack_us", "wave.phase.ack_us"),
        ("core.wave.cascade_us", "wave.phase.cascade_us"),
    ];
    let total = mean_us("wave.total_us");
    let mut attributed = 0.0;
    for (ours, theirs) in phases {
        let v = mean_us(theirs);
        attributed += v;
        m.set(ours, v);
    }
    m.set("core.wave.total_us", total);
    if total > 0.0 {
        m.set("core.wave.unattributed_frac", 1.0 - attributed / total);
    }
    m.set("node.ticket_wait_us", mean_us("gateway.ticket_wait_us"));
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    m.set(
        "storage.wal_bytes_per_commit",
        counter("storage.wal_bytes") / commits,
    );
    m.set(
        "storage.chain_bytes_per_commit",
        counter("storage.chain_bytes") / commits,
    );
    m.set(
        "storage.flushes_per_commit",
        counter("storage.flushes") / commits,
    );
    m.set(
        "storage.snapshots_per_commit",
        counter("storage.snapshots") / commits,
    );
    m.set(
        "storage.segments",
        snap.gauge("storage.segments").unwrap_or(0) as f64,
    );
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> RunResult {
        let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/medbench-test");
        let tag = format!("{}-{}", workload.name(), u8::from(traced));
        run(&RunArgs {
            workload,
            seed: 3,
            seconds: 0.25,
            traced,
            setups: 1,
            tmp: scratch.join("tmp").join(&tag),
            out: scratch.join("out").join(&tag),
        })
        .expect("the run completes")
    }

    /// Every workload at smoke size: every check passes — among them
    /// that no peer spent more keys than the planner predicted — and
    /// every end-to-end metric is reported and non-zero.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for workload in Workload::ALL {
            let result = smoke(workload, false);
            assert!(result.correct, "{}: {:?}", workload.name(), result.info);
            assert_eq!(result.failed, 0);
            for (name, ..) in report::END_TO_END {
                assert!(result.metrics.get(name) > 0.0, "{} {name}", workload.name());
            }
        }
    }

    /// The traced run reports every per-layer metric, its phase times
    /// add up to no more than the wave total, and the workloads stress
    /// the layers they were chosen for.
    #[test]
    fn traced_runs_report_every_layer_and_stress_different_ones() {
        let fanout_share = |r: &RunResult| {
            r.metrics.get("core.wave.fanout_us") / r.metrics.get("core.wave.total_us")
        };
        let wide = smoke(Workload::WideBatch, true);
        let clinic = smoke(Workload::ClinicMixed, true);
        for result in [&wide, &clinic] {
            assert!(result.correct, "{:?}", result.info);
            for (name, ..) in report::PER_LAYER {
                assert!(result.metrics.has(name), "{name} missing");
            }
            let phases: f64 = ["screen", "prepare", "consensus", "fanout", "ack", "cascade"]
                .iter()
                .map(|p| result.metrics.get(&format!("core.wave.{p}_us")))
                .sum();
            assert!(phases <= result.metrics.get("core.wave.total_us"));
        }
        assert!(fanout_share(&wide) > 2.0 * fanout_share(&clinic));
        assert_eq!(wide.metrics.get("engine.cascades_per_commit"), 0.0);
        assert!(clinic.metrics.get("engine.cascades_per_commit") >= 0.1);
        assert_eq!(clinic.metrics.get("engine.cascades_blocked"), 0.0);
    }
}
