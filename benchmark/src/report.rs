//! The metric catalogue, the result documents, and `medbench compare`.
//!
//! The catalogue below is the one list of metric names, units,
//! directions and bounds; `BENCHMARK.json` at the repo root is its
//! rendering (`medbench manifest`, kept equal by a unit test).

use crate::gen::Workload;
use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, direction, bound)`. Each is
/// reported by every workload with tracing off; `bound` is the share of
/// the parent's median by which it may worsen (derivation: README.md,
/// "How the bounds were derived").
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Lower, 0.25),
    ("commits_per_s", "1/s", Higher, 0.25),
    ("commit_p50_ms", "ms", Lower, 0.25),
    ("commit_p95_ms", "ms", Lower, 0.25),
    ("rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics, reported by the traced run: `(name, unit,
/// direction)`. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    ("crypto.sign_us", "us", Lower),
    ("crypto.verify_us", "us", Lower),
    ("crypto.sha256_mb_per_s", "MB/s", Higher),
    ("crypto.merkle_root_us_per_leaf", "us", Lower),
    ("crypto.keygen_us_per_key", "us", Lower),
    ("relational.apply_delta_us_per_row", "us", Lower),
    ("relational.content_hash_us", "us", Lower),
    ("relational.diff_us_per_row", "us", Lower),
    ("relational.shard_apply_us_per_row", "us", Lower),
    ("relational.shard_hash_us", "us", Lower),
    ("relational.delta_bytes_per_row", "B", Lower),
    ("bx.put_delta_us_per_row", "us", Lower),
    ("bx.get_delta_us_per_row", "us", Lower),
    ("ledger.validate_block_us", "us", Lower),
    ("ledger.verify_chain_us_per_block", "us", Lower),
    ("ledger.block_bytes", "B", Lower),
    ("contracts.execute_us", "us", Lower),
    ("contracts.state_root_us", "us", Lower),
    ("consensus.round_us", "us", Lower),
    ("consensus.round_virtual_ms", "virtual_ms", Lower),
    ("consensus.sync_virtual_ms", "virtual_ms", Lower),
    ("consensus.msgs_per_commit", "count", Lower),
    ("consensus.bytes_per_commit", "B", Lower),
    ("network.fanout_dispatch_us", "us", Lower),
    ("network.p2p_bytes_per_commit", "B", Lower),
    ("storage.append_us", "us", Lower),
    ("storage.sync_us", "us", Lower),
    ("storage.snapshot_write_us", "us", Lower),
    ("storage.read_mb_per_s", "MB/s", Higher),
    ("storage.encode_mb_per_s", "MB/s", Higher),
    ("storage.decode_mb_per_s", "MB/s", Higher),
    ("storage.wal_bytes_per_commit", "B", Lower),
    ("storage.chain_bytes_per_commit", "B", Lower),
    ("storage.flushes_per_commit", "count", Lower),
    ("storage.snapshots_per_commit", "count", Lower),
    ("storage.segments", "count", Lower),
    ("storage.recovery_s", "s", Lower),
    ("storage.disk_bytes_per_commit", "B", Lower),
    ("core.wave.screen_us", "us", Lower),
    ("core.wave.prepare_us", "us", Lower),
    ("core.wave.consensus_us", "us", Lower),
    ("core.wave.fanout_us", "us", Lower),
    ("core.wave.ack_us", "us", Lower),
    ("core.wave.cascade_us", "us", Lower),
    ("core.wave.total_us", "us", Lower),
    ("core.wave.unattributed_frac", "ratio", Lower),
    ("core.commit_us", "us", Lower),
    ("core.apply_remote_us", "us", Lower),
    ("core.flush_us", "us", Lower),
    ("core.recover_replay_s", "s", Lower),
    ("core.check_consistency_ms", "ms", Lower),
    ("core.blocks_per_commit", "count", Lower),
    ("core.txs_per_commit", "count", Lower),
    ("core.keys_per_commit", "count", Lower),
    ("engine.tick_us", "us", Lower),
    ("engine.members_per_wave", "count", Higher),
    ("engine.waves_per_commit", "count", Lower),
    ("engine.cascades_per_commit", "count", Lower),
    ("engine.cascades_blocked", "count", Lower),
    ("node.submit_ack_us", "us", Lower),
    ("node.outcome_wait_us", "us", Lower),
    ("node.gateway_overhead_us", "us", Lower),
    ("node.ticket_wait_us", "us", Lower),
    ("node.wire_encode_us", "us", Lower),
    ("node.wire_decode_us", "us", Lower),
    ("node.pipe_rtt_us", "us", Lower),
    ("node.wire_bytes_per_commit", "B", Lower),
    ("node.queue_high_water", "count", Lower),
    ("node.commit_p99_ms", "ms", Lower),
    ("node.gen_late_p99_ms", "ms", Lower),
    ("node.max_rate_ok", "1/s", Higher),
    ("telemetry.record_ns", "ns", Lower),
    ("telemetry.commits_per_s_traced", "1/s", Higher),
    ("workload.gen_us_per_op", "us", Lower),
];

/// Why each workload exists, one line each (the `why` of
/// `BENCHMARK.json`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::WardPaced => {
            "open loop at three fixed rates, one cell per commit, in memory: queueing shows, \
             and signing and chain work dominate"
        }
        Workload::WardDurable => {
            "ward stream closed loop on a directory-backed store, then copy-and-recover: \
             differs from ward_paced by storage (fsync, snapshots, replay)"
        }
        Workload::WideBatch => {
            "8 rows x 4 of 152 columns per commit, 3 peers, 4 shards: fat deltas, so fan-out, \
             apply, hashing and frames dominate and signing does not"
        }
        Workload::ClinicMixed => {
            "8 operation classes over 4 peers: inserts, deletes, source writes, select and \
             distinct lenses, denials, cascades - paths one-cell updates skip"
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Named measurements of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`; it must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The recorded value, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Whether `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `names`; a name that
    /// was not recorded reads 0.
    fn object<'a>(&self, names: impl Iterator<Item = &'a str>) -> Value {
        Value::Object(
            names
                .map(|n| {
                    let entry = obj([
                        ("value", Value::Number(Number::F64(self.get(n)))),
                        ("unit", Value::String(unit_of(n).unwrap_or("").into())),
                    ]);
                    (n.to_string(), entry)
                })
                .collect(),
        )
    }
}

fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

/// Everything one run reports.
pub struct RunResult {
    /// The workload that ran.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether the recorder was installed and the ladder ran.
    pub traced: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Operations sent.
    pub attempted: usize,
    /// Operations whose outcome was not the expected one.
    pub failed: usize,
    /// Every metric this run measured.
    pub metrics: Metrics,
    /// Free-form facts printed beside the numbers (filesystem, cores,
    /// key capacity, sample counts).
    pub info: Vec<(String, String)>,
}

impl RunResult {
    /// The one-line result the contract asks for: with tracing off the
    /// end-to-end metrics, with tracing on the per-layer ones.
    pub fn contract_line(&self) -> String {
        let metrics = if self.traced {
            self.metrics.object(PER_LAYER.iter().map(|m| m.0))
        } else {
            self.metrics.object(END_TO_END.iter().map(|m| m.0))
        };
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as u64)),
            ("failed", num(self.failed as u64)),
            ("metrics", metrics),
        ])
        .to_string()
    }

    /// The full document `run.sh` collects into `results.json`.
    pub fn document(&self) -> Value {
        let recorded = self.metrics.0.keys().copied();
        obj([
            ("workload", Value::String(self.workload.name().into())),
            ("seed", num(self.seed)),
            ("seconds", Value::Number(Number::F64(self.seconds))),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", num(self.attempted as u64)),
            ("failed", num(self.failed as u64)),
            ("metrics", self.metrics.object(recorded)),
            (
                "info",
                Value::Object(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Prints every measured metric by name and unit.
    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} trace={} ==",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.traced)
        );
        for (k, v) in &self.info {
            println!("  {k}: {v}");
        }
        for (name, value) in &self.metrics.0 {
            println!("  {name:<36} {value:>16.4} {}", unit_of(name).unwrap_or(""));
        }
        println!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn manifest() -> String {
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| {
            obj([
                ("name", Value::String(w.name().into())),
                ("why", Value::String(why(w).into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            obj([
                ("name", Value::String((*name).into())),
                ("unit", Value::String((*unit).into())),
                ("better", Value::String(better.as_str().into())),
                ("bound", Value::Number(Number::F64(*bound))),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            obj([
                ("name", Value::String((*name).into())),
                ("unit", Value::String((*unit).into())),
                ("better", Value::String(better.as_str().into())),
            ])
        })
        .collect();
    let doc = obj([
        (
            "command",
            Value::Array(vec![
                Value::String("bash".into()),
                Value::String("benchmark/run.sh".into()),
            ]),
        ),
        (
            "paths",
            Value::Array(vec![Value::String("benchmark".into())]),
        ),
        ("run_seconds", num(crate::gen::NOMINAL_SECONDS as u64)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ]);
    serde_json::to_string_pretty(&doc).expect("plain JSON values serialise") + "\n"
}

// ---------------------------------------------------------------------
// results.json and compare
// ---------------------------------------------------------------------

/// Merges the per-run documents under `dir` (`*.run.json`) into one
/// results document: `{"runs": [...], "derived": {...}}`, where
/// `derived` holds `trace_overhead_frac` per workload (untraced ÷ traced
/// `commits_per_s` − 1).
pub fn merge(docs: Vec<Value>) -> Value {
    let mut derived = Vec::new();
    for w in Workload::ALL {
        let rate = |traced: bool, metric: &str| {
            docs.iter()
                .find(|d| d["workload"] == *w.name() && d["traced"] == traced)
                .and_then(|d| value_of(d, metric))
        };
        if let (Some(plain), Some(traced)) = (
            rate(false, "commits_per_s"),
            rate(true, "telemetry.commits_per_s_traced"),
        ) {
            if traced > 0.0 {
                let frac = Value::Number(Number::F64(plain / traced - 1.0));
                derived.push((w.name().to_string(), obj([("trace_overhead_frac", frac)])));
            }
        }
    }
    obj([
        ("runs", Value::Array(docs)),
        ("derived", Value::Object(derived)),
    ])
}

fn value_of(run: &Value, metric: &str) -> Option<f64> {
    match &run["metrics"][metric]["value"] {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn runs(doc: &Value) -> &[Value] {
    match &doc["runs"] {
        Value::Array(runs) => runs,
        _ => &[],
    }
}

/// Prints, per metric × workload present in both documents, both
/// values, the relative change and the bound. Returns the gated
/// pairings that are outside their bound, plus any run of `b` that
/// failed an operation or a check.
pub fn compare(a: &Value, b: &Value) -> Vec<String> {
    let mut regressions = Vec::new();
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for run_b in runs(b) {
        let (Some(workload), Some(traced)) =
            (run_b["workload"].as_str(), run_b["traced"].as_bool())
        else {
            continue;
        };
        if run_b["correct"] != true || run_b["failed"] != 0u64 {
            regressions.push(format!("{workload}: run B failed operations or checks"));
        }
        let Some(run_a) = runs(a)
            .iter()
            .find(|r| r["workload"] == *workload && r["traced"] == traced)
        else {
            continue;
        };
        let Value::Object(metrics) = &run_b["metrics"] else {
            continue;
        };
        for (name, _) in metrics {
            let (Some(va), Some(vb)) = (value_of(run_a, name), value_of(run_b, name)) else {
                continue;
            };
            let gate = END_TO_END
                .iter()
                .find(|m| m.0 == name && !traced)
                .map(|m| (m.2, m.3));
            let change = if va == 0.0 { 0.0 } else { vb / va - 1.0 };
            let verdict = match gate {
                None => "info",
                Some((better, bound)) => {
                    let worse = match better {
                        Lower => change,
                        Higher => -change,
                    };
                    if worse > bound {
                        regressions.push(format!(
                            "{workload}: {name} worse by {:.1} % (bound {:.0} %)",
                            worse * 100.0,
                            bound * 100.0
                        ));
                        "REGRESSION"
                    } else {
                        "ok"
                    }
                }
            };
            println!(
                "{workload:<14} {name:<36} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>7}  {verdict}",
                change * 100.0,
                gate.map_or("-".to_string(), |(_, b)| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64 && unit_of(n).is_some_and(|u| u.len() <= 16),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.3 == 0.25));
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `medbench manifest`");
    }

    fn results(rate: f64, p95: f64, failed: u64) -> Value {
        let mut m = Metrics::default();
        m.set("commits_per_s", rate);
        m.set("commit_p95_ms", p95);
        let mut run = RunResult {
            workload: Workload::WideBatch,
            seed: 1,
            seconds: 1.0,
            traced: false,
            correct: failed == 0,
            attempted: 10,
            failed: failed as usize,
            metrics: m,
            info: vec![],
        }
        .document();
        // Round-trip through text, as `compare` sees it.
        run = serde_json::from_str(&run.to_string()).expect("parses");
        merge(vec![run])
    }

    #[test]
    fn compare_gates_on_the_bound_in_the_metrics_direction() {
        let base = results(100.0, 10.0, 0);
        assert!(compare(&base, &results(90.0, 11.5, 0)).is_empty());
        // Higher is better for the rate: -30 % is past the 25 % bound,
        // +30 % is a gain.
        assert_eq!(compare(&base, &results(70.0, 10.0, 0)).len(), 1);
        assert!(compare(&base, &results(130.0, 10.0, 0)).is_empty());
        // Lower is better for latency.
        assert_eq!(compare(&base, &results(100.0, 13.0, 0)).len(), 1);
        assert!(compare(&base, &results(100.0, 5.0, 0)).is_empty());
        // A failed operation is always reported.
        assert_eq!(compare(&base, &results(100.0, 10.0, 1)).len(), 1);
    }
}
