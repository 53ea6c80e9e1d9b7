//! From samples to metrics: the end-to-end figures of a run, the driver
//! spans, and the counts read from the deployment after it stopped.

use crate::drive::{Outcome, Sample, StageRun};
use crate::gen::{Plan, PACED_P95_LIMIT_MS};
use crate::report::Metrics;
use crate::stats::{beyond, mean, median, percentile};
use crate::trace::Trace;
use std::collections::BTreeMap;

/// A backlog counts as growing when the operations of a stage's last
/// tenth were sent this much later (ms, mean) than those of its first.
const BACKLOG_GROWTH_MS: f64 = PACED_P95_LIMIT_MS / 3.0;

/// A timed stage is cut into this many equal-count slices (by
/// completion order), every figure is taken per slice, and the slice at
/// the quiet-side quartile is reported: the third quartile of the
/// throughputs, the first of the latencies. This sandbox's neighbours
/// slow it by up to half for seconds at a time, and interference only
/// ever slows a slice down — so the quiet quartile repeats where the
/// whole-window figure (and even the median slice, when a burst covers
/// half the window) does not.
const SLICES: usize = 20;
/// Slices are never cut shorter than this many operations, so a slice's
/// p95 has a sample beyond it.
const MIN_SLICE: usize = 20;
/// A throughput slice is at least this many times the session count: a
/// wave completes up to one operation per session at the same instant,
/// and a slice of a wave or two would measure where its edges fell.
const WAVES_PER_SLICE: usize = 8;

fn is_commit(s: &Sample) -> bool {
    matches!(s.outcome, Outcome::Committed { .. })
}

fn latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples.into_iter().map(Sample::latency_ms).collect()
}

/// The quiet-quartile figures of one stage.
struct Sliced {
    /// Commits per second, third quartile over the slices.
    commits_per_s: f64,
    /// Median latency, first quartile over the slices.
    p50_ms: f64,
    /// 95th-percentile latency, first quartile over the slices.
    p95_ms: f64,
    /// `(slices, operations per slice)`.
    shape: (usize, usize),
}

fn sliced(samples: &[Sample], min_slice: usize) -> Sliced {
    let mut by_done: Vec<&Sample> = samples.iter().collect();
    by_done.sort_by_key(|s| s.done_ns);
    let k = SLICES.min(by_done.len() / min_slice).max(1);
    let per = (by_done.len() / k).max(1);
    let mut from = by_done.iter().map(|s| s.sent_ns).min().unwrap_or(0);
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    for slice in by_done.chunks(per).take(k) {
        let until = slice[slice.len() - 1].done_ns;
        let secs = (until - from).max(1) as f64 / 1e9;
        from = until;
        rates.push(slice.iter().filter(|s| is_commit(s)).count() as f64 / secs);
        let lat = latencies(slice.iter().copied());
        p50s.push(median(&lat));
        p95s.push(percentile(&lat, 0.95));
    }
    Sliced {
        commits_per_s: percentile(&rates, 0.75),
        p50_ms: percentile(&p50s, 0.25),
        p95_ms: percentile(&p95s, 0.25),
        shape: (rates.len(), per),
    }
}

/// Whether an open-loop stage sustained its rate: p95 (as reported)
/// within the limit, no failed operation, and the generator not falling
/// further behind.
fn sustained(plan: &Plan, run: &StageRun) -> bool {
    let mut by_due: Vec<&Sample> = run.samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns);
    let tenth = (by_due.len() / 10).max(1);
    let late = |part: &[&Sample]| mean(&part.iter().map(|s| s.late_ms()).collect::<Vec<_>>());
    let growth = late(&by_due[by_due.len() - tenth..]) - late(&by_due[..tenth]);
    let failed = run.samples.iter().any(|s| {
        !s.outcome
            .matches(plan.stages[s.stage].sessions[s.session][s.index].op.expect)
    });
    sliced(&run.samples, MIN_SLICE).p95_ms <= PACED_P95_LIMIT_MS
        && !failed
        && growth <= BACKLOG_GROWTH_MS
}

/// The figures a user of the deployment sees, plus the driver-side
/// `node.*` numbers that come from the same samples. `runs[i]` is stage
/// `i` of the plan.
pub fn from_samples(
    plan: &Plan,
    runs: &[StageRun],
    m: &mut Metrics,
    info: &mut Vec<(String, String)>,
) {
    let timed: Vec<usize> = (0..runs.len()).filter(|i| plan.stages[*i].timed).collect();
    // `ward_paced` reports throughput at its top rate (the drain
    // included) and latency at its lowest, where no operation waits for
    // another's wave: at the middle rate a fifth of them do, and a
    // neighbour slowing the box by 1.3× doubles the latency there, twice
    // what it does to any other figure. A closed-loop workload has one
    // timed stage for both.
    let rate_stage = timed[timed.len() - 1];
    let latency_stage = timed[0];
    let sessions = plan.stages[rate_stage].sessions.len();
    m.set(
        "commits_per_s",
        sliced(
            &runs[rate_stage].samples,
            MIN_SLICE.max(WAVES_PER_SLICE * sessions),
        )
        .commits_per_s,
    );
    let window = &runs[latency_stage].samples;
    let lat = latencies(window);
    let quiet = sliced(window, MIN_SLICE);
    m.set("commit_p50_ms", quiet.p50_ms);
    m.set("commit_p95_ms", quiet.p95_ms);
    m.set("node.commit_p99_ms", percentile(&lat, 0.99));
    info.push((
        "latency samples".into(),
        format!(
            "{} in {} slices of {} ({} beyond each slice's p95, {} beyond the window's p99)",
            lat.len(),
            quiet.shape.0,
            quiet.shape.1,
            beyond(quiet.shape.1, 0.95),
            beyond(lat.len(), 0.99)
        ),
    ));
    let late: Vec<f64> = window.iter().map(Sample::late_ms).collect();
    m.set("node.gen_late_p99_ms", percentile(&late, 0.99));
    let us =
        |f: fn(&Sample) -> u64| mean(&window.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>());
    m.set("node.submit_ack_us", us(|s| s.accepted_ns - s.sent_ns));
    m.set("node.outcome_wait_us", us(|s| s.done_ns - s.accepted_ns));
    let sync: Vec<f64> = window
        .iter()
        .filter_map(|s| match s.outcome {
            Outcome::Committed { sync_virtual_ms } => Some(sync_virtual_ms as f64),
            _ => None,
        })
        .collect();
    m.set("consensus.sync_virtual_ms", median(&sync));

    let mut max_rate_ok = 0;
    for i in &timed {
        let (stage, run) = (&plan.stages[*i], &runs[*i]);
        let lat = latencies(&run.samples);
        let mut line = format!(
            "n={} wall={:.3}s served={:.1}/s p50={:.3}ms p95={:.3}ms",
            lat.len(),
            run.wall.as_secs_f64(),
            run.samples.iter().filter(|s| is_commit(s)).count() as f64 / run.wall.as_secs_f64(),
            median(&lat),
            percentile(&lat, 0.95)
        );
        if let Some(rate) = stage.rate {
            let ok = sustained(plan, run);
            if ok {
                max_rate_ok = max_rate_ok.max(rate);
            }
            let late: Vec<f64> = run.samples.iter().map(Sample::late_ms).collect();
            line += &format!(" late_p99={:.3}ms sustained={ok}", percentile(&late, 0.99));
        }
        info.push((format!("stage {}", stage.label), line));
    }
    m.set("node.max_rate_ok", f64::from(max_rate_ok));

    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for i in &timed {
        for s in &runs[*i].samples {
            let op = &plan.stages[s.stage].sessions[s.session][s.index].op;
            classes.entry(op.class).or_default().push(s.latency_ms());
        }
    }
    if classes.len() > 1 {
        for (class, lat) in classes {
            info.push((
                format!("class {class}"),
                format!("n={} p50={:.3}ms", lat.len(), median(&lat)),
            ));
        }
    }
}

/// One `op` span per timed operation (due → outcome) under a `window`
/// span per stage, with `submit` (send → admission reply) and `wait`
/// (admission reply → outcome) as children; the `op` span's self time
/// is what the generator spent before sending.
pub fn spans(plan: &Plan, runs: &[StageRun], trace: &mut Trace) {
    for (i, run) in runs
        .iter()
        .enumerate()
        .filter(|(i, _)| plan.stages[*i].timed)
    {
        let (Some(first), Some(last)) = (
            run.samples.iter().map(|s| s.due_ns.min(s.sent_ns)).min(),
            run.samples.iter().map(|s| s.done_ns).max(),
        ) else {
            continue;
        };
        let label = format!("window.{}", plan.stages[i].label);
        let window = trace.add(&label, (first, last), None, None);
        for s in &run.samples {
            let op = trace.add(
                "op",
                (s.due_ns.min(s.sent_ns), s.done_ns),
                Some(window),
                s.ticket,
            );
            trace.add("submit", (s.sent_ns, s.accepted_ns), Some(op), s.ticket);
            trace.add("wait", (s.accepted_ns, s.done_ns), Some(op), s.ticket);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on (longest matching mount point in
/// `/proc/mounts`).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(point)
                        .then(|| (point.len(), fs.to_string()))
                })
                .max()
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}
