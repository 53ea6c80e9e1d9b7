//! Recorder overhead on the contended pipeline workload.
//!
//! The telemetry layer's contract (ISSUE 10 acceptance): leaving a
//! `Recorder` installed on a deployment must cost ≤5% against the
//! recorder-disabled baseline, because every hot-path hook is a handful
//! of relaxed atomics against pre-minted metric handles. This bench
//! proves it on full submit→drain waves of 4 writers contending on one
//! shared table.
//!
//! The two arms run *paired and interleaved* in one process and the
//! ratio (median instrumented wave / median uninstrumented wave) gates
//! itself: above [`CEILING`] the process exits non-zero. Pairing cancels
//! machine speed, so the ratio is stable enough to gate even though both
//! numerators are wall-clock — the one wall-clock gate outside
//! `medbench`.

use std::time::Instant;

use medledger_bench::{
    contention_keys_left, contention_system, one_contended_wave, ContentionBench,
};
use medledger_telemetry::{Recorder, Registry};

const SUBMITTERS: usize = 4;
const ROWS: usize = 8;
/// Paired rounds. Each round times one full wave per arm, alternating
/// which arm goes first to cancel cache effects.
const ROUNDS: usize = 24;
/// The recorder may cost at most 5% on the pipeline workload.
const CEILING: f64 = 1.05;

/// A contention system with a live recorder installed on its ledger —
/// every wave feeds `wave.*` histograms and `chain.*` counters into
/// `registry`, exactly as the node binary's deployment does.
fn instrumented_system(seed: &str, registry: &std::sync::Arc<Registry>) -> ContentionBench {
    let mut bench = contention_system(seed, SUBMITTERS, ROWS);
    bench
        .service
        .ledger_mut()
        .set_recorder(Recorder::new(registry));
    bench
}

fn main() {
    let registry = Registry::shared();
    let mut on = instrumented_system("tel-ratio-on", &registry);
    let mut off = contention_system("tel-ratio-off", SUBMITTERS, ROWS);
    // One warm-up wave per arm primes lazily-built state (key schedules,
    // metric handles) outside the measured rounds.
    one_contended_wave(&mut on, 0);
    one_contended_wave(&mut off, 0);

    let mut on_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
    let mut off_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
    for rev in 1..=ROUNDS {
        if contention_keys_left(&on) < 8 {
            on = instrumented_system(&format!("tel-ratio-on-{rev}"), &registry);
        }
        if contention_keys_left(&off) < 8 {
            off = contention_system(&format!("tel-ratio-off-{rev}"), SUBMITTERS, ROWS);
        }
        let time_wave = |bench: &mut ContentionBench, out: &mut Vec<u64>| {
            let t = Instant::now();
            one_contended_wave(bench, rev);
            out.push(t.elapsed().as_nanos() as u64);
        };
        if rev % 2 == 0 {
            time_wave(&mut on, &mut on_ns);
            time_wave(&mut off, &mut off_ns);
        } else {
            time_wave(&mut off, &mut off_ns);
            time_wave(&mut on, &mut on_ns);
        }
    }

    // The instrumented arm must actually have recorded — a recorder that
    // silently fell off would make the ratio measure nothing.
    let snap = registry.snapshot();
    let waves = snap.counter("chain.waves").unwrap_or(0);
    assert!(
        waves > ROUNDS as u64,
        "instrumented arm recorded {waves} waves, expected > {ROUNDS}"
    );
    assert!(
        snap.histogram("wave.total_us").is_some_and(|h| h.count > 0),
        "wave latency histogram fed"
    );

    on_ns.sort_unstable();
    off_ns.sort_unstable();
    let ratio = on_ns[on_ns.len() / 2] as f64 / off_ns[off_ns.len() / 2] as f64;
    println!(
        "telemetry overhead: enabled median {} µs vs disabled median {} µs → ratio {ratio:.4} \
         (ceiling {CEILING})",
        on_ns[on_ns.len() / 2] / 1_000,
        off_ns[off_ns.len() / 2] / 1_000,
    );
    if ratio > CEILING {
        eprintln!("telemetry_overhead: ratio {ratio:.4} exceeds the {CEILING} ceiling");
        std::process::exit(1);
    }
}
