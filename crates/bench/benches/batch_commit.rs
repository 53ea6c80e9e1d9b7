//! Group-commit scaling: consensus cost amortization × fan-out width.
//!
//! The claims under test (ISSUE 3 acceptance):
//!
//! * **Consensus rounds per committed update → ~1/batch-size** for
//!   batches of distinct-table updates: the whole group's
//!   `request_update` transactions share one block and one scheduled
//!   PBFT round (ack rounds amortize across tables too, so total
//!   blocks/update drops from `1 + receivers` to
//!   `(1 + receivers) / batch`).
//! * **Parallel fan-out beats serial propagation** at wide receiver
//!   sets: with one virtual data channel the last of `R` receivers sees
//!   the update after the *sum* of transfer latencies, with `R` channels
//!   after the *max* — and the per-receiver verify/apply work runs on a
//!   worker pool, so multicore hosts overlap the CPU cost as well.
//!
//! Each measured iteration drives whole commits through one
//! `LedgerService` wave (request txs, consensus, fan-out, acks), so
//! wall-clock numbers include the full pipeline. The non-timing groups
//! print the virtual-time accounting next to the wall numbers.

use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use medledger_bench::{hub_system, one_group_commit, serial_commits};

const ROWS_PER_TABLE: usize = 8;

fn bench_group_commit_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_commit");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for receivers in [4usize, 16] {
        for batch in [1usize, 4, 16, 64] {
            let label = format!("peers{receivers}/batch{batch}");
            g.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
                let mut bench = hub_system("bench-batch", batch, receivers, ROWS_PER_TABLE, 0);
                let mut rev = 0usize;
                b.iter(|| {
                    rev += 1;
                    // Each group consumes `batch` hub keys and `batch`
                    // keys per receiver; rebuild before they run dry.
                    let keys = bench.service.ledger().remaining_keys(bench.hub);
                    if keys.expect("keys") < (batch + 4) as u64 {
                        bench = hub_system(
                            &format!("bench-batch-{rev}"),
                            batch,
                            receivers,
                            ROWS_PER_TABLE,
                            0,
                        );
                    }
                    one_group_commit(&mut bench, batch, rev)
                })
            });
        }
    }
    g.finish();
}

fn bench_rounds_per_update_report(c: &mut Criterion) {
    // Not a timing bench: prints the consensus-amortization accounting —
    // blocks (= scheduled PBFT rounds) per committed update, grouped vs
    // serial, and the amortized virtual sync latency per update.
    let mut g = c.benchmark_group("batch_commit_rounds");
    g.sample_size(10);
    const RECEIVERS: usize = 4;
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>16}",
        "mode", "batch", "blocks/update", "rounds ratio", "sync ms/update"
    );
    for batch in [1usize, 4, 16, 64] {
        let mut grouped = hub_system("bench-rounds-g", batch, RECEIVERS, ROWS_PER_TABLE, 0);
        let (gblocks, gsync) = one_group_commit(&mut grouped, batch, 1);
        let mut serial = hub_system("bench-rounds-s", batch, RECEIVERS, ROWS_PER_TABLE, 0);
        let (sblocks, ssync) = serial_commits(&mut serial, batch, 1);
        if batch == 64 {
            // The headline amortization at the widest batch (virtual-sim
            // deterministic — tracked by the CI bench-trajectory gate).
            record_metric(
                "grouped_blocks_per_update_64",
                gblocks as f64 / batch as f64,
            );
            record_metric(
                "grouped_vs_serial_rounds_ratio_64",
                gblocks as f64 / sblocks as f64,
            );
        }
        println!(
            "{:<10} {:>6} {:>14.3} {:>14.3} {:>16.1}",
            "grouped",
            batch,
            gblocks as f64 / batch as f64,
            gblocks as f64 / sblocks as f64,
            gsync as f64 / batch as f64,
        );
        println!(
            "{:<10} {:>6} {:>14.3} {:>14.3} {:>16.1}",
            "serial",
            batch,
            sblocks as f64 / batch as f64,
            1.0,
            ssync as f64 / batch as f64,
        );
    }
    g.finish();
}

fn bench_fanout_width(c: &mut Criterion) {
    // One table, 16 receivers: serial (1 virtual channel, 1 worker) vs
    // parallel (one channel per receiver + worker pool). Wall-clock is
    // measured by criterion; the virtual visibility latency is printed.
    let mut g = c.benchmark_group("batch_commit_fanout");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    const RECEIVERS: usize = 16;
    for (label, workers) in [("serial", 1usize), ("parallel", 0)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("receivers{RECEIVERS}/{label}")),
            &workers,
            |b, &workers| {
                let mut bench = hub_system("bench-fan", 1, RECEIVERS, ROWS_PER_TABLE, workers);
                let mut rev = 0usize;
                b.iter(|| {
                    rev += 1;
                    let keys = bench.service.ledger().remaining_keys(bench.hub);
                    if keys.expect("keys") < 8 {
                        bench = hub_system(
                            &format!("bench-fan-{rev}"),
                            1,
                            RECEIVERS,
                            ROWS_PER_TABLE,
                            workers,
                        );
                    }
                    one_group_commit(&mut bench, 1, rev)
                })
            },
        );
        let mut bench = hub_system("bench-fan-report", 1, RECEIVERS, ROWS_PER_TABLE, workers);
        let outcome = bench
            .service
            .ledger_mut()
            .session(bench.hub)
            .begin("ward-0")
            .set(
                vec![medledger_relational::Value::Int(0)],
                "dosage",
                medledger_relational::Value::text("probe"),
            )
            .commit()
            .expect("commit");
        println!(
            "fanout {label:<9} receivers={RECEIVERS} visibility={} ms sync={} ms",
            outcome.visibility_latency_ms(),
            outcome.sync_latency_ms()
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_group_commit_sweep,
    bench_rounds_per_update_report,
    bench_fanout_width
);
criterion_main!(benches);
