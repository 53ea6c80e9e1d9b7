//! Ticketed-pipeline throughput under same-table contention.
//!
//! The claim under test (ISSUE 4 acceptance): `n` concurrent submissions
//! against ONE shared table commit in ONE block / one scheduled PBFT
//! round via composed deltas — the `LedgerService` admits them as a
//! single combined member with per-submitter co-request receipts —
//! versus the PR-3 baseline, where the same-table conflict rule forces
//! one full commit (request round + ack rounds) per update.
//!
//! The timing group measures wall-clock for a full submit→drain round at
//! each contention level; the report group prints the consensus
//! accounting: blocks per update (combined vs serial) and tickets
//! resolved per drain.

use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use medledger_bench::{
    ack_rounds_in_last_blocks, contention_keys_left, contention_system, hub_system_with_acks,
    one_contended_wave, one_group_commit, serial_contended_commits,
};

const ROWS: usize = 8;

fn bench_contention_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_throughput");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    for submitters in [1usize, 2, 4, 8] {
        let label = format!("submitters{submitters}/combined");
        g.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            let mut bench = contention_system("bench-pipe", submitters, ROWS);
            let mut rev = 0usize;
            b.iter(|| {
                rev += 1;
                if contention_keys_left(&bench) < 8 {
                    bench = contention_system(&format!("bench-pipe-{rev}"), submitters, ROWS);
                }
                one_contended_wave(&mut bench, rev)
            })
        });
        let label = format!("submitters{submitters}/serial");
        g.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            let mut bench = contention_system("bench-pipe-s", submitters, ROWS);
            let mut rev = 0usize;
            b.iter(|| {
                rev += 1;
                if contention_keys_left(&bench) < 8 {
                    bench = contention_system(&format!("bench-pipe-s-{rev}"), submitters, ROWS);
                }
                serial_contended_commits(&mut bench, rev)
            })
        });
    }
    g.finish();
}

fn bench_blocks_per_update_report(c: &mut Criterion) {
    // Not a timing bench: prints the consensus-amortization accounting
    // for same-table contention — blocks (= scheduled PBFT rounds) per
    // update, combined wave vs the serial-conflict baseline, plus the
    // tickets one drain resolves.
    let g = c.benchmark_group("pipeline_throughput_rounds");
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>18}",
        "mode", "submitters", "blocks/update", "rounds ratio", "tickets/drain"
    );
    for submitters in [1usize, 2, 4, 8] {
        let mut combined = contention_system("pipe-rounds-c", submitters, ROWS);
        let (cblocks, resolved) = one_contended_wave(&mut combined, 1);
        combined
            .service
            .ledger()
            .check_consistency()
            .expect("combined consistent");
        let mut serial = contention_system("pipe-rounds-s", submitters, ROWS);
        let sblocks = serial_contended_commits(&mut serial, 1);
        serial
            .service
            .ledger()
            .check_consistency()
            .expect("serial consistent");
        println!(
            "{:<10} {:>10} {:>14.3} {:>14.3} {:>18}",
            "combined",
            submitters,
            cblocks as f64 / submitters as f64,
            cblocks as f64 / sblocks as f64,
            resolved,
        );
        if submitters == 8 {
            // The headline consensus-amortization numbers the CI
            // bench-trajectory gate tracks (virtual-sim deterministic).
            record_metric(
                "combined_blocks_per_update_8",
                cblocks as f64 / submitters as f64,
            );
            record_metric(
                "combined_vs_serial_rounds_ratio_8",
                cblocks as f64 / sblocks as f64,
            );
        }
        println!(
            "{:<10} {:>10} {:>14.3} {:>14.3} {:>18}",
            "serial",
            submitters,
            sblocks as f64 / submitters as f64,
            1.0,
            "-",
        );
    }
    g.finish();
}

fn bench_receiver_sweep_report(c: &mut Criterion) {
    // Not a timing bench: the ISSUE 7 chain-cost model. One group-commit
    // wave of BATCH distinct-table updates at increasing receiver
    // counts, aggregated threshold acks vs the legacy per-receiver
    // protocol. Aggregated, the wave pays ~2 blocks total (one shared
    // request block + ONE shared aggregated-ack block), so blocks/update
    // ≈ 2/batch *independent of R*; legacy, the ack side grows with the
    // receiver count.
    const BATCH: usize = 4;
    let g = c.benchmark_group("pipeline_throughput_receivers");
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "acks", "receivers", "blocks/update", "ack rounds/wave"
    );
    for receivers in [2usize, 8, 32] {
        for (label, aggregated) in [("aggregated", true), ("legacy", false)] {
            let mut bench = hub_system_with_acks(
                &format!("ack-sweep-{label}-{receivers}"),
                BATCH,
                receivers,
                ROWS,
                0,
                aggregated,
            );
            let (blocks, _sync) = one_group_commit(&mut bench, BATCH, 1);
            let ledger = bench.service.ledger();
            ledger.check_consistency().expect("consistent");
            let ack_rounds = ack_rounds_in_last_blocks(ledger, blocks);
            let blocks_per_update = blocks as f64 / BATCH as f64;
            println!(
                "{:<12} {:>10} {:>14.3} {:>16}",
                label, receivers, blocks_per_update, ack_rounds
            );
            if aggregated {
                // Deterministic virtual-sim outputs, tracked by the CI
                // bench-trajectory gate: the aggregated wave's chain cost
                // must stay O(1) in the receiver count.
                match receivers {
                    2 => record_metric("blocks_per_update_r2", blocks_per_update),
                    8 => record_metric("blocks_per_update_r8", blocks_per_update),
                    32 => {
                        record_metric("blocks_per_update_r32", blocks_per_update);
                        record_metric("ack_rounds_per_wave", ack_rounds as f64);
                    }
                    _ => {}
                }
            }
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_contention_sweep,
    bench_blocks_per_update_report,
    bench_receiver_sweep_report
);
criterion_main!(benches);
