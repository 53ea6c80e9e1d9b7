//! Deterministic fan-out worker pool.
//!
//! The Fig. 2 "send/request updated data" path fans one committed update
//! out to every sharing peer. This module supplies the two halves the
//! engine needs to do that concurrently **without** giving up reproducible
//! results:
//!
//! * [`run_partitioned`] executes per-receiver jobs on a pool of scoped
//!   [`std::thread`] workers (no runtime dependencies). Jobs are split
//!   into *contiguous* chunks, each chunk runs sequentially on its own
//!   worker, and results come back in input order — so the outcome is
//!   byte-identical no matter how many OS threads actually ran.
//! * [`run_sharded`] is the shard-granular partitioning mode: per-receiver
//!   groups of per-shard jobs flatten onto one pool, so a single
//!   receiver's disjoint shards (a sharded peer store) still fill every
//!   worker — results come back per group, byte-identical for any worker
//!   count.
//! * [`schedule_ms`] mirrors the same partition in *virtual* time: given
//!   per-receiver service durations, it computes when each receiver has
//!   the data if `workers` parallel channels serve the chunks
//!   sequentially. With `workers >= receivers` every transfer overlaps
//!   (the fully-parallel data plane); with `workers == 1` the transfers
//!   serialize (the paper-literal one-at-a-time baseline).
//!
//! Keeping the execution partition and the virtual-time model on the same
//! [`partition_bounds`] is what makes traces, receipts and latency numbers
//! independent of the host's core count.

/// Splits `items` into at most `workers` contiguous chunks whose sizes
/// differ by at most one. Returns `(start, end)` half-open ranges; empty
/// input yields no chunks.
pub fn partition_bounds(items: usize, workers: usize) -> Vec<(usize, usize)> {
    if items == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, items);
    let base = items / workers;
    let extra = items % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Runs `f` over `jobs` on up to `workers` scoped threads, returning the
/// results **in input order**.
///
/// Jobs are partitioned with [`partition_bounds`]; each chunk executes
/// sequentially on one worker, so two jobs in the same chunk never race
/// and the result vector is independent of thread scheduling. With
/// `workers <= 1` (or a single job) everything runs inline on the caller's
/// thread — the pool never changes *what* is computed, only *where*.
pub fn run_partitioned<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let bounds = partition_bounds(n, workers);
    let mut chunks: Vec<Vec<J>> = Vec::with_capacity(bounds.len());
    let mut it = jobs.into_iter();
    for (start, end) in &bounds {
        chunks.push(it.by_ref().take(end - start).collect());
    }
    let f = &f;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(chunk) => results.push(chunk),
                // A job panicked: carry its payload to the caller's thread.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    results.into_iter().flatten().collect()
}

/// Shard-granular partitioning: runs per-receiver **groups** of per-shard
/// jobs on one pool, returning per-group results in input order.
///
/// This is [`run_partitioned`] with the partition grain moved from whole
/// receivers to individual shards: all groups' jobs are flattened into a
/// single list, split into contiguous chunks across up to `workers`
/// scoped threads, and reassembled group-by-group afterwards. One
/// receiver's disjoint shards therefore apply in parallel even when it is
/// the only receiver — the shape a sharded peer store produces — and the
/// result is byte-identical for any worker count, exactly as for
/// [`run_partitioned`].
pub fn run_sharded<J, R, F>(groups: Vec<Vec<J>>, workers: usize, f: F) -> Vec<Vec<R>>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let flat: Vec<J> = groups.into_iter().flatten().collect();
    let mut results = run_partitioned(flat, workers, f).into_iter();
    sizes
        .iter()
        .map(|&n| results.by_ref().take(n).collect())
        .collect()
}

/// Virtual-time completion of each item under `workers` parallel channels.
///
/// Item `i` takes `service_ms[i]` on its channel; channels serve their
/// [`partition_bounds`] chunk sequentially starting at `start_ms`. Returns
/// the completion time of every item, in input order. With
/// `workers >= len` each item completes at `start_ms + service_ms[i]`
/// (full overlap); with `workers == 1` completions accumulate (serial).
pub fn schedule_ms(start_ms: u64, service_ms: &[u64], workers: usize) -> Vec<u64> {
    let mut done = vec![0u64; service_ms.len()];
    for (s, e) in partition_bounds(service_ms.len(), workers) {
        let mut t = start_ms;
        for i in s..e {
            t += service_ms[i];
            done[i] = t;
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_items_contiguously() {
        for items in [0usize, 1, 5, 16, 17] {
            for workers in [1usize, 2, 4, 100] {
                let b = partition_bounds(items, workers);
                let total: usize = b.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, items, "items={items} workers={workers}");
                let mut next = 0;
                for (s, e) in &b {
                    assert_eq!(*s, next);
                    assert!(e > s, "no empty chunks");
                    next = *e;
                }
                if items > 0 {
                    let sizes: Vec<usize> = b.iter().map(|(s, e)| e - s).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "balanced chunks");
                }
            }
        }
    }

    #[test]
    fn run_partitioned_preserves_input_order() {
        let jobs: Vec<usize> = (0..33).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let out = run_partitioned(jobs.clone(), workers, |j| j * 2);
            assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_partitioned_results_independent_of_worker_count() {
        let jobs: Vec<u64> = (0..17).collect();
        let serial = run_partitioned(jobs.clone(), 1, |j| j * j + 1);
        for workers in [2usize, 5, 17] {
            assert_eq!(
                run_partitioned(jobs.clone(), workers, |j| j * j + 1),
                serial
            );
        }
    }

    #[test]
    fn run_sharded_reassembles_groups_in_order() {
        let groups: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![], vec![4], vec![5, 6]];
        for workers in [1usize, 2, 4, 16] {
            let out = run_sharded(groups.clone(), workers, |j| j * 10);
            assert_eq!(
                out,
                vec![vec![10, 20, 30], vec![], vec![40], vec![50, 60]],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn schedule_overlaps_with_enough_workers_and_serializes_with_one() {
        let service = vec![10, 20, 30, 40];
        let overlapped = schedule_ms(100, &service, 4);
        assert_eq!(overlapped, vec![110, 120, 130, 140]);
        let serial = schedule_ms(100, &service, 1);
        assert_eq!(serial, vec![110, 130, 160, 200]);
        // Two channels: chunks [0,1] and [2,3] accumulate independently.
        let two = schedule_ms(100, &service, 2);
        assert_eq!(two, vec![110, 130, 130, 170]);
        // The parallel makespan beats the serial one.
        assert!(overlapped.iter().max() < serial.iter().max());
    }

    #[test]
    fn schedule_handles_empty_input() {
        assert!(schedule_ms(0, &[], 4).is_empty());
    }
}
