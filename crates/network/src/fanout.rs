//! A deterministic scoped-thread worker pool.
//!
//! [`run_partitioned`] executes jobs on a pool of scoped [`std::thread`]
//! workers (no runtime dependencies). Jobs are split into *contiguous*
//! chunks, each chunk runs sequentially on its own worker, and results
//! come back in input order — so the outcome is byte-identical no matter
//! how many OS threads actually ran.
//!
//! A compile fence with no production caller: the frozen `benchmark/`
//! crate times this function for `network.fanout_dispatch_us`
//! (`benchmark/src/ladder.rs`), and `benchmark/` does not change. The
//! receivers of a committed update apply it one after another
//! (`medledger_core::System`); work that pays for threads, such as
//! receiver-side signing, may bring its own pool here.

/// Splits `items` into at most `workers` contiguous chunks whose sizes
/// differ by at most one. Returns `(start, end)` half-open ranges; empty
/// input yields no chunks.
fn partition_bounds(items: usize, workers: usize) -> Vec<(usize, usize)> {
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
/// Jobs are partitioned into balanced contiguous chunks; each executes
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
}
