//! The lock-free metric primitives: [`Counter`], [`Gauge`] and the
//! log₂-bucketed [`Histogram`].
//!
//! Every hot-path operation is a handful of relaxed atomic ops — no
//! locks, no allocation, no branching on observer state. Read-side
//! snapshots tolerate concurrent writers: a snapshot taken mid-update
//! is a valid point-in-time view of each individual cell (cross-cell
//! consistency is not promised, matching what statistics can offer
//! without stopping the world).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)` (the last bucket's upper
/// bound saturates at `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonically increasing event tally.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: telemetry-relaxed
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: telemetry-relaxed
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value with a high-water helper.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        // ordering: telemetry-relaxed
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        // ordering: telemetry-relaxed
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: telemetry-relaxed
        self.value.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: 0 for the value 0, otherwise
/// `⌊log₂ v⌋ + 1` (so bucket `i` spans `[2^(i-1), 2^i)`).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// Log₂-bucketed latency/size histogram.
///
/// Recording is one relaxed `fetch_add` per tracked cell; percentile
/// estimates interpolate inside the winning bucket, so an estimate is
/// always within the same power-of-two bucket as the true
/// nearest-rank percentile (the property the unit tests pin down).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        // ordering: telemetry-relaxed
        self.count.fetch_add(1, Ordering::Relaxed);
        // ordering: telemetry-relaxed
        self.sum.fetch_add(v, Ordering::Relaxed);
        // ordering: telemetry-relaxed
        self.min.fetch_min(v, Ordering::Relaxed);
        // ordering: telemetry-relaxed
        self.max.fetch_max(v, Ordering::Relaxed);
        // ordering: telemetry-relaxed
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time summary with p50/p95/p99 estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            // ordering: telemetry-relaxed
            buckets[i] = b.load(Ordering::Relaxed);
        }
        // Derive the count from the bucket copy so the percentile ranks
        // are consistent with the distribution we actually walked (the
        // shared `count` cell may have advanced since).
        let count: u64 = buckets.iter().sum();
        // ordering: telemetry-relaxed
        let sum = self.sum.load(Ordering::Relaxed);
        // ordering: telemetry-relaxed
        let min_raw = self.min.load(Ordering::Relaxed);
        let min = if count == 0 { 0 } else { min_raw };
        // ordering: telemetry-relaxed
        let max = self.max.load(Ordering::Relaxed);
        let pct = |q_num: u64, q_den: u64| percentile(&buckets, count, min, max, q_num, q_den);
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: pct(50, 100),
            p95: pct(95, 100),
            p99: pct(99, 100),
        }
    }
}

/// Nearest-rank percentile estimate over a bucket array: find the
/// bucket holding rank `⌈q·n⌉`, then interpolate linearly inside it
/// and clamp to the observed `[min, max]` envelope (which never moves
/// the estimate out of the winning bucket).
fn percentile(
    buckets: &[u64; HISTOGRAM_BUCKETS],
    count: u64,
    min: u64,
    max: u64,
    q_num: u64,
    q_den: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (count.saturating_mul(q_num).div_ceil(q_den))
        .max(1)
        .min(count);
    let mut before = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if before + n >= rank {
            let (lo, hi) = bucket_bounds(i);
            let pos = rank - before; // 1..=n within this bucket
            let est = lo + ((hi - lo) / n) * (pos - 1);
            return est.clamp(min, max);
        }
        before += n;
    }
    max
}

/// Plain-data view of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i > 0 {
                let (_, prev_hi) = bucket_bounds(i - 1);
                assert_eq!(lo, prev_hi + 1, "buckets {i} and {} abut", i - 1);
            }
        }
    }

    /// Nearest-rank reference percentile over raw values.
    fn reference_percentile(values: &mut [u64], q_num: u64, q_den: u64) -> u64 {
        values.sort_unstable();
        let n = values.len() as u64;
        let rank = ((n * q_num).div_ceil(q_den)).max(1);
        values[(rank - 1) as usize]
    }

    #[test]
    fn percentiles_match_scalar_reference_bucket() {
        // Several shapes: uniform, exponential-ish, heavy tail, tiny.
        let shapes: Vec<Vec<u64>> = vec![
            (0..1000).collect(),
            (0..200).map(|i: u64| i * i).collect(),
            (0..500)
                .map(|i: u64| if i.is_multiple_of(50) { 1 << 20 } else { i % 8 })
                .collect(),
            vec![7],
            vec![0, 0, 0, 1],
        ];
        for mut values in shapes {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let snap = h.snapshot();
            assert_eq!(snap.count, values.len() as u64);
            assert_eq!(snap.sum, values.iter().sum::<u64>());
            assert_eq!(snap.min, *values.iter().min().expect("non-empty"));
            assert_eq!(snap.max, *values.iter().max().expect("non-empty"));
            for (est, q_num) in [(snap.p50, 50), (snap.p95, 95), (snap.p99, 99)] {
                let reference = reference_percentile(&mut values, q_num, 100);
                assert_eq!(
                    bucket_index(est),
                    bucket_index(reference),
                    "p{q_num} estimate {est} must land in the reference \
                     percentile's bucket (reference {reference})"
                );
                assert!(est >= snap.min && est <= snap.max);
            }
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(5);
        c.add(1);
        assert_eq!(c.get(), 6);
        let g = Gauge::new();
        g.set(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
        g.set_max(12);
        assert_eq!(g.get(), 12);
    }
}
