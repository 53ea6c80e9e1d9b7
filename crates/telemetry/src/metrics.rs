//! The lock-free metric primitives: [`Counter`], [`Gauge`], the
//! log₂-bucketed [`Histogram`], and the fixed-slot [`HeatMap`].
//!
//! Every hot-path operation is a handful of relaxed atomic ops — no
//! locks, no allocation, no branching on observer state. Read-side
//! snapshots tolerate concurrent writers: a snapshot taken mid-update
//! is a valid point-in-time view of each individual cell (cross-cell
//! consistency is not promised, matching what statistics can offer
//! without stopping the world).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)` (the last bucket's upper
/// bound saturates at `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed number of heat-map slots. Exceeding it never loses data
/// silently: spill lands in the map's `overflow` tally.
pub const HEATMAP_SLOTS: usize = 256;

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

/// One heat-map slot: an owner tag claimed once by CAS, then two
/// relaxed tallies attributed to it.
#[derive(Debug)]
struct HeatSlot {
    /// 0 = unclaimed; otherwise the FNV-1a tag of the owning
    /// (table, shard) key. Claimed exactly once, never released.
    tag: AtomicU64,
    count: AtomicU64,
    bytes: AtomicU64,
}

/// Fixed-slot activity map keyed by `(table, shard)`.
///
/// The hot path is lock-free: a slot is found by linear probing on the
/// key's 64-bit tag and claimed with a single CAS; after that, updates
/// are two relaxed adds. Labels (the human-readable table name behind
/// a tag) are published exactly once per slot through a mutex on the
/// cold claim path, never on the update path. When every slot is taken
/// the spill is tallied in `overflow` rather than dropped silently.
#[derive(Debug)]
pub struct HeatMap {
    slots: Vec<HeatSlot>,
    overflow: Counter,
    labels: Mutex<std::collections::BTreeMap<u64, (String, u64)>>,
}

impl Default for HeatMap {
    fn default() -> Self {
        HeatMap {
            slots: (0..HEATMAP_SLOTS)
                .map(|_| HeatSlot {
                    tag: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                })
                .collect(),
            overflow: Counter::new(),
            labels: Mutex::new(std::collections::BTreeMap::new()),
        }
    }
}

/// FNV-1a over the (table, shard) key, forced nonzero so 0 can mean
/// "unclaimed slot".
fn heat_tag(table: &str, shard: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in table.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in shard.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.max(1)
}

impl HeatMap {
    /// Fresh, empty map.
    pub fn new() -> Self {
        HeatMap::default()
    }

    /// Attributes `count` events and `bytes` payload to `(table,
    /// shard)`.
    pub fn record(&self, table: &str, shard: u64, count: u64, bytes: u64) {
        let tag = heat_tag(table, shard);
        let start = (tag % HEATMAP_SLOTS as u64) as usize;
        for probe in 0..self.slots.len() {
            let slot = &self.slots[(start + probe) % self.slots.len()];
            // ordering: heat-slot-tag
            let owner = slot.tag.load(Ordering::Acquire);
            let claimed = owner == tag
                || (owner == 0
                    && match slot.tag.compare_exchange(
                        0,
                        tag,
                        Ordering::AcqRel,  // ordering: heat-slot-claim
                        Ordering::Acquire, // ordering: heat-slot-claim
                    ) {
                        Ok(_) => {
                            self.labels
                                .lock()
                                // lint: allow(unwrap) — poisoned only by a
                                // panic while held, and a map insert or
                                // clone under it does not panic.
                                .expect("heat map label lock")
                                .insert(tag, (table.to_string(), shard));
                            true
                        }
                        Err(actual) => actual == tag,
                    });
            if claimed {
                // ordering: telemetry-relaxed
                slot.count.fetch_add(count, Ordering::Relaxed);
                // ordering: telemetry-relaxed
                slot.bytes.fetch_add(bytes, Ordering::Relaxed);
                return;
            }
        }
        self.overflow.add(count);
    }

    /// Point-in-time view, cells sorted by (table, shard).
    pub fn snapshot(&self) -> HeatMapSnapshot {
        // lint: allow(unwrap) — as in `record`.
        let labels = self.labels.lock().expect("heat map label lock").clone();
        let mut cells = Vec::new();
        for slot in &self.slots {
            // ordering: heat-slot-tag
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            let (table, shard) = match labels.get(&tag) {
                Some((t, s)) => (t.clone(), *s),
                // Claim published the tag but the label write is still
                // in flight on another thread; skip this cell for now.
                None => continue,
            };
            cells.push(HeatCell {
                table,
                shard,
                // ordering: telemetry-relaxed
                count: slot.count.load(Ordering::Relaxed),
                // ordering: telemetry-relaxed
                bytes: slot.bytes.load(Ordering::Relaxed),
            });
        }
        cells.sort_by(|a, b| (&a.table, a.shard).cmp(&(&b.table, b.shard)));
        HeatMapSnapshot {
            cells,
            overflow: self.overflow.get(),
        }
    }
}

/// One (table, shard) cell of a heat-map snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatCell {
    /// Table the activity belongs to.
    pub table: String,
    /// Shard index within the table.
    pub shard: u64,
    /// Attributed event count (rows applied, for the shard heat map).
    pub count: u64,
    /// Attributed payload bytes.
    pub bytes: u64,
}

/// Plain-data view of a [`HeatMap`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeatMapSnapshot {
    /// Claimed cells, sorted by (table, shard).
    pub cells: Vec<HeatCell>,
    /// Events that arrived after every slot was claimed by other keys.
    pub overflow: u64,
}

impl HeatMapSnapshot {
    /// Tables present in the map, deduplicated, in order.
    pub fn tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if out.last() != Some(&c.table.as_str()) {
                out.push(&c.table);
            }
        }
        out
    }
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
    fn heat_map_attributes_cells_and_overflows_loudly() {
        let map = HeatMap::new();
        map.record("Prescription", 0, 3, 120);
        map.record("Prescription", 1, 1, 40);
        map.record("Prescription", 0, 2, 80);
        map.record("Treatment", 0, 5, 500);
        let snap = map.snapshot();
        assert_eq!(snap.overflow, 0);
        assert_eq!(snap.tables(), vec!["Prescription", "Treatment"]);
        assert_eq!(
            snap.cells,
            vec![
                HeatCell {
                    table: "Prescription".into(),
                    shard: 0,
                    count: 5,
                    bytes: 200
                },
                HeatCell {
                    table: "Prescription".into(),
                    shard: 1,
                    count: 1,
                    bytes: 40
                },
                HeatCell {
                    table: "Treatment".into(),
                    shard: 0,
                    count: 5,
                    bytes: 500
                },
            ]
        );

        // Fill every slot with distinct keys, then one more: the spill
        // must be tallied, not lost.
        let full = HeatMap::new();
        for s in 0..HEATMAP_SLOTS as u64 {
            full.record("t", s, 1, 1);
        }
        full.record("spill", 0, 9, 9);
        let snap = full.snapshot();
        assert_eq!(snap.cells.len(), HEATMAP_SLOTS);
        assert_eq!(snap.overflow, 9);
    }

    #[test]
    fn heat_map_is_deterministic_across_thread_interleavings() {
        // Hammer the same small key set from several threads; every
        // interleaving must conserve totals.
        let map = std::sync::Arc::new(HeatMap::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let map = std::sync::Arc::clone(&map);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    map.record("Prescription", (t + i) % 3, 1, 2);
                }
            }));
        }
        for h in handles {
            h.join().expect("heat map writer thread");
        }
        let snap = map.snapshot();
        assert_eq!(snap.overflow, 0);
        assert_eq!(snap.cells.iter().map(|c| c.count).sum::<u64>(), 1000);
        assert_eq!(snap.cells.iter().map(|c| c.bytes).sum::<u64>(), 2000);
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
