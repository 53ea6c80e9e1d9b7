//! Order statistics over raw samples.
//!
//! The telemetry crate's log₂ histograms are too coarse for a
//! regression bound (a bucket spans a factor of two), so the driver
//! keeps every sample and ranks them here.

/// The `q`-quantile (`0.0..=1.0`) by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. Returns
/// 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Samples strictly beyond the `q`-quantile rank — the count printed
/// beside every percentile so a reader can see whether it is supported
/// (the rule of thumb is at least ten).
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: count samples at or below each candidate of the sorted
    /// vector until the share reaches `q`.
    fn reference(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        for (i, v) in sorted.iter().enumerate() {
            if (i + 1) as f64 >= q * sorted.len() as f64 {
                return *v;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentile_matches_sorted_vector_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for n in [1usize, 2, 3, 10, 19, 20, 21, 100, 1000] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 10_000) as f64 / 7.0
                })
                .collect();
            for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    percentile(&samples, q),
                    reference(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn percentile_on_known_vector() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(beyond(20, 0.95), 1);
        assert_eq!(beyond(1000, 0.95), 50);
        assert_eq!(beyond(0, 0.95), 0);
        assert_eq!(median(&v), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
