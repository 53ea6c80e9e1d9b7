//! Latency models for the simulated network.

use medledger_crypto::Prg;

/// How long a message takes to deliver, in virtual milliseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant {
        /// Delay in ms.
        ms: u64,
    },
    /// Uniformly distributed in `[min_ms, max_ms]`.
    Uniform {
        /// Minimum delay.
        min_ms: u64,
        /// Maximum delay (inclusive).
        max_ms: u64,
    },
    /// Mostly `base_ms`, but with probability `spike_prob` the message
    /// takes `spike_ms` (models congestion / long-tail delays).
    Spiky {
        /// Common-case delay.
        base_ms: u64,
        /// Probability of a spike.
        spike_prob: f64,
        /// Spike delay.
        spike_ms: u64,
    },
}

impl LatencyModel {
    /// A LAN-ish default: uniform 2–8 ms.
    pub fn lan() -> Self {
        LatencyModel::Uniform {
            min_ms: 2,
            max_ms: 8,
        }
    }

    /// A WAN-ish default: uniform 30–120 ms.
    pub fn wan() -> Self {
        LatencyModel::Uniform {
            min_ms: 30,
            max_ms: 120,
        }
    }

    /// Samples a delay.
    pub fn sample(&self, prg: &mut Prg) -> u64 {
        match self {
            LatencyModel::Constant { ms } => *ms,
            LatencyModel::Uniform { min_ms, max_ms } => {
                let span = max_ms.saturating_sub(*min_ms) + 1;
                min_ms + prg.next_below(span)
            }
            LatencyModel::Spiky {
                base_ms,
                spike_prob,
                spike_ms,
            } => {
                if prg.bernoulli(*spike_prob) {
                    *spike_ms
                } else {
                    *base_ms
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut prg = Prg::from_label("lat");
        let m = LatencyModel::Constant { ms: 7 };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut prg), 7);
        }
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let mut prg = Prg::from_label("lat-u");
        let m = LatencyModel::Uniform {
            min_ms: 5,
            max_ms: 9,
        };
        let samples: Vec<u64> = (0..200).map(|_| m.sample(&mut prg)).collect();
        assert!(samples.iter().all(|&s| (5..=9).contains(&s)));
        assert!(samples.contains(&5));
        assert!(samples.contains(&9));
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut prg = Prg::from_label("lat-d");
        let m = LatencyModel::Uniform {
            min_ms: 4,
            max_ms: 4,
        };
        assert_eq!(m.sample(&mut prg), 4);
    }

    #[test]
    fn spiky_mixes_base_and_spike() {
        let mut prg = Prg::from_label("lat-s");
        let m = LatencyModel::Spiky {
            base_ms: 3,
            spike_prob: 0.3,
            spike_ms: 300,
        };
        let samples: Vec<u64> = (0..300).map(|_| m.sample(&mut prg)).collect();
        let spikes = samples.iter().filter(|&&s| s == 300).count();
        assert!(samples.iter().all(|&s| s == 3 || s == 300));
        assert!(spikes > 40 && spikes < 150, "spikes: {spikes}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = LatencyModel::lan();
        let a: Vec<u64> = {
            let mut p = Prg::from_label("det");
            (0..20).map(|_| m.sample(&mut p)).collect()
        };
        let b: Vec<u64> = {
            let mut p = Prg::from_label("det");
            (0..20).map(|_| m.sample(&mut p)).collect()
        };
        assert_eq!(a, b);
    }
}
