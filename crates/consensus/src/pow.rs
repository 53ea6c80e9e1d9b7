//! Proof-of-work block-interval model.
//!
//! The paper (Sec. IV-1) reasons about update latency under public
//! Ethereum's ~12-second block creation time. We model PoW block
//! production as a Poisson process: inter-block times are exponentially
//! distributed around a configurable mean. This reproduces the
//! characteristic the architecture cares about — when the *next* block
//! (and thus the next permission-checked update) lands — without hashing.

use medledger_crypto::Prg;

/// Exponential inter-block time generator.
#[derive(Clone, Debug)]
pub struct PowModel {
    mean_interval_ms: u64,
    prg: Prg,
}

impl PowModel {
    /// Ethereum-like mean interval (the paper's 12 s).
    pub const ETHEREUM_MEAN_MS: u64 = 12_000;

    /// Creates a model with the given mean block interval.
    pub fn new(mean_interval_ms: u64, seed: &str) -> Self {
        PowModel {
            mean_interval_ms: mean_interval_ms.max(1),
            prg: Prg::from_label(&format!("pow-{seed}")),
        }
    }

    /// An Ethereum-like model (12 s mean).
    pub fn ethereum(seed: &str) -> Self {
        Self::new(Self::ETHEREUM_MEAN_MS, seed)
    }

    /// Samples the time until the next block (ms, at least 1).
    pub fn next_interval_ms(&mut self) -> u64 {
        // Inverse-CDF sampling of Exp(1/mean): -mean * ln(1 - U).
        let u = self.prg.next_f64();
        let interval = -(self.mean_interval_ms as f64) * (1.0 - u).ln();
        (interval.round() as u64).max(1)
    }

    /// The interval generator's resumable position (see [`Prg::state`]),
    /// captured by durable-storage flushes so a recovered PoW model
    /// samples the same future block intervals the live one would have.
    pub fn prg_state(&self) -> (u64, usize) {
        self.prg.state()
    }

    /// Restores a position captured with [`PowModel::prg_state`].
    pub fn restore_prg_state(&mut self, counter: u64, buf_pos: usize) {
        self.prg.restore_state(counter, buf_pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_approximately_respected() {
        let mut m = PowModel::new(12_000, "mean-test");
        let n = 3_000;
        let total: u64 = (0..n).map(|_| m.next_interval_ms()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (10_500.0..13_500.0).contains(&mean),
            "sample mean {mean} too far from 12000"
        );
    }

    #[test]
    fn intervals_vary_exponentially() {
        let mut m = PowModel::new(1_000, "var-test");
        let samples: Vec<u64> = (0..2_000).map(|_| m.next_interval_ms()).collect();
        // An exponential has P(X < mean) ≈ 63%; check a loose band.
        let below = samples.iter().filter(|&&s| s < 1_000).count();
        let frac = below as f64 / samples.len() as f64;
        assert!((0.55..0.72).contains(&frac), "P(X<mean) = {frac}");
        // And a visible long tail.
        assert!(samples.iter().any(|&s| s > 3_000));
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut m = PowModel::ethereum("s1");
            (0..10).map(|_| m.next_interval_ms()).collect()
        };
        let b: Vec<u64> = {
            let mut m = PowModel::ethereum("s1");
            (0..10).map(|_| m.next_interval_ms()).collect()
        };
        let c: Vec<u64> = {
            let mut m = PowModel::ethereum("s2");
            (0..10).map(|_| m.next_interval_ms()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn minimum_interval_is_one() {
        let mut m = PowModel::new(1, "min");
        for _ in 0..100 {
            assert!(m.next_interval_ms() >= 1);
        }
    }
}
