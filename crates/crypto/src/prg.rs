//! Deterministic pseudo-random byte generator (SHA-256 in counter mode).
//!
//! Every stochastic component in MedLedger (key derivation, simulated
//! network latency, workload generation fallbacks) draws from a seeded
//! [`Prg`], so whole-system experiments are reproducible bit for bit.
//! This is *not* meant to be a CSPRNG for production secrets; it is the
//! reproducibility backbone of the simulation.

use crate::hash::Hash256;
use crate::sha256::sha256_concat;

/// SHA-256 counter-mode byte stream.
#[derive(Clone, Debug)]
pub struct Prg {
    seed: Hash256,
    counter: u64,
    buf: [u8; 32],
    buf_pos: usize,
}

impl Prg {
    /// Creates a generator from a 32-byte seed.
    pub fn new(seed: Hash256) -> Self {
        Prg {
            seed,
            counter: 0,
            buf: [0u8; 32],
            buf_pos: 32, // force refill on first use
        }
    }

    /// Creates a generator from a string label (hashed to a seed).
    pub fn from_label(label: &str) -> Self {
        Self::new(sha256_concat(&[b"medledger.prg.v1:", label.as_bytes()]))
    }

    /// Derives an independent child generator. Children with different
    /// labels produce statistically independent streams.
    pub fn child(&self, label: &str) -> Prg {
        Prg::new(sha256_concat(&[
            b"medledger.prg.child:",
            self.seed.as_bytes(),
            label.as_bytes(),
        ]))
    }

    fn refill(&mut self) {
        let block = sha256_concat(&[
            b"medledger.prg.block:",
            self.seed.as_bytes(),
            &self.counter.to_be_bytes(),
        ]);
        self.buf = *block.as_bytes();
        self.counter += 1;
        self.buf_pos = 0;
    }

    /// Fills `out` with pseudo-random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            if self.buf_pos == 32 {
                self.refill();
            }
            *b = self.buf[self.buf_pos];
            self.buf_pos += 1;
        }
    }

    /// Returns the next 32 pseudo-random bytes as a digest-shaped value.
    pub fn next_hash(&mut self) -> Hash256 {
        let mut out = [0u8; 32];
        self.fill(&mut out);
        Hash256(out)
    }

    /// Returns a pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut out = [0u8; 8];
        self.fill(&mut out);
        u64::from_be_bytes(out)
    }

    /// Returns a pseudo-random value in `[0, bound)`.
    ///
    /// Uses rejection sampling to avoid modulo bias; `bound` must be > 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound == 1 {
            return 0;
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a pseudo-random `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// The generator's resumable position: `(counter, buf_pos)`.
    ///
    /// The seed is *not* part of the state — callers that persist a
    /// generator re-derive the seed from the same label and restore the
    /// position with [`Prg::restore_state`], so no seed material ever
    /// needs to leave memory.
    pub fn state(&self) -> (u64, usize) {
        (self.counter, self.buf_pos)
    }

    /// Restores a position previously captured with [`Prg::state`].
    ///
    /// The stream after a restore is byte-identical to the stream the
    /// captured generator would have produced (the current block is
    /// re-derived from the counter when partially consumed).
    pub fn restore_state(&mut self, counter: u64, buf_pos: usize) {
        let buf_pos = buf_pos.min(32);
        if buf_pos < 32 && counter > 0 {
            // Re-derive the partially consumed block: `refill` advanced
            // the counter after producing it.
            let block = sha256_concat(&[
                b"medledger.prg.block:",
                self.seed.as_bytes(),
                &(counter - 1).to_be_bytes(),
            ]);
            self.buf = *block.as_bytes();
        }
        self.counter = counter;
        self.buf_pos = if counter == 0 { 32 } else { buf_pos };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prg::from_label("x");
        let mut b = Prg::from_label("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = Prg::from_label("x");
        let mut b = Prg::from_label("y");
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn children_are_independent_streams() {
        let root = Prg::from_label("root");
        let mut c1 = root.child("net");
        let mut c2 = root.child("keys");
        assert_ne!(c1.next_hash(), c2.next_hash());
        // Child derivation does not consume parent state.
        let mut root2 = Prg::from_label("root");
        let mut root1 = root.clone();
        assert_eq!(root1.next_u64(), root2.next_u64());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut p = Prg::from_label("range");
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = p.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should appear");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut p = Prg::from_label("f64");
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = p.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn fill_across_block_boundaries() {
        let mut a = Prg::from_label("blk");
        let mut big = vec![0u8; 100];
        a.fill(&mut big);
        let mut b = Prg::from_label("blk");
        let mut parts = vec![0u8; 100];
        b.fill(&mut parts[..7]);
        b.fill(&mut parts[7..64]);
        b.fill(&mut parts[64..]);
        assert_eq!(big, parts);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut p = Prg::from_label("bern");
        for _ in 0..50 {
            assert!(!p.bernoulli(0.0));
            assert!(p.bernoulli(1.0));
        }
    }
}
