//! Hash-based digital signatures: Winternitz one-time signatures under a
//! Merkle tree (a small Merkle Signature Scheme, MSS).
//!
//! This gives MedLedger *publicly verifiable* transaction signatures built
//! entirely from SHA-256:
//!
//! * A [`KeyPair`] deterministically derives `capacity` Winternitz one-time
//!   keys from a seed; the **public key is the Merkle root** over the
//!   one-time public keys, and doubles as the account identifier on the
//!   permissioned ledger.
//! * A one-time key is [`Signature::CHAINS`] = 67 hash chains of 15 steps
//!   each. The message digest is read as 64 base-16 digits, followed by
//!   the 3 digits of the checksum `Σ (15 − digit)`; a [`Signature`]
//!   reveals, per digit `d`, the value `d` steps along that chain, plus
//!   the Merkle authentication path to the root — 67 × 32 B ≈ 2.1 KiB +
//!   path. The verifier walks each chain its remaining `15 − d` steps and
//!   must land on the one-time public key. Raising a message digit lowers
//!   the checksum, and a chain cannot be walked backwards, which is what
//!   makes a revealed signature useless for any other digest.
//! * Signing consumes one-time keys; reusing an exhausted key pair is an
//!   error ([`SigningError::KeysExhausted`]), never silent reuse.
//!
//! Every chain step is one SHA-256 compression: its input (tag, chain
//! number, step number, 32-byte value) pads to a single block. A one-time
//! key costs ≈ 1 100 compressions to derive, a signature ≈ 600 on average,
//! a verification ≈ 550. The 67 chains of a key are independent, so sign,
//! verify and key generation all hand theirs to one `walk_chains`: on a CPU
//! with `avx512f` it walks sixteen chains per pass of SHA-256's lane kernel
//! (see [`mod@crate::sha256`]), a lane taking the next chain as soon as its
//! own ends. Counted in lane passes, a key is ≈ 67 (keys are derived
//! sixteen at a time, 16 × 67 chains of 15 steps), a signature's walks
//! ≈ 32 and a verification's ≈ 33, plus 5 for the 67 secrets of signing
//! and key generation. Elsewhere the chains walk one by one.
//!
//! The scheme's unforgeability reduces to the preimage resistance of
//! SHA-256, which is exactly the strength the paper's architecture needs
//! from its Ethereum accounts.

use crate::hash::Hash256;
use crate::merkle::{MerkleProof, MerkleTree};
#[cfg(target_arch = "x86_64")]
use crate::sha256::{digest_tails, ChainLanes, HEAD_LEN, LANES};
use crate::sha256::{sha256, sha256_concat, Lanes, OneBlock, Sha256};
use std::fmt;
use std::ops::Range;

/// Base-16 digits of a message digest, one hash chain each.
const MESSAGE_DIGITS: usize = 64;

/// Steps from a chain's secret to its public end: the largest digit.
const STEPS: u8 = 15;

/// Hash chains per one-time key: the 64 message digits plus the 3 base-16
/// digits of their checksum (`64 × 15 = 960 < 16³`).
const CHAINS: usize = MESSAGE_DIGITS + 3;

/// Domain tag of a chain step; followed by the chain number, the step
/// number and the 32-byte value being advanced.
const STEP_TAG: &[u8; 20] = b"medledger.wots.step:";

/// Domain tag of a chain's secret start; followed by the seed, the
/// one-time key's index and the chain number.
const SECRET_TAG: &[u8] = b"medledger.sk:";

/// Bytes a chain step hashes.
const STEP_LEN: usize = STEP_TAG.len() + 2 + 32;

/// Bytes a secret is derived from.
const SECRET_LEN: usize = SECRET_TAG.len() + 32 + 8 + 1;

// Both fit SHA-256's single padded block (≤ 55 message bytes), so a chain
// step and a secret are one compression each.
const _: () = assert!(STEP_LEN <= OneBlock::MAX);
const _: () = assert!(SECRET_LEN <= OneBlock::MAX);

/// Fewest one-time keys worth deriving on more than one thread: a leaf is
/// ≈1 100 compressions, so below this a thread spawn is not paid back.
const PARALLEL_MIN_LEAVES: usize = 64;

/// A verifying key: the Merkle root over the one-time public keys.
///
/// Also used as the account identifier (`AccountId`) across the ledger.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PublicKey(pub Hash256);

impl PublicKey {
    /// Short hex prefix for traces.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.0.short())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.short())
    }
}

/// Errors from signing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningError {
    /// All `capacity` one-time keys have been consumed.
    KeysExhausted,
}

impl fmt::Display for SigningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigningError::KeysExhausted => write!(f, "all one-time signing keys consumed"),
        }
    }
}

impl std::error::Error for SigningError {}

/// A Merkle/Winternitz signature.
#[derive(Clone, PartialEq, Eq)]
pub struct Signature {
    /// Which one-time key was used.
    pub leaf_index: u64,
    /// Per digit of the message digest and its checksum: the value that
    /// many steps along the chain. Exactly [`Signature::CHAINS`] values.
    pub chains: Vec<Hash256>,
    /// Authentication path from the one-time public key to the root.
    pub auth_path: MerkleProof,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(leaf={}, depth={})",
            self.leaf_index,
            self.auth_path.depth()
        )
    }
}

/// The chain positions a digest selects: its 64 base-16 digits, most
/// significant first, then the 3 digits of the checksum `Σ (15 − digit)`.
fn digits_of(digest: &Hash256) -> [u8; CHAINS] {
    let mut digits = [0u8; CHAINS];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(digest.as_bytes()) {
        pair[0] = byte >> 4;
        pair[1] = byte & 0x0f;
    }
    let checksum: u16 = digits[..MESSAGE_DIGITS]
        .iter()
        .map(|&d| u16::from(STEPS - d))
        .sum();
    digits[MESSAGE_DIGITS] = (checksum >> 8) as u8;
    digits[MESSAGE_DIGITS + 1] = (checksum >> 4) as u8 & 0x0f;
    digits[MESSAGE_DIGITS + 2] = checksum as u8 & 0x0f;
    digits
}

/// Advances `value`, which sits `from` steps along chain `chain`, to `to`
/// steps along it (`from ≤ to ≤ STEPS`). Step `s` is
/// `sha256(STEP_TAG ‖ [chain, s] ‖ value)`: one compression, on a block
/// whose tag and padding are laid out once per walk.
fn walk(chain: u8, mut value: Hash256, from: u8, to: u8) -> Hash256 {
    let mut block = OneBlock::new(STEP_LEN);
    let message = block.message_mut();
    message[..STEP_TAG.len()].copy_from_slice(STEP_TAG);
    message[STEP_TAG.len()] = chain;
    for step in from..to {
        let message = block.message_mut();
        message[STEP_TAG.len() + 1] = step;
        message[STEP_TAG.len() + 2..].copy_from_slice(value.as_bytes());
        value = block.digest();
    }
    value
}

/// One chain to walk: `value` sits `from` steps along chain `chain` and is
/// to be advanced to step `to` (`from ≤ to ≤ STEPS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Walk {
    chain: u8,
    from: u8,
    to: u8,
    value: Hash256,
}

/// Advances every walk to its `to` step, as [`walk`] does one by one: on
/// [`Lanes::Sixteen`] sixteen chains per pass, on [`Lanes::One`] with
/// [`walk`] itself. Sign, verify and key generation all walk through here.
fn walk_chains(lanes: Lanes, walks: &mut [Walk]) {
    match lanes {
        Lanes::One => {
            for w in walks.iter_mut() {
                w.value = walk(w.chain, w.value, w.from, w.to);
                w.from = w.to;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Lanes::Sixteen(cpu) => walk_lanes(ChainLanes::new(cpu, STEP_TAG), walks),
    }
}

/// [`walk_chains`] on the lane kernel. Longest walks first, and a lane whose
/// walk ends takes the next one, so all sixteen stay busy until the queue
/// runs dry; then every lane runs to its end in one call.
#[cfg(target_arch = "x86_64")]
fn walk_lanes(mut lanes: ChainLanes, walks: &mut [Walk]) {
    let mut queue: Vec<usize> = (0..walks.len())
        .filter(|&i| walks[i].from < walks[i].to)
        .collect();
    queue.sort_unstable_by_key(|&i| std::cmp::Reverse(walks[i].to - walks[i].from));
    let mut queue = queue.into_iter();
    let mut held = [None::<usize>; LANES];
    loop {
        for (lane, slot) in held.iter_mut().enumerate() {
            if lanes.remaining(lane) > 0 {
                continue;
            }
            if let Some(i) = slot.take() {
                walks[i].value = lanes.value(lane);
                walks[i].from = walks[i].to;
            }
            if let Some(i) = queue.next() {
                let w = walks[i];
                lanes.load(lane, w.chain, &w.value, w.from, w.to);
                *slot = Some(i);
            }
        }
        let left = (0..LANES).map(|lane| lanes.remaining(lane));
        let passes = if queue.len() == 0 {
            left.max()
        } else {
            left.filter(|&n| n > 0).min()
        };
        match passes {
            Some(passes) if passes > 0 => lanes.advance(passes),
            _ => return,
        }
    }
}

/// The Merkle leaf of a one-time key: the hash of its chain ends, in order.
fn leaf_of(ends: impl Iterator<Item = Hash256>) -> Hash256 {
    let mut h = Sha256::new();
    h.update(b"medledger.wots.leaf:");
    for end in ends {
        h.update(end.as_bytes());
    }
    h.finalize()
}

impl Signature {
    /// Number of chain values in a well-formed signature. Anything else is
    /// rejected by [`Signature::verify`] and by the storage codec.
    pub const CHAINS: usize = CHAINS;

    /// Verifies this signature over `msg` against `public`.
    pub fn verify(&self, public: &PublicKey, msg: &[u8]) -> bool {
        self.verify_digest(Lanes::detect(), public, &sha256(msg))
    }

    /// [`Signature::verify`] for a message whose SHA-256 is `digest`.
    fn verify_digest(&self, lanes: Lanes, public: &PublicKey, digest: &Hash256) -> bool {
        if self.chains.len() != CHAINS || self.auth_path.leaf_index != self.leaf_index {
            return false;
        }
        // Walk every chain from the revealed position to its end: the ends
        // are the one-time public key, whose hash is the Merkle leaf.
        let mut walks: Vec<Walk> = (0u8..)
            .zip(self.chains.iter().zip(digits_of(digest)))
            .map(|(chain, (&value, digit))| Walk {
                chain,
                from: digit,
                to: STEPS,
                value,
            })
            .collect();
        walk_chains(lanes, &mut walks);
        self.auth_path
            .verify(&public.0, &leaf_of(walks.iter().map(|w| w.value)))
    }
}

/// A signing key: `capacity` Winternitz one-time keys under one Merkle root.
///
/// All secret material is derived on demand from a 32-byte seed, so the
/// in-memory footprint is small regardless of capacity.
#[derive(Clone)]
pub struct KeyPair {
    seed: Hash256,
    capacity: u64,
    next_index: u64,
    tree: MerkleTree,
    public: PublicKey,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyPair(pk={}, used={}/{})",
            self.public.short(),
            self.next_index,
            self.capacity
        )
    }
}

impl KeyPair {
    /// Deterministically generates a key pair from a label.
    ///
    /// `capacity` (rounded up to the next power of two, min 1) bounds how
    /// many messages the key can sign.
    pub fn generate(label: &str, capacity: usize) -> Self {
        let seed = sha256_concat(&[b"medledger.keypair.v1:", label.as_bytes()]);
        Self::from_seed(seed, capacity)
    }

    /// Generates a key pair from an explicit 32-byte seed.
    pub fn from_seed(seed: Hash256, capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let threads = if capacity < PARALLEL_MIN_LEAVES {
            1
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        };
        Self::over_leaves(
            seed,
            Self::ots_leaves(Lanes::detect(), &seed, capacity, threads),
        )
    }

    /// The key pair of `seed` over its already derived `leaves`.
    fn over_leaves(seed: Hash256, leaves: Vec<Hash256>) -> Self {
        let capacity = leaves.len() as u64;
        let tree = MerkleTree::from_leaves(leaves);
        let public = PublicKey(tree.root());
        KeyPair {
            seed,
            capacity,
            next_index: 0,
            tree,
            public,
        }
    }

    /// The `count` (≥ 1) one-time public keys under `seed`, hashed to
    /// Merkle leaves on `threads` (≥ 1) threads, the caller's included,
    /// each filling its own stretch of the result. Leaves are independent,
    /// so the result depends on neither `threads` nor `lanes`.
    fn ots_leaves(lanes: Lanes, seed: &Hash256, count: usize, threads: usize) -> Vec<Hash256> {
        let mut leaves = vec![Hash256::ZERO; count];
        let fill = |first: usize, stretch: &mut [Hash256]| {
            // Sixteen keys at a time: their 16 × 67 chains of 15 steps keep
            // all sixteen lanes busy for 67 passes.
            for (n, batch) in stretch.chunks_mut(16).enumerate() {
                let first = (first + 16 * n) as u64;
                Self::ots_leaf_hashes(lanes, seed, first..first + batch.len() as u64, batch);
            }
        };
        let per_thread = count.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut stretches = leaves.chunks_mut(per_thread).enumerate();
            let own = stretches.next();
            for (n, stretch) in stretches {
                scope.spawn(move || fill(n * per_thread, stretch));
            }
            if let Some((_, stretch)) = own {
                fill(0, stretch);
            }
        });
        leaves
    }

    /// The verifying key (account identifier).
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// One-time keys still available.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.next_index
    }

    /// One-time keys already consumed (the next leaf index to sign with).
    pub fn used(&self) -> u64 {
        self.next_index
    }

    /// Restores the consumed-key watermark after recovering a key pair
    /// via [`KeyPair::generate`] / [`KeyPair::from_seed`].
    ///
    /// Durable storage persists only `(label-derived seed, used)` — never
    /// secret material — and a recovered signer must not reuse a one-time
    /// key it already revealed, so the watermark only ever moves forward.
    pub fn restore_used(&mut self, used: u64) {
        self.next_index = self.next_index.max(used.min(self.capacity));
    }

    /// The message a chain's secret start is the hash of: the tag, the
    /// seed, the one-time key's index and the chain number.
    fn secret_message(seed: &Hash256, key_index: u64, chain: u8) -> [u8; SECRET_LEN] {
        let mut m = [0u8; SECRET_LEN];
        let (tag, rest) = m.split_at_mut(SECRET_TAG.len());
        tag.copy_from_slice(SECRET_TAG);
        rest[..32].copy_from_slice(seed.as_bytes());
        rest[32..40].copy_from_slice(&key_index.to_be_bytes());
        rest[40] = chain;
        m
    }

    /// The walks from the secret starts of every chain of one-time keys
    /// `keys`, key by key, chain `c` to step `to(c)`.
    fn secret_walks(
        lanes: Lanes,
        seed: &Hash256,
        keys: Range<u64>,
        to: impl Fn(usize) -> u8,
    ) -> Vec<Walk> {
        let messages = keys
            .flat_map(|key| (0..CHAINS as u8).map(move |chain| (key, chain)))
            .map(|(key, chain)| Self::secret_message(seed, key, chain));
        let secrets: Vec<Hash256> = match lanes {
            Lanes::One => messages.map(|m| sha256(&m)).collect(),
            // The seed ends inside the messages' common head, so the lanes
            // take the seed's last byte, the key index and the chain number.
            #[cfg(target_arch = "x86_64")]
            Lanes::Sixteen(cpu) => {
                let first = Self::secret_message(seed, 0, 0);
                let mut head = [0u8; HEAD_LEN];
                head.copy_from_slice(&first[..HEAD_LEN]);
                let tails: Vec<[u8; SECRET_LEN - HEAD_LEN]> = messages
                    .map(|m| {
                        let mut tail = [0u8; SECRET_LEN - HEAD_LEN];
                        tail.copy_from_slice(&m[HEAD_LEN..]);
                        tail
                    })
                    .collect();
                digest_tails(cpu, &head, &tails)
            }
        };
        (0..CHAINS)
            .cycle()
            .zip(secrets)
            .map(|(chain, value)| Walk {
                chain: chain as u8,
                from: 0,
                to: to(chain),
                value,
            })
            .collect()
    }

    /// The Merkle leaves of one-time keys `keys`, into `leaves`.
    fn ots_leaf_hashes(lanes: Lanes, seed: &Hash256, keys: Range<u64>, leaves: &mut [Hash256]) {
        let mut walks = Self::secret_walks(lanes, seed, keys, |_| STEPS);
        walk_chains(lanes, &mut walks);
        for (leaf, ends) in leaves.iter_mut().zip(walks.chunks_exact(CHAINS)) {
            *leaf = leaf_of(ends.iter().map(|w| w.value));
        }
    }

    /// Signs `msg`, consuming the next one-time key.
    pub fn sign(&mut self, msg: &[u8]) -> Result<Signature, SigningError> {
        self.sign_on(Lanes::detect(), msg)
    }

    fn sign_on(&mut self, lanes: Lanes, msg: &[u8]) -> Result<Signature, SigningError> {
        if self.next_index >= self.capacity {
            return Err(SigningError::KeysExhausted);
        }
        let idx = self.next_index;
        // Every index below the capacity has a leaf, so a proof.
        let auth_path = (self.tree.prove(idx as usize)).ok_or(SigningError::KeysExhausted)?;
        self.next_index += 1;
        let digits = digits_of(&sha256(msg));
        let mut walks = Self::secret_walks(lanes, &self.seed, idx..idx + 1, |c| digits[c]);
        walk_chains(lanes, &mut walks);
        let chains = walks.iter().map(|w| w.value).collect();
        Ok(Signature {
            leaf_index: idx,
            chains,
            auth_path,
        })
    }
}

/// The canonical message a sharing peer signs to acknowledge that it
/// applied `version` of shared table `table_id` with content `applied_hash`.
///
/// Domain-tagged and length-unambiguous (the table id is followed by a NUL
/// that cannot occur inside it, then fixed-width fields), so the same
/// message is reconstructed identically by signer, verifier and auditor.
pub fn ack_message(table_id: &str, version: u64, applied_hash: &Hash256) -> Vec<u8> {
    let mut m = Vec::with_capacity(17 + table_id.len() + 1 + 8 + 32);
    m.extend_from_slice(b"medledger.ack.v1:");
    m.extend_from_slice(table_id.as_bytes());
    m.push(0);
    m.extend_from_slice(&version.to_be_bytes());
    m.extend_from_slice(applied_hash.as_bytes());
    m
}

impl Signature {
    /// Canonical digest of this signature's full content (leaf index,
    /// chain values, authentication path).
    ///
    /// Used as a signature *share* in aggregated acknowledgements: the
    /// digest commits to every byte of the share, so the fold over shares
    /// changes if any contributor's signature is altered.
    pub fn share_digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"medledger.ack.share.v2:");
        h.update(&self.leaf_index.to_be_bytes());
        for c in &self.chains {
            h.update(c.as_bytes());
        }
        h.update(&self.auth_path.leaf_index.to_be_bytes());
        for p in &self.auth_path.path {
            h.update(p.as_bytes());
        }
        h.finalize()
    }
}

/// Folds verified signature shares into one aggregate attestation hash.
///
/// The fold is a sequential SHA-256 chain seeded with the digest of the
/// common ack message, absorbing `(contributor, share digest)` pairs in the
/// given order. Callers pass contributors in canonical (sorted) order so
/// every node derives the same attestation; the result commits to the
/// message, the contributor set *and* each contributor's actual one-time
/// signature — there is no algebraic aggregation, only hash folding, which
/// keeps the scheme inside the paper's SHA-256-only trust base.
pub fn fold_attestation(message: &[u8], shares: &[(PublicKey, Hash256)]) -> Hash256 {
    let msg_digest = sha256(message);
    let mut acc = sha256_concat(&[b"medledger.ack.fold.v1:", msg_digest.as_bytes()]);
    for (contributor, share) in shares {
        acc = sha256_concat(&[
            b"medledger.ack.fold.step:",
            acc.as_bytes(),
            contributor.0.as_bytes(),
            share.as_bytes(),
        ]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = KeyPair::generate("alice", 4);
        let sig = kp.sign(b"update D23").expect("sign");
        assert!(sig.verify(&kp.public(), b"update D23"));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let mut kp = KeyPair::generate("alice", 4);
        let sig = kp.sign(b"update D23").expect("sign");
        assert!(!sig.verify(&kp.public(), b"update D13"));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut alice = KeyPair::generate("alice", 4);
        let bob = KeyPair::generate("bob", 4);
        let sig = alice.sign(b"m").expect("sign");
        assert!(!sig.verify(&bob.public(), b"m"));
    }

    #[test]
    fn each_signature_uses_fresh_leaf() {
        let mut kp = KeyPair::generate("carol", 4);
        let s1 = kp.sign(b"a").expect("sign");
        let s2 = kp.sign(b"b").expect("sign");
        assert_eq!(s1.leaf_index, 0);
        assert_eq!(s2.leaf_index, 1);
        assert!(s1.verify(&kp.public(), b"a"));
        assert!(s2.verify(&kp.public(), b"b"));
        assert_eq!(kp.remaining(), 2);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut kp = KeyPair::generate("dave", 2);
        assert_eq!(kp.capacity, 2);
        kp.sign(b"1").expect("sign 1");
        kp.sign(b"2").expect("sign 2");
        assert_eq!(kp.sign(b"3"), Err(SigningError::KeysExhausted));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let kp = KeyPair::generate("e", 3);
        assert_eq!(kp.capacity, 4);
        let kp = KeyPair::generate("e", 0);
        assert_eq!(kp.capacity, 1);
    }

    #[test]
    fn deterministic_public_key() {
        let a = KeyPair::generate("fixed", 4);
        let b = KeyPair::generate("fixed", 4);
        assert_eq!(a.public(), b.public());
        let c = KeyPair::generate("other", 4);
        assert_ne!(a.public(), c.public());
    }

    /// The lane kernel, or `None` (said aloud, so a test log shows the
    /// comparison did not run) on a CPU without `avx512f`.
    fn sixteen() -> Option<Lanes> {
        match Lanes::detect() {
            Lanes::One => {
                eprintln!("skipped: this CPU has no avx512f, the one-chain walk only");
                None
            }
            lanes => Some(lanes),
        }
    }

    /// The one-chain oracle first, then the lane kernel where there is one.
    fn all_lanes() -> Vec<Lanes> {
        std::iter::once(Lanes::One).chain(sixteen()).collect()
    }

    /// Leaf derivation split over threads and over lanes is the serial
    /// one-chain loop: same leaves for any thread count (also more threads
    /// than leaves, and stretches of unequal length) on either path, hence
    /// the same public key and the same signature bytes.
    #[test]
    fn parallel_leaf_derivation_matches_serial() {
        let seed = sha256(b"parallel-leaves");
        let msg = b"same bytes";
        for capacity in [1usize, 2, 63, 64, 256] {
            let rounded = capacity.next_power_of_two();
            let serial = KeyPair::ots_leaves(Lanes::One, &seed, rounded, 1);
            assert_eq!(serial.len(), rounded);
            for lanes in all_lanes() {
                for threads in [1, 2, 3, 8] {
                    assert_eq!(
                        KeyPair::ots_leaves(lanes, &seed, rounded, threads),
                        serial,
                        "{rounded} leaves on {threads} threads, {lanes:?}"
                    );
                }
                // A count no thread count divides: leaf `i` depends on `i` alone.
                assert_eq!(
                    KeyPair::ots_leaves(lanes, &seed, capacity, 4),
                    serial[..capacity],
                    "{capacity} leaves on 4 threads, {lanes:?}"
                );
            }

            let oracle = KeyPair::over_leaves(seed, serial);
            let keys = KeyPair::from_seed(seed, capacity);
            assert_eq!(keys.capacity, rounded as u64);
            assert_eq!(keys.public(), oracle.public(), "capacity {capacity}");
            let expect = oracle.clone().sign_on(Lanes::One, msg).expect("sign");
            assert_eq!(keys.clone().sign(msg).expect("sign"), expect);
            for lanes in all_lanes() {
                let signature = keys.clone().sign_on(lanes, msg).expect("sign");
                assert_eq!(signature, expect, "capacity {capacity}, {lanes:?}");
                assert!(signature.verify_digest(lanes, &oracle.public(), &sha256(msg)));
            }
        }
    }

    /// The walks `jobs` describe: `(chain, a, b, seed)` walks chain `chain`
    /// from `min(a, b)` to `max(a, b)` starting at `sha256(seed)`. `shape`
    /// 1 gives every walk the first one's steps, 2 makes every walk empty.
    fn walks_of(jobs: &[(u8, u8, u8, u64)], shape: u8) -> Vec<Walk> {
        let first = jobs.first().map_or((0, 0), |j| (j.1, j.2));
        jobs.iter()
            .map(|&(chain, a, b, seed)| {
                let (a, b) = match shape {
                    1 => first,
                    2 => (a, a),
                    _ => (a, b),
                };
                Walk {
                    chain,
                    from: a.min(b),
                    to: a.max(b),
                    value: sha256(&seed.to_be_bytes()),
                }
            })
            .collect()
    }

    /// `walks` advanced on `lanes`, checked against the one-chain [`walk`].
    fn check_lanes(lanes: Lanes, walks: &[Walk]) {
        let mut got = walks.to_vec();
        walk_chains(lanes, &mut got);
        for (w, got) in walks.iter().zip(&got) {
            let expect = Walk {
                from: w.to,
                value: walk(w.chain, w.value, w.from, w.to),
                ..*w
            };
            assert_eq!(*got, expect, "{w:?} on {lanes:?}");
        }
    }

    /// The lane kernel at the edges: no walks, only empty walks, sixteen
    /// and seventeen full-length ones, and one walk per length.
    #[test]
    fn lane_walks_match_one_chain_walks_at_the_edges() {
        for lanes in all_lanes() {
            let full: Vec<_> = (0..80).map(|i| (i as u8 % 67, 0, STEPS, i)).collect();
            let ragged: Vec<_> = (0..=STEPS).map(|n| (n, 0, n, u64::from(n))).collect();
            for walks in [
                Vec::new(),
                walks_of(&full, 2),
                walks_of(&full[..16], 0),
                walks_of(&full[..17], 0),
                walks_of(&full, 0),
                walks_of(&ragged, 0),
            ] {
                check_lanes(lanes, &walks);
            }
        }
    }

    /// A flipped byte in any one of the 67 chain values — message digits
    /// and checksum digits alike — breaks the signature.
    #[test]
    fn a_flipped_byte_in_any_chain_value_fails() {
        let mut kp = KeyPair::generate("mallory-target", 4);
        let sig = kp.sign(b"legit").expect("sign");
        assert_eq!(sig.chains.len(), Signature::CHAINS);
        assert_eq!(Signature::CHAINS, 67);
        for chain in 0..Signature::CHAINS {
            let mut bad = sig.clone();
            bad.chains[chain].0[chain % 32] ^= 0x01;
            assert!(!bad.verify(&kp.public(), b"legit"), "chain {chain}");
        }
        assert!(sig.verify(&kp.public(), b"legit"));
    }

    #[test]
    fn mismatched_leaf_index_fails() {
        let mut kp = KeyPair::generate("idx", 4);
        let mut sig = kp.sign(b"m").expect("sign");
        sig.leaf_index = 1; // auth path still for leaf 0
        assert!(!sig.verify(&kp.public(), b"m"));
        // Moving the path's index along as well proves a different leaf.
        sig.auth_path.leaf_index = 1;
        assert!(!sig.verify(&kp.public(), b"m"));
    }

    #[test]
    fn truncated_and_over_long_signatures_fail() {
        let mut kp = KeyPair::generate("trunc", 2);
        let sig = kp.sign(b"m").expect("sign");
        let mut short = sig.clone();
        short.chains.pop();
        assert!(!short.verify(&kp.public(), b"m"));
        let mut long = sig.clone();
        long.chains.push(Hash256::ZERO);
        assert!(!long.verify(&kp.public(), b"m"));
        // The shape an older build wrote: 512 values.
        let mut lamport = sig.clone();
        lamport.chains.resize(512, Hash256::ZERO);
        assert!(!lamport.verify(&kp.public(), b"m"));
        assert!(sig.verify(&kp.public(), b"m"));
    }

    /// A chain step is `sha256(tag ‖ [chain, step] ‖ value)`, domain-separated
    /// per chain and per step, and walks compose.
    #[test]
    fn a_chain_step_is_one_tagged_hash() {
        let x = sha256(b"start");
        let step = |chain: u8, step: u8, v: &Hash256| {
            sha256_concat(&[b"medledger.wots.step:", &[chain, step], v.as_bytes()])
        };
        assert_eq!(walk(5, x, 3, 3), x);
        assert_eq!(walk(5, x, 3, 4), step(5, 3, &x));
        assert_eq!(walk(66, x, 0, 2), step(66, 1, &step(66, 0, &x)));
        assert_ne!(walk(5, x, 3, 4), walk(6, x, 3, 4));
        assert_ne!(walk(5, x, 3, 4), walk(5, x, 4, 5));
        assert_eq!(walk(9, walk(9, x, 0, 6), 6, STEPS), walk(9, x, 0, STEPS));
    }

    #[test]
    fn digits_are_the_digest_nibbles_and_their_checksum() {
        let all_f = digits_of(&Hash256([0xff; 32]));
        assert_eq!(all_f[..MESSAGE_DIGITS], [15u8; MESSAGE_DIGITS]);
        assert_eq!(all_f[MESSAGE_DIGITS..], [0, 0, 0]);
        // Σ (15 − 0) over 64 digits = 960 = 0x3c0: the largest checksum.
        let zero = digits_of(&Hash256::ZERO);
        assert_eq!(zero[..MESSAGE_DIGITS], [0u8; MESSAGE_DIGITS]);
        assert_eq!(zero[MESSAGE_DIGITS..], [0x3, 0xc, 0x0]);
        let mut one = [0u8; 32];
        one[0] = 0xa5;
        let digits = digits_of(&Hash256(one));
        assert_eq!(digits[..2], [0xa, 0x5]);
        // 960 − 10 − 5 = 945 = 0x3b1.
        assert_eq!(digits[MESSAGE_DIGITS..], [0x3, 0xb, 0x1]);
    }

    /// The forgery the checksum exists to stop: from a signature on digest
    /// `d`, anyone can walk message chain `j` one step further and so hold
    /// valid values for every *message* digit of a digest that differs
    /// from `d` only in digit `j` being one higher. That digest's checksum
    /// is one lower, though, and no one can walk a checksum chain back.
    #[test]
    fn raising_any_single_message_digit_fails_on_the_checksum() {
        let mut kp = KeyPair::generate("forgery-target", 4);
        let public = kp.public();
        let msg = b"transfer 1";
        let digest = sha256(msg);
        let digits = digits_of(&digest);
        let sig = kp.sign(msg).expect("sign");
        assert!(sig.verify_digest(Lanes::One, &public, &digest));
        let end =
            |s: &Signature, at: &[u8; CHAINS], c: usize| walk(c as u8, s.chains[c], at[c], STEPS);

        let mut tried = 0;
        for j in (0..MESSAGE_DIGITS).filter(|&j| digits[j] < STEPS) {
            let mut raised = digest;
            raised.0[j / 2] += if j % 2 == 0 { 0x10 } else { 0x01 };
            let raised_digits = digits_of(&raised);
            assert_eq!(raised_digits[j], digits[j] + 1);

            let mut forged = sig.clone();
            forged.chains[j] = walk(j as u8, sig.chains[j], digits[j], digits[j] + 1);
            // Every message chain of the forgery reaches the true end ...
            for c in 0..MESSAGE_DIGITS {
                assert_eq!(end(&forged, &raised_digits, c), end(&sig, &digits, c));
            }
            // ... but some checksum chain does not, so it verifies for
            // neither digest.
            assert!((MESSAGE_DIGITS..CHAINS)
                .any(|c| end(&forged, &raised_digits, c) != end(&sig, &digits, c)));
            for lanes in all_lanes() {
                assert!(!forged.verify_digest(lanes, &public, &raised), "digit {j}");
                assert!(!forged.verify_digest(lanes, &public, &digest), "digit {j}");
            }
            tried += 1;
        }
        assert!(tried > 32, "a SHA-256 digest has few 0xf digits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane kernel walks any set of 0–80 chains as the one-chain
        /// walk does: chains 0–66 in any order and repeated, ragged
        /// lengths, every walk the same, or every walk empty.
        #[test]
        fn lane_walks_match_one_chain_walks(
            jobs in proptest::collection::vec((0u8..67, 0u8..16, 0u8..16, any::<u64>()), 0..81),
            shape in 0u8..3,
        ) {
            let Some(lanes) = sixteen() else { return Ok(()) };
            check_lanes(lanes, &walks_of(&jobs, shape));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Sign → verify over random messages at a random leaf; the
        /// signature verifies for that message under that key alone.
        #[test]
        fn sign_then_verify_at_any_leaf(
            msg in proptest::collection::vec(any::<u8>(), 0..200),
            leaf in 0u64..8,
            flip in 0usize..200,
        ) {
            let mut kp = KeyPair::generate("prop", 8);
            kp.restore_used(leaf);
            let sig = kp.sign(&msg).expect("sign");
            prop_assert_eq!(sig.leaf_index, leaf);
            prop_assert_eq!(sig.chains.len(), Signature::CHAINS);
            prop_assert!(sig.verify(&kp.public(), &msg));
            prop_assert!(!sig.verify(&KeyPair::generate("other", 8).public(), &msg));
            let mut other = msg.clone();
            match other.get_mut(flip) {
                Some(byte) => *byte ^= 0x40,
                None => other.push(0),
            }
            prop_assert!(!sig.verify(&kp.public(), &other));
        }
    }

    #[test]
    fn ack_message_is_unambiguous() {
        let h = Hash256([5; 32]);
        let a = ack_message("D13&D31", 3, &h);
        let b = ack_message("D13&D31", 4, &h);
        let c = ack_message("D13&D3", 13, &h);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Deterministic.
        assert_eq!(a, ack_message("D13&D31", 3, &h));
    }

    #[test]
    fn share_digest_commits_to_every_byte() {
        let mut kp = KeyPair::generate("share", 4);
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let sig = kp.sign(&msg).expect("sign");
        let d = sig.share_digest();
        let mut tampered = sig.clone();
        tampered.chains[0] = Hash256([0xaa; 32]);
        assert_ne!(d, tampered.share_digest());
        let mut tampered2 = sig.clone();
        tampered2.leaf_index ^= 1;
        assert_ne!(d, tampered2.share_digest());
    }

    #[test]
    fn fold_attestation_is_order_and_content_sensitive() {
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let mut a = KeyPair::generate("fold-a", 4);
        let mut b = KeyPair::generate("fold-b", 4);
        let sa = (a.public(), a.sign(&msg).expect("a").share_digest());
        let sb = (b.public(), b.sign(&msg).expect("b").share_digest());
        let ab = fold_attestation(&msg, &[sa, sb]);
        let ba = fold_attestation(&msg, &[sb, sa]);
        assert_ne!(ab, ba);
        // Deterministic given the same order.
        assert_eq!(ab, fold_attestation(&msg, &[sa, sb]));
        // Commits to the message.
        let other_msg = ack_message("T", 2, &Hash256([2; 32]));
        assert_ne!(ab, fold_attestation(&other_msg, &[sa, sb]));
        // Commits to the contributor set (empty vs non-empty differ).
        assert_ne!(ab, fold_attestation(&msg, &[sa]));
    }
}
