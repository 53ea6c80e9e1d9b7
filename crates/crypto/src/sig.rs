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
//! a verification ≈ 550.
//!
//! The scheme's unforgeability reduces to the preimage resistance of
//! SHA-256, which is exactly the strength the paper's architecture needs
//! from its Ethereum accounts.

use crate::hash::Hash256;
use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::{sha256, sha256_concat, OneBlock, Sha256};
use std::fmt;

/// Base-16 digits of a message digest, one hash chain each.
const MESSAGE_DIGITS: usize = 64;

/// Steps from a chain's secret to its public end: the largest digit.
const STEPS: u8 = 15;

/// Hash chains per one-time key: the 64 message digits plus the 3 base-16
/// digits of their checksum (`64 × 15 = 960 < 16³`).
const CHAINS: usize = MESSAGE_DIGITS + 3;

/// Domain tag of a chain step; followed by the chain number, the step
/// number and the 32-byte value being advanced.
const STEP_TAG: &[u8] = b"medledger.wots.step:";

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
        self.verify_digest(public, &sha256(msg))
    }

    /// [`Signature::verify`] for a message whose SHA-256 is `digest`.
    fn verify_digest(&self, public: &PublicKey, digest: &Hash256) -> bool {
        if self.chains.len() != CHAINS || self.auth_path.leaf_index != self.leaf_index {
            return false;
        }
        // Walk every chain from the revealed position to its end: the ends
        // are the one-time public key, whose hash is the Merkle leaf.
        let digits = digits_of(digest);
        let ends = (0u8..)
            .zip(self.chains.iter().zip(digits))
            .map(|(chain, (value, digit))| walk(chain, *value, digit, STEPS));
        self.auth_path.verify(&public.0, &leaf_of(ends))
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
        Self::over_leaves(seed, Self::ots_leaves(&seed, capacity, threads))
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
    /// so the result does not depend on `threads`.
    fn ots_leaves(seed: &Hash256, count: usize, threads: usize) -> Vec<Hash256> {
        let mut leaves = vec![Hash256::ZERO; count];
        let fill = |first: usize, stretch: &mut [Hash256]| {
            for (i, leaf) in stretch.iter_mut().enumerate() {
                *leaf = Self::ots_leaf_hash(seed, (first + i) as u64);
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

    /// The secret start of chain `chain` of one-time key `key_index`.
    fn ots_secret(seed: &Hash256, key_index: u64, chain: u8) -> Hash256 {
        sha256_concat(&[
            SECRET_TAG,
            seed.as_bytes(),
            &key_index.to_be_bytes(),
            &[chain],
        ])
    }

    fn ots_leaf_hash(seed: &Hash256, key_index: u64) -> Hash256 {
        leaf_of(
            (0..CHAINS as u8)
                .map(|chain| walk(chain, Self::ots_secret(seed, key_index, chain), 0, STEPS)),
        )
    }

    /// Signs `msg`, consuming the next one-time key.
    pub fn sign(&mut self, msg: &[u8]) -> Result<Signature, SigningError> {
        if self.next_index >= self.capacity {
            return Err(SigningError::KeysExhausted);
        }
        let idx = self.next_index;
        // Every index below the capacity has a leaf, so a proof.
        let auth_path = (self.tree.prove(idx as usize)).ok_or(SigningError::KeysExhausted)?;
        self.next_index += 1;
        let chains = (0u8..)
            .zip(digits_of(&sha256(msg)))
            .map(|(chain, digit)| walk(chain, Self::ots_secret(&self.seed, idx, chain), 0, digit))
            .collect();
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

    /// Leaf derivation split over threads is the serial loop: same leaves
    /// for any thread count (also more threads than leaves, and stretches
    /// of unequal length), hence the same public key and signatures.
    #[test]
    fn parallel_leaf_derivation_matches_serial() {
        let seed = sha256(b"parallel-leaves");
        for capacity in [1usize, 2, 63, 64, 256] {
            let rounded = capacity.next_power_of_two();
            let serial = KeyPair::ots_leaves(&seed, rounded, 1);
            assert_eq!(serial.len(), rounded);
            for threads in [2, 3, 8] {
                assert_eq!(
                    KeyPair::ots_leaves(&seed, rounded, threads),
                    serial,
                    "{rounded} leaves on {threads} threads"
                );
            }
            // A count no thread count divides: leaf `i` depends on `i` alone.
            assert_eq!(
                KeyPair::ots_leaves(&seed, capacity, 4),
                serial[..capacity],
                "{capacity} leaves on 4 threads"
            );

            let mut oracle = KeyPair::over_leaves(seed, serial);
            let mut keys = KeyPair::from_seed(seed, capacity);
            assert_eq!(keys.capacity, rounded as u64);
            assert_eq!(keys.public(), oracle.public(), "capacity {capacity}");
            let signature = keys.sign(b"same bytes").expect("sign");
            assert_eq!(signature, oracle.sign(b"same bytes").expect("sign"));
            assert!(signature.verify(&oracle.public(), b"same bytes"));
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
        assert!(sig.verify_digest(&public, &digest));
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
            assert!(!forged.verify_digest(&public, &raised), "digit {j}");
            assert!(!forged.verify_digest(&public, &digest), "digit {j}");
            tried += 1;
        }
        assert!(tried > 32, "a SHA-256 digest has few 0xf digits");
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
