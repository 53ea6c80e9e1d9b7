//! Hash-based digital signatures: Lamport one-time signatures under a
//! Merkle tree (a small Merkle Signature Scheme, MSS).
//!
//! This gives MedLedger *publicly verifiable* transaction signatures built
//! entirely from SHA-256:
//!
//! * A [`KeyPair`] deterministically derives `capacity` Lamport one-time
//!   keys from a seed; the **public key is the Merkle root** over the
//!   one-time public keys, and doubles as the account identifier on the
//!   permissioned ledger.
//! * Each [`Signature`] reveals, per digest bit, one of the two secret
//!   preimages of the chosen one-time key, plus the complementary public
//!   values and the Merkle authentication path to the root.
//! * Signing consumes one-time keys; reusing an exhausted key pair is an
//!   error ([`SigningError::KeysExhausted`]), never silent reuse.
//!
//! The scheme's unforgeability reduces to the preimage resistance of
//! SHA-256, which is exactly the strength the paper's architecture needs
//! from its Ethereum accounts.

use crate::hash::Hash256;
use crate::merkle::{MerkleProof, MerkleTree};
use crate::sha256::{sha256, sha256_concat, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of message-digest bits, hence Lamport value pairs per key.
const BITS: usize = 256;

/// Fewest one-time keys worth deriving on more than one thread: a leaf is
/// ≈1 800 compressions, so below this a thread spawn is not paid back.
const PARALLEL_MIN_LEAVES: usize = 64;

/// A verifying key: the Merkle root over the one-time public keys.
///
/// Also used as the account identifier (`AccountId`) across the ledger.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
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

/// A Merkle/Lamport signature.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Which one-time key was used.
    pub leaf_index: u64,
    /// Per digest bit: the revealed secret preimage.
    pub revealed: Vec<Hash256>,
    /// Per digest bit: the public value for the *complementary* bit, needed
    /// to reconstruct the one-time public key.
    pub complements: Vec<Hash256>,
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

impl Signature {
    /// Verifies this signature over `msg` against `public`.
    pub fn verify(&self, public: &PublicKey, msg: &[u8]) -> bool {
        if self.revealed.len() != BITS || self.complements.len() != BITS {
            return false;
        }
        let digest = sha256(msg);
        // Reconstruct the one-time public key: for each bit, the public
        // value of the signed side is H(revealed); the other side comes
        // from `complements`.
        let mut leaf_hasher = Sha256::new();
        leaf_hasher.update(b"medledger.ots.leaf:");
        for j in 0..BITS {
            let bit = bit_at(&digest, j);
            let signed_pub = sha256_concat(&[b"medledger.ots.pub:", self.revealed[j].as_bytes()]);
            let (pub0, pub1) = if bit == 0 {
                (signed_pub, self.complements[j])
            } else {
                (self.complements[j], signed_pub)
            };
            leaf_hasher.update(pub0.as_bytes());
            leaf_hasher.update(pub1.as_bytes());
        }
        let leaf = leaf_hasher.finalize();
        if self.auth_path.leaf_index != self.leaf_index {
            return false;
        }
        self.auth_path.verify(&public.0, &leaf)
    }

    /// Approximate wire size in bytes (used by the storage experiments).
    pub fn encoded_len(&self) -> usize {
        8 + 32 * (self.revealed.len() + self.complements.len() + self.auth_path.path.len())
    }
}

/// A signing key: `capacity` Lamport one-time keys under one Merkle root.
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

fn bit_at(digest: &Hash256, j: usize) -> u8 {
    (digest.as_bytes()[j / 8] >> (7 - (j % 8))) & 1
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

    /// Total one-time key capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
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

    fn ots_secret(seed: &Hash256, key_index: u64, bit_pos: u64, bit_val: u8) -> Hash256 {
        sha256_concat(&[
            b"medledger.ots.sk:",
            seed.as_bytes(),
            &key_index.to_be_bytes(),
            &bit_pos.to_be_bytes(),
            &[bit_val],
        ])
    }

    fn ots_public(secret: &Hash256) -> Hash256 {
        sha256_concat(&[b"medledger.ots.pub:", secret.as_bytes()])
    }

    fn ots_leaf_hash(seed: &Hash256, key_index: u64) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"medledger.ots.leaf:");
        for j in 0..BITS as u64 {
            for bit in 0..2u8 {
                let pk = Self::ots_public(&Self::ots_secret(seed, key_index, j, bit));
                h.update(pk.as_bytes());
            }
        }
        h.finalize()
    }

    /// Signs `msg`, consuming the next one-time key.
    pub fn sign(&mut self, msg: &[u8]) -> Result<Signature, SigningError> {
        if self.next_index >= self.capacity {
            return Err(SigningError::KeysExhausted);
        }
        let idx = self.next_index;
        self.next_index += 1;
        let digest = sha256(msg);
        let mut revealed = Vec::with_capacity(BITS);
        let mut complements = Vec::with_capacity(BITS);
        for j in 0..BITS {
            let bit = bit_at(&digest, j);
            revealed.push(Self::ots_secret(&self.seed, idx, j as u64, bit));
            let other = Self::ots_secret(&self.seed, idx, j as u64, 1 - bit);
            complements.push(Self::ots_public(&other));
        }
        let auth_path = self
            .tree
            .prove(idx as usize)
            .expect("index < capacity, proof must exist");
        Ok(Signature {
            leaf_index: idx,
            revealed,
            complements,
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
    /// revealed preimages, complements, authentication path).
    ///
    /// Used as a signature *share* in aggregated acknowledgements: the
    /// digest commits to every byte of the share, so the fold over shares
    /// changes if any contributor's signature is altered.
    pub fn share_digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"medledger.ack.share.v1:");
        h.update(&self.leaf_index.to_be_bytes());
        for r in &self.revealed {
            h.update(r.as_bytes());
        }
        for c in &self.complements {
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
        assert_eq!(kp.capacity(), 2);
        kp.sign(b"1").expect("sign 1");
        kp.sign(b"2").expect("sign 2");
        assert_eq!(kp.sign(b"3"), Err(SigningError::KeysExhausted));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let kp = KeyPair::generate("e", 3);
        assert_eq!(kp.capacity(), 4);
        let kp = KeyPair::generate("e", 0);
        assert_eq!(kp.capacity(), 1);
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
            assert_eq!(keys.capacity(), rounded as u64);
            assert_eq!(keys.public(), oracle.public(), "capacity {capacity}");
            let signature = keys.sign(b"same bytes").expect("sign");
            assert_eq!(signature, oracle.sign(b"same bytes").expect("sign"));
            assert!(signature.verify(&oracle.public(), b"same bytes"));
        }
    }

    #[test]
    fn tampered_signature_fails() {
        let mut kp = KeyPair::generate("mallory-target", 4);
        let mut sig = kp.sign(b"legit").expect("sign");
        sig.revealed[17] = Hash256([0xee; 32]);
        assert!(!sig.verify(&kp.public(), b"legit"));

        let mut sig2 = kp.sign(b"legit").expect("sign");
        sig2.complements[200] = Hash256([0x11; 32]);
        assert!(!sig2.verify(&kp.public(), b"legit"));
    }

    #[test]
    fn mismatched_leaf_index_fails() {
        let mut kp = KeyPair::generate("idx", 4);
        let mut sig = kp.sign(b"m").expect("sign");
        sig.leaf_index = 1; // auth path still for leaf 0
        assert!(!sig.verify(&kp.public(), b"m"));
    }

    #[test]
    fn truncated_signature_fails() {
        let mut kp = KeyPair::generate("trunc", 2);
        let mut sig = kp.sign(b"m").expect("sign");
        sig.revealed.pop();
        assert!(!sig.verify(&kp.public(), b"m"));
    }

    #[test]
    fn encoded_len_is_plausible() {
        let mut kp = KeyPair::generate("size", 8);
        let sig = kp.sign(b"m").expect("sign");
        // 512 hashes + 3-deep path + index.
        assert_eq!(sig.encoded_len(), 8 + 32 * (256 + 256 + 3));
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
        tampered.revealed[0] = Hash256([0xaa; 32]);
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
