//! # medledger-crypto
//!
//! Cryptographic substrate for the MedLedger permissioned blockchain.
//!
//! Everything here is implemented from scratch on top of SHA-256
//! (FIPS 180-4), because the reproduction environment provides no
//! cryptography crates:
//!
//! * [`sha256()`] / [`Sha256`] — the hash function, one-shot and
//!   incremental (module [`mod@sha256`]). Its compression function has
//!   a hardware kernel (x86 SHA extensions) and a portable scalar one;
//!   which runs is decided by `is_x86_feature_detected!` alone, and the
//!   digests are identical, so nothing stored or signed depends on the
//!   CPU. It is the only `unsafe` in this crate.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) used for PBFT-style message
//!   authenticators between known validators.
//! * [`merkle`] — binary Merkle trees with inclusion proofs, used for block
//!   transaction roots and contract state roots.
//! * [`sig`] — a publicly verifiable, N-time hash-based signature scheme
//!   (Winternitz one-time signatures, w = 16, under a Merkle tree: a small
//!   Merkle Signature Scheme) used to sign ledger transactions. A
//!   signature is 67 chain values plus the Merkle path, ≈ 2.3 KiB under a
//!   256-key tree. Key generation derives its one-time keys on every
//!   available core.
//! * [`prg`] — a deterministic SHA-256 counter-mode byte stream used to
//!   derive keys and to make every experiment reproducible.
//! * [`mod@crc32`] — CRC-32 frame checksums for the durable-storage WAL
//!   and snapshot files (corruption detection, not authentication).
//!
//! These primitives are a faithful substitution for the paper's Ethereum
//! accounts: only collision resistance and unforgeability are
//! load-bearing for the architecture.

pub mod crc32;
pub mod hash;
pub mod hmac;
pub mod merkle;
pub mod prg;
pub mod sha256;
pub mod sig;

pub use crc32::{crc32, Crc32};
pub use hash::Hash256;
pub use hmac::{hmac_sha256, HmacKey};
pub use merkle::{MerkleProof, MerkleTree};
pub use prg::Prg;
pub use sha256::{sha256, sha256_concat, Sha256};
pub use sig::{ack_message, fold_attestation, KeyPair, PublicKey, Signature, SigningError};
