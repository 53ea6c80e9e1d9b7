//! Blocks and block headers.

use crate::transaction::{AccountId, SignedTransaction};
use medledger_crypto::{merkle::MerkleTree, sha256_concat, Hash256};
use medledger_storage::Encode;

/// A block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the parent block ([`Hash256::ZERO`] for genesis).
    pub parent: Hash256,
    /// Merkle root over the block's transaction encodings.
    pub tx_root: Hash256,
    /// Contract state root *after* executing this block.
    pub state_root: Hash256,
    /// Block timestamp in simulated milliseconds.
    pub timestamp_ms: u64,
    /// The validator that proposed the block.
    pub proposer: AccountId,
    /// The commit-pipeline wave this block was produced for, if any: all
    /// blocks of one wave (the combined request round, its batched ack
    /// rounds) carry the same wave number, attributing consensus cost to
    /// the wave that paid it. `None` for blocks produced outside a wave
    /// (bootstrap, share registration, permission grants).
    pub wave: Option<u64>,
}

impl BlockHeader {
    /// Canonical digest of the header — the block hash. The `v2` domain
    /// tag marks the binary canonical form from [`crate::binary`] (`v1`
    /// hashed the old JSON encoding).
    pub fn hash(&self) -> Hash256 {
        sha256_concat(&[b"medledger.block.v2:", &Encode::encoded(self)])
    }
}

/// A block: header plus ordered transactions.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The transactions, in execution order.
    pub txs: Vec<SignedTransaction>,
}

impl Block {
    /// Assembles a block, computing the transaction Merkle root.
    pub fn assemble(
        height: u64,
        parent: Hash256,
        state_root: Hash256,
        timestamp_ms: u64,
        proposer: AccountId,
        txs: Vec<SignedTransaction>,
    ) -> Block {
        let tx_root = Self::tx_root(&txs);
        Block {
            header: BlockHeader {
                height,
                parent,
                tx_root,
                state_root,
                timestamp_ms,
                proposer,
                wave: None,
            },
            txs,
        }
    }

    /// Attributes the block to a commit-pipeline wave (see
    /// [`BlockHeader::wave`]). The block hash covers the attribution.
    pub fn in_wave(mut self, wave: Option<u64>) -> Block {
        self.header.wave = wave;
        self
    }

    /// Merkle root over transaction encodings.
    pub fn tx_root(txs: &[SignedTransaction]) -> Hash256 {
        let encoded: Vec<Vec<u8>> = txs.iter().map(SignedTransaction::encode).collect();
        MerkleTree::from_data(&encoded).root()
    }

    /// The block hash (header digest).
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// True iff the header's `tx_root` matches the transactions.
    pub fn tx_root_valid(&self) -> bool {
        self.header.tx_root == Self::tx_root(&self.txs)
    }

    /// Exact wire/storage size in bytes of the canonical binary encoding
    /// (header + transactions), used by the storage experiments (E8).
    pub fn encoded_len(&self) -> usize {
        Encode::encoded(&self.header).len()
            + self
                .txs
                .iter()
                .map(SignedTransaction::encoded_len)
                .sum::<usize>()
    }

    /// An inclusion proof that transaction `index` is in this block.
    pub fn prove_tx(&self, index: usize) -> Option<medledger_crypto::MerkleProof> {
        let encoded: Vec<Vec<u8>> = self.txs.iter().map(SignedTransaction::encode).collect();
        MerkleTree::from_data(&encoded).prove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{Transaction, TxPayload};
    use medledger_crypto::{merkle::leaf_hash, KeyPair};

    fn signed(n: u64, kp: &mut KeyPair) -> SignedTransaction {
        Transaction {
            sender: kp.public(),
            nonce: n,
            payload: TxPayload::Noop,
            conflict_key: None,
        }
        .sign(kp)
        .expect("sign")
    }

    #[test]
    fn assemble_sets_valid_tx_root() {
        let mut kp = KeyPair::generate("blk", 8);
        let txs = vec![signed(0, &mut kp), signed(1, &mut kp)];
        let b = Block::assemble(1, Hash256::ZERO, Hash256::ZERO, 1000, kp.public(), txs);
        assert!(b.tx_root_valid());
    }

    #[test]
    fn tampering_with_txs_breaks_root() {
        let mut kp = KeyPair::generate("blk2", 8);
        let txs = vec![signed(0, &mut kp), signed(1, &mut kp)];
        let mut b = Block::assemble(1, Hash256::ZERO, Hash256::ZERO, 1000, kp.public(), txs);
        b.txs.pop();
        assert!(!b.tx_root_valid());
    }

    #[test]
    fn hash_changes_with_any_header_field() {
        let mut kp = KeyPair::generate("blk3", 4);
        let b = Block::assemble(1, Hash256::ZERO, Hash256::ZERO, 1000, kp.public(), vec![]);
        let base = b.hash();
        let mut h2 = b.header.clone();
        h2.height = 2;
        assert_ne!(h2.hash(), base);
        let mut h3 = b.header.clone();
        h3.timestamp_ms = 1001;
        assert_ne!(h3.hash(), base);
        let mut h4 = b.header.clone();
        h4.parent = Hash256([1; 32]);
        assert_ne!(h4.hash(), base);
        let _ = signed(0, &mut kp);
    }

    #[test]
    fn wave_attribution_is_hash_covered() {
        let kp = KeyPair::generate("blk-wave", 4);
        let plain = Block::assemble(1, Hash256::ZERO, Hash256::ZERO, 1000, kp.public(), vec![]);
        assert_eq!(plain.header.wave, None);
        let waved = plain.clone().in_wave(Some(7));
        assert_eq!(waved.header.wave, Some(7));
        assert_ne!(waved.hash(), plain.hash());
        // `in_wave(None)` is the identity on the header (assemble already
        // defaults to no attribution).
        assert_eq!(plain.clone().in_wave(None).hash(), plain.hash());
    }

    #[test]
    fn empty_block_root_is_zero() {
        let kp = KeyPair::generate("blk4", 4);
        let b = Block::assemble(0, Hash256::ZERO, Hash256::ZERO, 0, kp.public(), vec![]);
        assert_eq!(b.header.tx_root, Hash256::ZERO);
        assert!(b.tx_root_valid());
    }

    #[test]
    fn tx_inclusion_proof() {
        let mut kp = KeyPair::generate("blk5", 8);
        let txs = vec![signed(0, &mut kp), signed(1, &mut kp), signed(2, &mut kp)];
        let b = Block::assemble(1, Hash256::ZERO, Hash256::ZERO, 0, kp.public(), txs);
        let proof = b.prove_tx(1).expect("proof");
        let leaf = leaf_hash(&b.txs[1].encode());
        assert!(proof.verify(&b.header.tx_root, &leaf));
        assert!(b.prove_tx(3).is_none());
    }

    #[test]
    fn encoded_len_counts_txs() {
        let mut kp = KeyPair::generate("blk6", 8);
        let empty = Block::assemble(0, Hash256::ZERO, Hash256::ZERO, 0, kp.public(), vec![]);
        let full = Block::assemble(
            0,
            Hash256::ZERO,
            Hash256::ZERO,
            0,
            kp.public(),
            vec![signed(0, &mut kp)],
        );
        assert!(full.encoded_len() > empty.encoded_len());
    }
}
