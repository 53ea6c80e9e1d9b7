//! The chain: an append-only, validated sequence of blocks.

use crate::block::Block;
use crate::transaction::{AccountId, TxId};
use medledger_crypto::Hash256;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Chain validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Block height is not `tip + 1`.
    BadHeight {
        /// Expected height.
        expected: u64,
        /// Actual height.
        actual: u64,
    },
    /// Parent hash does not match the tip.
    BadParent,
    /// The header's tx root does not match the transactions.
    BadTxRoot,
    /// A transaction signature is invalid.
    BadSignature {
        /// Offending transaction.
        tx: TxId,
    },
    /// A sender is not a registered network member.
    UnknownMember {
        /// Offending account.
        account: AccountId,
    },
    /// A nonce is not the next expected value for its sender.
    BadNonce {
        /// Offending account.
        account: AccountId,
        /// Expected nonce.
        expected: u64,
        /// Actual nonce.
        actual: u64,
    },
    /// Two transactions in one block share a conflict key — forbidden by
    /// the paper's one-transaction-per-shared-table-per-block rule.
    ConflictKeyCollision {
        /// The colliding shared-table id.
        key: String,
    },
    /// Timestamp went backwards relative to the parent.
    BadTimestamp,
    /// The proposer is not a registered network member.
    UnknownProposer {
        /// Offending account.
        account: AccountId,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadHeight { expected, actual } => {
                write!(f, "bad height: expected {expected}, got {actual}")
            }
            ChainError::BadParent => write!(f, "parent hash does not match tip"),
            ChainError::BadTxRoot => write!(f, "tx merkle root mismatch"),
            ChainError::BadSignature { tx } => write!(f, "bad signature on tx {}", tx.short()),
            ChainError::UnknownMember { account } => {
                write!(f, "sender {account} is not a network member")
            }
            ChainError::BadNonce {
                account,
                expected,
                actual,
            } => write!(
                f,
                "bad nonce for {account}: expected {expected}, got {actual}"
            ),
            ChainError::ConflictKeyCollision { key } => {
                write!(
                    f,
                    "two transactions touch shared table `{key}` in one block"
                )
            }
            ChainError::BadTimestamp => write!(f, "timestamp precedes parent"),
            ChainError::UnknownProposer { account } => {
                write!(f, "proposer {account} is not a network member")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// The permissioned membership list: accounts allowed to transact, and the
/// subset allowed to propose blocks (validators).
#[derive(Clone, Debug, Default)]
pub struct Membership {
    members: BTreeSet<AccountId>,
    validators: BTreeSet<AccountId>,
}

impl Membership {
    /// Creates a membership list.
    pub fn new(members: impl IntoIterator<Item = AccountId>) -> Self {
        Membership {
            members: members.into_iter().collect(),
            validators: BTreeSet::new(),
        }
    }

    /// Adds a member.
    pub fn add_member(&mut self, account: AccountId) {
        self.members.insert(account);
    }

    /// Marks a member as a validator (adds it as a member too).
    pub fn add_validator(&mut self, account: AccountId) {
        self.members.insert(account);
        self.validators.insert(account);
    }

    /// True iff the account may transact.
    pub fn is_member(&self, account: &AccountId) -> bool {
        self.members.contains(account)
    }

    /// True iff the account may propose blocks.
    pub fn is_validator(&self, account: &AccountId) -> bool {
        self.validators.contains(account)
    }

    /// The validators in deterministic order.
    pub fn validators(&self) -> Vec<AccountId> {
        self.validators.iter().copied().collect()
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }
}

/// The validated chain plus per-account nonce tracking.
#[derive(Clone, Debug)]
pub struct Chain {
    blocks: Vec<Block>,
    by_hash: HashMap<Hash256, u64>,
    membership: Membership,
    next_nonce: BTreeMap<AccountId, u64>,
}

impl Chain {
    /// Creates a chain with an implicit empty genesis (height 0, no txs).
    pub fn new(membership: Membership, genesis_proposer: AccountId) -> Self {
        let genesis = Block::assemble(0, Hash256::ZERO, Hash256::ZERO, 0, genesis_proposer, vec![]);
        let mut by_hash = HashMap::new();
        by_hash.insert(genesis.hash(), 0);
        Chain {
            blocks: vec![genesis],
            by_hash,
            membership,
            next_nonce: BTreeMap::new(),
        }
    }

    /// The membership list.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Mutable access to the membership list (permissioned networks admit
    /// members out of band; the genesis authority manages this set).
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
    }

    /// Current tip block.
    pub fn tip(&self) -> &Block {
        // lint: allow(unwrap) — `Chain::new` starts from genesis and no
        // method removes a block, so the chain is never empty.
        self.blocks.last().expect("genesis always present")
    }

    /// Current height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.tip().header.height
    }

    /// All blocks, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block at a height.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    /// Block by hash.
    pub fn block_by_hash(&self, hash: &Hash256) -> Option<&Block> {
        self.by_hash
            .get(hash)
            .and_then(|&h| self.blocks.get(h as usize))
    }

    /// The next expected nonce for an account.
    pub fn expected_nonce(&self, account: &AccountId) -> u64 {
        self.next_nonce.get(account).copied().unwrap_or(0)
    }

    /// Validates `block` against the current tip without appending.
    pub fn validate_block(&self, block: &Block) -> Result<(), ChainError> {
        let tip = self.tip();
        if block.header.height != tip.header.height + 1 {
            return Err(ChainError::BadHeight {
                expected: tip.header.height + 1,
                actual: block.header.height,
            });
        }
        if block.header.parent != tip.hash() {
            return Err(ChainError::BadParent);
        }
        if block.header.timestamp_ms < tip.header.timestamp_ms {
            return Err(ChainError::BadTimestamp);
        }
        if !self.membership.is_validator(&block.header.proposer) {
            return Err(ChainError::UnknownProposer {
                account: block.header.proposer,
            });
        }
        if !block.tx_root_valid() {
            return Err(ChainError::BadTxRoot);
        }
        let mut seen_keys: BTreeSet<&str> = BTreeSet::new();
        let mut nonces: BTreeMap<AccountId, u64> = BTreeMap::new();
        for stx in &block.txs {
            if !self.membership.is_member(&stx.tx.sender) {
                return Err(ChainError::UnknownMember {
                    account: stx.tx.sender,
                });
            }
            if !stx.verify_signature() {
                return Err(ChainError::BadSignature { tx: stx.id() });
            }
            let expected = nonces
                .get(&stx.tx.sender)
                .copied()
                .unwrap_or_else(|| self.expected_nonce(&stx.tx.sender));
            if stx.tx.nonce != expected {
                return Err(ChainError::BadNonce {
                    account: stx.tx.sender,
                    expected,
                    actual: stx.tx.nonce,
                });
            }
            nonces.insert(stx.tx.sender, expected + 1);
            if let Some(key) = &stx.tx.conflict_key {
                if !seen_keys.insert(key.as_str()) {
                    return Err(ChainError::ConflictKeyCollision { key: key.clone() });
                }
            }
        }
        Ok(())
    }

    /// Validates and appends a block, updating nonce tracking.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        self.validate_block(&block)?;
        for stx in &block.txs {
            let n = self.next_nonce.entry(stx.tx.sender).or_insert(0);
            *n = stx.tx.nonce + 1;
        }
        self.by_hash.insert(block.hash(), block.header.height);
        self.blocks.push(block);
        Ok(())
    }

    /// Total bytes a node stores for this chain (headers + transactions) —
    /// the E8 storage metric.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.iter().map(Block::encoded_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{Transaction, TxPayload};
    use medledger_crypto::KeyPair;

    struct Net {
        chain: Chain,
        alice: KeyPair,
        validator: KeyPair,
    }

    fn net() -> Net {
        let alice = KeyPair::generate("alice", 16);
        let validator = KeyPair::generate("validator", 16);
        let mut membership = Membership::new([alice.public()]);
        membership.add_validator(validator.public());
        let chain = Chain::new(membership, validator.public());
        Net {
            chain,
            alice,
            validator,
        }
    }

    fn tx(net: &mut Net, nonce: u64, key: Option<&str>) -> crate::SignedTransaction {
        Transaction {
            sender: net.alice.public(),
            nonce,
            payload: TxPayload::Noop,
            conflict_key: key.map(String::from),
        }
        .sign(&mut net.alice)
        .expect("sign")
    }

    fn block(net: &Net, txs: Vec<crate::SignedTransaction>, ts: u64) -> Block {
        Block::assemble(
            net.chain.height() + 1,
            net.chain.tip().hash(),
            Hash256::ZERO,
            ts,
            net.validator.public(),
            txs,
        )
    }

    #[test]
    fn genesis_exists() {
        let n = net();
        assert_eq!(n.chain.height(), 0);
        assert_eq!(n.chain.tip().header.parent, Hash256::ZERO);
    }

    #[test]
    fn append_valid_block() {
        let mut n = net();
        let t = tx(&mut n, 0, Some("D13&D31"));
        let b = block(&n, vec![t], 1000);
        n.chain.append(b).expect("append");
        assert_eq!(n.chain.height(), 1);
        assert_eq!(n.chain.expected_nonce(&n.alice.public()), 1);
    }

    #[test]
    fn rejects_conflict_key_collision() {
        let mut n = net();
        let t1 = tx(&mut n, 0, Some("D13&D31"));
        let t2 = tx(&mut n, 1, Some("D13&D31"));
        let b = block(&n, vec![t1, t2], 1000);
        assert_eq!(
            n.chain.append(b).unwrap_err(),
            ChainError::ConflictKeyCollision {
                key: "D13&D31".into()
            }
        );
    }

    #[test]
    fn allows_distinct_conflict_keys_in_one_block() {
        let mut n = net();
        let t1 = tx(&mut n, 0, Some("D13&D31"));
        let t2 = tx(&mut n, 1, Some("D23&D32"));
        let b = block(&n, vec![t1, t2], 1000);
        n.chain.append(b).expect("append");
        assert_eq!(n.chain.tip().txs.len(), 2);
    }

    #[test]
    fn rejects_bad_height_and_parent() {
        let mut n = net();
        let good = block(&n, vec![], 10);
        let mut bad_height = good.clone();
        bad_height.header.height = 5;
        assert!(matches!(
            n.chain.append(bad_height).unwrap_err(),
            ChainError::BadHeight { .. }
        ));
        let mut bad_parent = good.clone();
        bad_parent.header.parent = Hash256([9; 32]);
        assert_eq!(
            n.chain.append(bad_parent).unwrap_err(),
            ChainError::BadParent
        );
        n.chain.append(good).expect("good block still fits");
    }

    #[test]
    fn rejects_non_member_sender() {
        let mut n = net();
        let mut outsider = KeyPair::generate("outsider", 4);
        let t = Transaction {
            sender: outsider.public(),
            nonce: 0,
            payload: TxPayload::Noop,
            conflict_key: None,
        }
        .sign(&mut outsider)
        .expect("sign");
        let b = block(&n, vec![t], 10);
        assert!(matches!(
            n.chain.append(b).unwrap_err(),
            ChainError::UnknownMember { .. }
        ));
    }

    #[test]
    fn rejects_non_validator_proposer() {
        let mut n = net();
        let b = Block::assemble(
            1,
            n.chain.tip().hash(),
            Hash256::ZERO,
            10,
            n.alice.public(), // member but not validator
            vec![],
        );
        assert!(matches!(
            n.chain.append(b).unwrap_err(),
            ChainError::UnknownProposer { .. }
        ));
    }

    #[test]
    fn rejects_bad_nonce_and_tracks_across_blocks() {
        let mut n = net();
        let t = tx(&mut n, 5, None);
        let b = block(&n, vec![t], 10);
        assert!(matches!(
            n.chain.append(b).unwrap_err(),
            ChainError::BadNonce { .. }
        ));
        // Correct nonce works; next block must continue from there.
        let t0 = tx(&mut n, 0, None);
        n.chain.append(block(&n, vec![t0], 10)).expect("append");
        let t_wrong = tx(&mut n, 0, None);
        let b2 = block(&n, vec![t_wrong], 20);
        assert!(matches!(
            n.chain.append(b2).unwrap_err(),
            ChainError::BadNonce { .. }
        ));
        let t1 = tx(&mut n, 1, None);
        n.chain.append(block(&n, vec![t1], 20)).expect("append");
    }

    #[test]
    fn sequential_nonces_within_one_block() {
        let mut n = net();
        let t0 = tx(&mut n, 0, None);
        let t1 = tx(&mut n, 1, None);
        n.chain.append(block(&n, vec![t0, t1], 10)).expect("append");
        assert_eq!(n.chain.expected_nonce(&n.alice.public()), 2);
    }

    #[test]
    fn rejects_tampered_signature() {
        let mut n = net();
        let mut t = tx(&mut n, 0, None);
        t.tx.nonce = 0; // keep nonce but break signature by altering payload
        t.tx.payload = TxPayload::CallContract {
            contract: Hash256::ZERO,
            method: "steal".into(),
            args: vec![],
        };
        let b = block(&n, vec![t], 10);
        assert!(matches!(
            n.chain.append(b).unwrap_err(),
            ChainError::BadSignature { .. }
        ));
    }

    #[test]
    fn rejects_backwards_timestamp() {
        let mut n = net();
        n.chain.append(block(&n, vec![], 100)).expect("append");
        let b = block(&n, vec![], 50);
        assert_eq!(n.chain.append(b).unwrap_err(), ChainError::BadTimestamp);
    }

    #[test]
    fn lookup_by_hash_and_height() {
        let mut n = net();
        n.chain.append(block(&n, vec![], 10)).expect("append");
        let tip_hash = n.chain.tip().hash();
        assert_eq!(
            n.chain
                .block_by_hash(&tip_hash)
                .expect("block")
                .header
                .height,
            1
        );
        assert!(n.chain.block_at(1).is_some());
        assert!(n.chain.block_at(2).is_none());
    }

    #[test]
    fn storage_grows_with_blocks() {
        let mut n = net();
        let s0 = n.chain.storage_bytes();
        let t = tx(&mut n, 0, None);
        n.chain.append(block(&n, vec![t], 10)).expect("append");
        assert!(n.chain.storage_bytes() > s0);
    }
}
