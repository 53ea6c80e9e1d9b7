//! Property-based tests of chain and mempool invariants.

use medledger_crypto::{Hash256, KeyPair};
use medledger_ledger::{
    audit::verify_chain, Block, Chain, Membership, Mempool, SignedTransaction, Transaction,
    TxPayload,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A deterministic mini-network for property runs.
struct Net {
    chain: Chain,
    senders: Vec<KeyPair>,
    validator: KeyPair,
}

fn net(n_senders: usize, tag: &str) -> Net {
    let senders: Vec<KeyPair> = (0..n_senders)
        .map(|i| KeyPair::generate(&format!("prop-ledger-{tag}-{i}"), 64))
        .collect();
    let validator = KeyPair::generate(&format!("prop-ledger-{tag}-validator"), 4);
    let mut membership = Membership::new(senders.iter().map(|k| k.public()));
    membership.add_validator(validator.public());
    Net {
        chain: Chain::new(membership, validator.public()),
        senders,
        validator,
    }
}

/// Builds a transaction with an explicit nonce offset above the chain's
/// expected nonce (for txs still pending in the same batch).
fn make_tx(net: &mut Net, sender: usize, offset: u64, key: Option<String>) -> SignedTransaction {
    let account = net.senders[sender].public();
    let nonce = net.chain.expected_nonce(&account) + offset;
    Transaction {
        sender: account,
        nonce,
        payload: TxPayload::Noop,
        conflict_key: key,
    }
    .sign(&mut net.senders[sender])
    .expect("capacity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random streams of conflict-keyed transactions drained through the
    /// mempool always produce chains that (a) validate end to end and
    /// (b) never contain two txs for one shared table in one block.
    #[test]
    fn mempool_to_chain_respects_conflict_rule(
        ops in proptest::collection::vec((0usize..3, 0usize..4), 1..24)
    ) {
        let mut n = net(3, "conflict");
        let mut mp = Mempool::new();
        let mut ts = 0u64;
        for chunk in ops.chunks(4) {
            let mut offsets = [0u64; 3];
            for (sender, key) in chunk {
                let key = if *key == 0 { None } else { Some(format!("table-{key}")) };
                let tx = make_tx(&mut n, *sender, offsets[*sender], key);
                offsets[*sender] += 1;
                mp.add(tx);
            }
            // Drain fully before enqueuing more (keeps nonces simple).
            while !mp.is_empty() {
                ts += 1000;
                let sel = mp.select(128, &BTreeSet::new());
                prop_assert!(!sel.is_empty());
                let block = Block::assemble(
                    n.chain.height() + 1,
                    n.chain.tip().hash(),
                    Hash256::ZERO,
                    ts,
                    n.validator.public(),
                    sel,
                );
                n.chain.append(block).expect("valid block");
                let ids: Vec<_> = n.chain.tip().txs.iter().map(|stx| stx.id()).collect();
                mp.remove_committed(&ids);
            }
        }
        verify_chain(&n.chain).expect("chain verifies");
        for b in n.chain.blocks() {
            let mut keys = BTreeSet::new();
            for tx in &b.txs {
                if let Some(k) = &tx.tx.conflict_key {
                    prop_assert!(keys.insert(k.clone()), "conflict rule violated");
                }
            }
        }
    }

    /// Per-sender nonces on the committed chain are dense and ordered.
    #[test]
    fn nonces_are_dense_per_sender(
        picks in proptest::collection::vec(0usize..3, 1..20)
    ) {
        let mut n = net(3, "nonces");
        let mut ts = 0u64;
        for batch in picks.chunks(3) {
            let mut txs = Vec::new();
            for &sender in batch {
                // Build txs sequentially so in-block nonces line up.
                let account = n.senders[sender].public();
                let used = txs
                    .iter()
                    .filter(|t: &&SignedTransaction| t.tx.sender == account)
                    .count() as u64;
                let tx = Transaction {
                    sender: account,
                    nonce: n.chain.expected_nonce(&account) + used,
                    payload: TxPayload::Noop,
                    conflict_key: None,
                }
                .sign(&mut n.senders[sender])
                .expect("capacity");
                txs.push(tx);
            }
            ts += 1000;
            let block = Block::assemble(
                n.chain.height() + 1,
                n.chain.tip().hash(),
                Hash256::ZERO,
                ts,
                n.validator.public(),
                txs,
            );
            n.chain.append(block).expect("valid block");
        }
        // Collect nonces per sender across the whole chain: 0,1,2,…
        for kp in &n.senders {
            let account = kp.public();
            let nonces: Vec<u64> = n
                .chain
                .blocks()
                .iter()
                .flat_map(|b| b.txs.iter())
                .filter(|t| t.tx.sender == account)
                .map(|t| t.tx.nonce)
                .collect();
            for (i, nonce) in nonces.iter().enumerate() {
                prop_assert_eq!(*nonce, i as u64);
            }
        }
    }

    /// Tampering with any committed transaction breaks chain verification.
    #[test]
    fn tampering_detected(which in 0usize..8) {
        let mut n = net(1, "tamper");
        let mut ts = 0;
        for _ in 0..4 {
            let tx = make_tx(&mut n, 0, 0, Some("t".into()));
            ts += 1000;
            let block = Block::assemble(
                n.chain.height() + 1,
                n.chain.tip().hash(),
                Hash256::ZERO,
                ts,
                n.validator.public(),
                vec![tx],
            );
            n.chain.append(block).expect("valid");
        }
        verify_chain(&n.chain).expect("clean chain verifies");
        // Clone the blocks, tamper one, and re-validate structurally.
        let mut blocks = n.chain.blocks().to_vec();
        let idx = 1 + which % (blocks.len() - 1);
        blocks[idx].header.timestamp_ms += 1; // header change breaks hash linkage
        let relinked = blocks[idx].hash();
        // The child's parent pointer no longer matches.
        if idx + 1 < blocks.len() {
            prop_assert_ne!(blocks[idx + 1].header.parent, relinked);
        }
    }
}
