//! Chain auditing: the structural re-check a fresh auditor node runs.
//!
//! The paper: "Blockchain properties such as immutability, auditability,
//! and transparency enable nodes to check and review update history on
//! shared data." [`verify_chain`] is the *check*; the *review* — a shared
//! table's history read off its contract calls — is
//! `medledger_contracts::audit`, beside the call format it decodes.

use crate::chain::Chain;

/// Re-validates the whole chain structure from genesis: linkage, tx roots
/// and the one-transaction-per-key rule. Returns the first problem found.
///
/// (Signatures and nonces were validated on append; this is the cheap
/// integrity re-check a fresh auditor node runs.)
pub fn verify_chain(chain: &Chain) -> Result<(), String> {
    let blocks = chain.blocks();
    for (i, b) in blocks.iter().enumerate() {
        if b.header.height != i as u64 {
            return Err(format!("block {i} has height {}", b.header.height));
        }
        if i > 0 {
            let parent = &blocks[i - 1];
            if b.header.parent != parent.hash() {
                return Err(format!("block {i} parent hash mismatch"));
            }
            if b.header.timestamp_ms < parent.header.timestamp_ms {
                return Err(format!("block {i} timestamp precedes parent"));
            }
        }
        if !b.tx_root_valid() {
            return Err(format!("block {i} tx root mismatch"));
        }
        let mut keys = std::collections::BTreeSet::new();
        for stx in &b.txs {
            if let Some(k) = &stx.tx.conflict_key {
                if !keys.insert(k.clone()) {
                    return Err(format!("block {i} has two txs for shared table `{k}`"));
                }
            }
            if !stx.verify_signature() {
                return Err(format!("block {i} contains tx with bad signature"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::chain::Membership;
    use crate::transaction::{Transaction, TxPayload};
    use medledger_crypto::{Hash256, KeyPair};

    #[test]
    fn verify_chain_accepts_valid() {
        let mut alice = KeyPair::generate("audit-alice", 16);
        let validator = KeyPair::generate("audit-validator", 16);
        let mut m = Membership::new([alice.public()]);
        m.add_validator(validator.public());
        let mut chain = Chain::new(m, validator.public());
        let t = Transaction {
            sender: alice.public(),
            nonce: 0,
            payload: TxPayload::CallContract {
                contract: Hash256::ZERO,
                method: "request_update".into(),
                args: vec![],
            },
            conflict_key: Some("D13&D31".into()),
        }
        .sign(&mut alice)
        .expect("sign");
        let b = Block::assemble(
            1,
            chain.tip().hash(),
            Hash256::ZERO,
            500,
            validator.public(),
            vec![t],
        );
        chain.append(b).expect("append");
        verify_chain(&chain).expect("valid chain");
    }
}
