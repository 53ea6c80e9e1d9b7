//! A shared table's on-chain history, read off its contract calls.
//!
//! The paper: "Blockchain properties such as immutability, auditability,
//! and transparency enable nodes to check and review update history on
//! shared data." This module is that review path; the structural re-check
//! of the chain itself is `medledger_ledger::verify_chain`.

use crate::call::SharingCall;
use medledger_ledger::{AccountId, Chain, TxId, TxPayload};

/// One audited event in a shared table's history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEntry {
    /// Block height where the transaction committed.
    pub height: u64,
    /// Block timestamp (simulated ms).
    pub timestamp_ms: u64,
    /// The transaction id.
    pub tx_id: TxId,
    /// Who sent it.
    pub sender: AccountId,
    /// Payload kind (`deploy` / `call` / `noop`).
    pub kind: &'static str,
    /// Method name for contract calls, if any.
    pub method: Option<String>,
}

/// Returns the chronological history of transactions touching conflict key
/// `key` (a shared-table id).
///
/// Besides exact matches, this includes co-authored combined updates,
/// whose `co_request_update` transactions carry the derived conflict key
/// `"{key}@co:<n>"` (derived so several co-signatures of one table fit in
/// one block without violating the one-transaction-per-key rule). Every
/// submitter of a write-combined update therefore stays individually
/// visible in the table's history.
///
/// Aggregated threshold acks get the same treatment from the other side:
/// an `ack_update_aggregate` transaction carries the derived conflict key
/// `"{key}@ack:<version>"` (dissent fallbacks `"{key}@ack:<version>:d<n>"`)
/// and replaces R per-receiver `ack_update` transactions. So that no
/// receiver disappears from the audit trail, the aggregate is *expanded*
/// here: after the submitter's own entry, one entry per contributing
/// receiver is emitted (same block, same tx id, sender = the contributor),
/// read from the decoded call's `contributors`. A call that does not
/// decode (it reverted on chain) adds no attributions.
pub fn history_for_key(chain: &Chain, key: &str) -> Vec<AuditEntry> {
    let co_prefix = format!("{key}@co:");
    let ack_prefix = format!("{key}@ack:");
    let mut out = Vec::new();
    for block in chain.blocks() {
        for stx in &block.txs {
            let matches = match stx.tx.conflict_key.as_deref() {
                Some(k) => k == key || k.starts_with(&co_prefix) || k.starts_with(&ack_prefix),
                None => false,
            };
            if !matches {
                continue;
            }
            let entry = |sender| AuditEntry {
                height: block.header.height,
                timestamp_ms: block.header.timestamp_ms,
                tx_id: stx.id(),
                sender,
                kind: stx.tx.payload.kind(),
                method: match &stx.tx.payload {
                    TxPayload::CallContract { method, .. } => Some(method.clone()),
                    _ => None,
                },
            };
            out.push(entry(stx.tx.sender));
            if let TxPayload::CallContract { method, args, .. } = &stx.tx.payload {
                if let Ok(SharingCall::AckUpdateAggregate(ack)) = SharingCall::decode(method, args)
                {
                    out.extend(ack.contributors.into_iter().map(entry));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::AckAggregateArgs;
    use medledger_crypto::{Hash256, KeyPair};
    use medledger_ledger::{Block, Membership, SignedTransaction, Transaction};
    use medledger_storage::Encode;

    fn setup() -> (Chain, KeyPair, KeyPair) {
        let alice = KeyPair::generate("audit-alice", 16);
        let validator = KeyPair::generate("audit-validator", 16);
        let mut m = Membership::new([alice.public()]);
        m.add_validator(validator.public());
        (Chain::new(m, validator.public()), alice, validator)
    }

    fn signed(
        kp: &mut KeyPair,
        nonce: u64,
        key: &str,
        method: &str,
        args: Vec<u8>,
    ) -> SignedTransaction {
        Transaction {
            sender: kp.public(),
            nonce,
            payload: TxPayload::CallContract {
                contract: Hash256::ZERO,
                method: method.into(),
                args,
            },
            conflict_key: Some(key.into()),
        }
        .sign(kp)
        .expect("sign")
    }

    fn call_tx(kp: &mut KeyPair, nonce: u64, key: &str, method: &str) -> SignedTransaction {
        signed(kp, nonce, key, method, vec![])
    }

    fn append(chain: &mut Chain, validator: &KeyPair, ts: u64, txs: Vec<SignedTransaction>) {
        let b = Block::assemble(
            chain.height() + 1,
            chain.tip().hash(),
            Hash256::ZERO,
            ts,
            validator.public(),
            txs,
        );
        chain.append(b).expect("append");
    }

    #[test]
    fn history_reconstructs_in_order() {
        let (mut chain, mut alice, validator) = setup();
        for (i, method) in ["request_update", "ack_update", "request_update"]
            .iter()
            .enumerate()
        {
            let t = call_tx(&mut alice, i as u64, "D13&D31", method);
            append(&mut chain, &validator, (i as u64 + 1) * 1000, vec![t]);
        }
        let hist = history_for_key(&chain, "D13&D31");
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].method.as_deref(), Some("request_update"));
        assert_eq!(hist[1].method.as_deref(), Some("ack_update"));
        assert!(hist.windows(2).all(|w| w[0].height < w[1].height));
        assert!(history_for_key(&chain, "other").is_empty());
    }

    #[test]
    fn history_includes_co_request_keys() {
        let (mut chain, mut alice, validator) = setup();
        let lead = call_tx(&mut alice, 0, "D13&D31", "request_update");
        let co = call_tx(&mut alice, 1, "D13&D31@co:0", "co_request_update");
        let unrelated = call_tx(&mut alice, 2, "D13&D31-other", "request_update");
        append(&mut chain, &validator, 1000, vec![lead, co, unrelated]);
        let hist = history_for_key(&chain, "D13&D31");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].method.as_deref(), Some("co_request_update"));
        // The sibling table with a prefix-sharing id is not swept in.
        assert_eq!(history_for_key(&chain, "D13&D31-other").len(), 1);
    }

    #[test]
    fn history_expands_aggregated_ack_contributors() {
        let (mut chain, mut alice, validator) = setup();
        let peer_a = KeyPair::generate("audit-peer-a", 2).public();
        let peer_b = KeyPair::generate("audit-peer-b", 2).public();
        let ack = SharingCall::AckUpdateAggregate(AckAggregateArgs {
            table_id: "D13&D31".into(),
            version: 1,
            applied_hash: Hash256([2; 32]),
            contributors: vec![peer_a, peer_b],
            attestation: Hash256([9; 32]),
        });
        let agg = signed(&mut alice, 0, "D13&D31@ack:1", ack.method(), ack.encoded());
        // Args that do not decode attribute no one.
        let garbled = signed(&mut alice, 1, "D13&D31@ack:2", ack.method(), vec![0xff]);
        append(&mut chain, &validator, 1000, vec![agg, garbled]);
        let hist = history_for_key(&chain, "D13&D31");
        // Submitter entry + one attribution entry per contributor, then
        // the garbled call's submitter alone.
        assert_eq!(hist.len(), 4);
        assert_eq!(hist[0].sender, alice.public());
        assert_eq!(hist[1].sender, peer_a);
        assert_eq!(hist[2].sender, peer_b);
        assert_eq!(hist[3].sender, alice.public());
        assert!(hist
            .iter()
            .all(|e| e.method.as_deref() == Some("ack_update_aggregate")));
        // The first three share the on-chain transaction.
        assert_eq!(hist[0].tx_id, hist[1].tx_id);
        assert_ne!(hist[0].tx_id, hist[3].tx_id);
        assert!(history_for_key(&chain, "other").is_empty());
    }
}
