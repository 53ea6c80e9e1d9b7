//! The mempool: pending transactions awaiting inclusion.
//!
//! Selection enforces the paper's serialization rule at assembly time: at
//! most one transaction per conflict key (shared table) per block. Chain
//! validation re-checks the same rule, so a byzantine proposer cannot
//! sneak a violation past honest validators.

use crate::transaction::{SignedTransaction, TxId};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// A FIFO mempool with conflict-aware block selection.
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    /// Pending transactions in arrival order, each beside its id (taken
    /// once, on arrival).
    queue: VecDeque<(TxId, SignedTransaction)>,
    ids: HashSet<TxId>,
}

impl Mempool {
    /// Creates an empty mempool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True iff no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Adds a transaction; duplicates (by id) are ignored. Returns whether
    /// the transaction was newly added.
    pub fn add(&mut self, tx: SignedTransaction) -> bool {
        let id = tx.id();
        if !self.ids.insert(id) {
            return false;
        }
        self.queue.push_back((id, tx));
        true
    }

    /// Selects up to `max` transactions for the next block, in arrival
    /// order, admitting **at most one per conflict key** and skipping any
    /// transaction whose conflict key is in `locked_keys` (shared tables
    /// whose previous update is still awaiting peer acks).
    ///
    /// Skipped transactions stay queued for later blocks. When a
    /// transaction is skipped, every later transaction from the same
    /// sender is skipped too, so per-sender nonces stay contiguous within
    /// blocks (chain validation requires it).
    pub fn select(&self, max: usize, locked_keys: &BTreeSet<String>) -> Vec<SignedTransaction> {
        let mut out = Vec::new();
        let mut used_keys: BTreeSet<&str> = BTreeSet::new();
        let mut blocked_senders: BTreeSet<crate::transaction::AccountId> = BTreeSet::new();
        for (_, tx) in &self.queue {
            if out.len() >= max {
                break;
            }
            if blocked_senders.contains(&tx.tx.sender) {
                continue;
            }
            if let Some(key) = &tx.tx.conflict_key {
                if locked_keys.contains(key) || !used_keys.insert(key.as_str()) {
                    blocked_senders.insert(tx.tx.sender);
                    continue;
                }
            }
            out.push(tx.clone());
        }
        out
    }

    /// Removes the transactions with these ids: the ones a block committed.
    pub fn remove_committed(&mut self, committed: &[TxId]) {
        for id in committed {
            self.ids.remove(id);
        }
        let ids = &self.ids;
        self.queue.retain(|(id, _)| ids.contains(id));
    }

    /// The conflict keys of all queued transactions. The group-commit
    /// engine checks a new group against this set: a shared table with a
    /// transaction still queued from an earlier round must not be claimed
    /// again (the later batch surfaces a typed conflict instead of
    /// silently re-queueing behind the first).
    pub fn pending_conflict_keys(&self) -> BTreeSet<String> {
        self.queue
            .iter()
            .filter_map(|(_, t)| t.tx.conflict_key.clone())
            .collect()
    }

    /// Pending transactions touching `key` (diagnostics / benches).
    pub fn pending_for_key(&self, key: &str) -> usize {
        self.queue
            .iter()
            .filter(|(_, t)| t.tx.conflict_key.as_deref() == Some(key))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{Transaction, TxPayload};
    use medledger_crypto::KeyPair;

    fn tx(kp: &mut KeyPair, nonce: u64, key: Option<&str>) -> SignedTransaction {
        Transaction {
            sender: kp.public(),
            nonce,
            payload: TxPayload::Noop,
            conflict_key: key.map(String::from),
        }
        .sign(kp)
        .expect("sign")
    }

    #[test]
    fn add_and_dedupe() {
        let mut kp = KeyPair::generate("mp", 8);
        let mut mp = Mempool::new();
        let t = tx(&mut kp, 0, None);
        assert!(mp.add(t.clone()));
        assert!(!mp.add(t));
        assert_eq!(mp.len(), 1);
    }

    #[test]
    fn select_respects_conflict_rule() {
        let mut kp_a = KeyPair::generate("mp2a", 16);
        let mut kp_b = KeyPair::generate("mp2b", 16);
        let mut mp = Mempool::new();
        mp.add(tx(&mut kp_a, 0, Some("D13")));
        mp.add(tx(&mut kp_b, 0, Some("D13")));
        mp.add(tx(&mut kp_b, 1, Some("D23")));
        let sel = mp.select(10, &BTreeSet::new());
        // Only one D13 tx per block; b's D23 tx is held back too because
        // skipping b's D13 tx would break b's nonce sequence.
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].tx.sender, kp_a.public());
        assert_eq!(mp.pending_for_key("D13"), 2);
    }

    #[test]
    fn select_keeps_sender_nonces_contiguous() {
        let mut kp = KeyPair::generate("mp2c", 16);
        let mut mp = Mempool::new();
        mp.add(tx(&mut kp, 0, Some("D13")));
        mp.add(tx(&mut kp, 1, Some("D13"))); // skipped: conflict key used
        mp.add(tx(&mut kp, 2, Some("D23"))); // must also be skipped
        let sel = mp.select(10, &BTreeSet::new());
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].tx.nonce, 0);
    }

    #[test]
    fn select_respects_locked_keys() {
        let mut kp_a = KeyPair::generate("mp3a", 8);
        let mut kp_b = KeyPair::generate("mp3b", 8);
        let mut mp = Mempool::new();
        mp.add(tx(&mut kp_a, 0, Some("D13")));
        mp.add(tx(&mut kp_b, 0, None));
        let locked: BTreeSet<String> = ["D13".to_string()].into();
        let sel = mp.select(10, &locked);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].tx.sender, kp_b.public());
        // The locked sender's later txs stay held back as well.
        mp.add(tx(&mut kp_a, 1, None));
        let sel2 = mp.select(10, &locked);
        assert_eq!(sel2.len(), 1, "kp_a's nonce-1 tx must wait for nonce 0");
    }

    #[test]
    fn duplicate_add_then_locked_key_skip() {
        // The two behaviors the set-backed id index must preserve
        // together: a re-broadcast transaction is ignored (id dedupe),
        // and the one retained copy still honors the lock on its
        // conflict key until the key unlocks.
        let mut kp_a = KeyPair::generate("mp-dup-a", 8);
        let mut kp_b = KeyPair::generate("mp-dup-b", 8);
        let mut mp = Mempool::new();
        let locked_tx = tx(&mut kp_a, 0, Some("D13"));
        assert!(mp.add(locked_tx.clone()));
        assert!(!mp.add(locked_tx.clone()), "duplicate id must be ignored");
        assert!(!mp.add(locked_tx.clone()), "repeated re-adds too");
        assert!(mp.add(tx(&mut kp_b, 0, None)));
        assert_eq!(mp.len(), 2, "only one copy of the duplicate is queued");

        let locked: BTreeSet<String> = ["D13".to_string()].into();
        let sel = mp.select(10, &locked);
        assert_eq!(sel.len(), 1, "locked-key tx is skipped");
        assert_eq!(sel[0].tx.sender, kp_b.public());

        // Unlocking the key releases the retained copy exactly once.
        let sel = mp.select(10, &BTreeSet::new());
        assert_eq!(
            sel.iter().filter(|t| t.tx.sender == kp_a.public()).count(),
            1
        );

        // After commit the id can be re-added (fresh lifecycle).
        mp.remove_committed(&[locked_tx.id()]);
        assert!(mp.add(locked_tx));
    }

    #[test]
    fn pending_conflict_keys_tracks_queue() {
        let mut kp = KeyPair::generate("mp-keys", 8);
        let mut mp = Mempool::new();
        assert!(mp.pending_conflict_keys().is_empty());
        let a = tx(&mut kp, 0, Some("D13"));
        mp.add(a.clone());
        mp.add(tx(&mut kp, 1, Some("D23")));
        mp.add(tx(&mut kp, 2, None));
        let keys = mp.pending_conflict_keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("D13") && keys.contains("D23"));
        mp.remove_committed(&[a.id()]);
        assert!(!mp.pending_conflict_keys().contains("D13"));
    }

    #[test]
    fn select_respects_max() {
        let mut kp = KeyPair::generate("mp4", 16);
        let mut mp = Mempool::new();
        for i in 0..5 {
            mp.add(tx(&mut kp, i, None));
        }
        assert_eq!(mp.select(3, &BTreeSet::new()).len(), 3);
    }

    #[test]
    fn remove_committed_clears_queue() {
        let mut kp = KeyPair::generate("mp5", 16);
        let mut mp = Mempool::new();
        let a = tx(&mut kp, 0, Some("D13"));
        let b = tx(&mut kp, 1, Some("D13"));
        mp.add(a.clone());
        mp.add(b.clone());
        mp.remove_committed(&[a.id()]);
        assert_eq!(mp.len(), 1);
        // The remaining D13 tx can now be selected.
        let sel = mp.select(10, &BTreeSet::new());
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].id(), b.id());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut kp = KeyPair::generate("mp6", 16);
        let mut mp = Mempool::new();
        for i in 0..4 {
            mp.add(tx(&mut kp, i, None));
        }
        let sel = mp.select(10, &BTreeSet::new());
        let nonces: Vec<u64> = sel.iter().map(|t| t.tx.nonce).collect();
        assert_eq!(nonces, vec![0, 1, 2, 3]);
    }
}
