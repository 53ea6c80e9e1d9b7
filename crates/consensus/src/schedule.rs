//! Deterministic proposer scheduling.

use medledger_ledger::AccountId;

/// Round-robin proposer schedule over a fixed validator list.
///
/// The proposer for height `h` in view `v` is validator
/// `(h + v) mod n` — the same rule the PBFT simulation uses, exposed here
/// for the block-production loop in the core simulator.
#[derive(Clone, Debug)]
pub struct ProposerSchedule {
    validators: Vec<AccountId>,
}

impl ProposerSchedule {
    /// Creates a schedule; the validator order is canonical (sorted) so
    /// all nodes derive the same schedule.
    pub fn new(mut validators: Vec<AccountId>) -> Self {
        assert!(!validators.is_empty(), "need at least one validator");
        validators.sort();
        validators.dedup();
        ProposerSchedule { validators }
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// True iff there are no validators (never: constructor asserts).
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// The validators in canonical order.
    pub fn validators(&self) -> &[AccountId] {
        &self.validators
    }

    /// Proposer for `height` in `view`.
    pub fn proposer(&self, height: u64, view: u64) -> AccountId {
        let idx = ((height + view) % self.validators.len() as u64) as usize;
        self.validators[idx]
    }

    /// Index of a validator, if present.
    pub fn index_of(&self, v: &AccountId) -> Option<usize> {
        self.validators.iter().position(|x| x == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_crypto::KeyPair;

    fn accounts(n: usize) -> Vec<AccountId> {
        (0..n)
            .map(|i| KeyPair::generate(&format!("sched-{i}"), 2).public())
            .collect()
    }

    #[test]
    fn rotates_over_heights() {
        let vs = accounts(3);
        let s = ProposerSchedule::new(vs);
        let p0 = s.proposer(0, 0);
        let p1 = s.proposer(1, 0);
        let p2 = s.proposer(2, 0);
        let p3 = s.proposer(3, 0);
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
        assert_eq!(p0, p3); // wraps mod 3
    }

    #[test]
    fn view_change_advances_proposer() {
        let s = ProposerSchedule::new(accounts(4));
        assert_eq!(s.proposer(5, 1), s.proposer(6, 0));
    }

    #[test]
    fn canonical_order_is_seed_independent() {
        let mut vs = accounts(5);
        let s1 = ProposerSchedule::new(vs.clone());
        vs.reverse();
        let s2 = ProposerSchedule::new(vs);
        for h in 0..10 {
            assert_eq!(s1.proposer(h, 0), s2.proposer(h, 0));
        }
    }

    #[test]
    fn dedup_and_index() {
        let vs = accounts(3);
        let mut doubled = vs.clone();
        doubled.extend(vs.clone());
        let s = ProposerSchedule::new(doubled);
        assert_eq!(s.len(), 3);
        for v in s.validators() {
            assert!(s.index_of(v).is_some());
        }
        assert!(s
            .index_of(&KeyPair::generate("stranger", 2).public())
            .is_none());
    }

    #[test]
    #[should_panic(expected = "at least one validator")]
    fn empty_panics() {
        ProposerSchedule::new(vec![]);
    }
}
