//! Execution receipts and contract event logs.
//!
//! Contract events are the paper's notification channel (Fig. 4 step 4:
//! "smart contracts notify sharing peers of modification"): peers watch
//! receipts of committed blocks for logs that mention shared tables they
//! participate in.

use crate::transaction::TxId;
use medledger_crypto::Hash256;

/// Machine-readable classification of a revert.
///
/// Set by whatever execution layer produced the revert (the contract
/// runtime maps its error variants onto these); carried in receipts so
/// callers above the chain can react to *why* a transaction failed
/// without parsing the human-readable reason string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RevertKind {
    /// The caller lacked write/authority permission.
    PermissionDenied,
    /// A referenced entity does not exist.
    NotFound,
    /// The entity already exists.
    AlreadyExists,
    /// Malformed call.
    BadCall,
    /// Blocked by a consistency barrier (pending acks).
    StateLocked,
    /// Anything else.
    Other,
}

/// Outcome of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed and state changes were applied.
    Success,
    /// Reverted: no state changes, with a reason (e.g. permission denied).
    Reverted {
        /// Machine-readable classification.
        kind: RevertKind,
        /// Human-readable revert reason.
        reason: String,
    },
}

impl TxStatus {
    /// True iff the transaction succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, TxStatus::Success)
    }

    /// The revert classification, if reverted.
    pub fn revert_kind(&self) -> Option<RevertKind> {
        match self {
            TxStatus::Success => None,
            TxStatus::Reverted { kind, .. } => Some(*kind),
        }
    }
}

/// One event emitted by a contract during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Emitting contract.
    pub contract: Hash256,
    /// Event name (e.g. `UpdateCommitted`, `SharedTableRegistered`).
    pub topic: String,
    /// Human-readable event payload (`key=value` pairs); nothing parses
    /// it — readers match on `topic`.
    pub data: String,
}

/// The receipt of one executed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// The executed transaction.
    pub tx_id: TxId,
    /// Success or revert.
    pub status: TxStatus,
    /// Gas consumed (contract-runtime accounting units).
    pub gas_used: u64,
    /// Events emitted (empty if reverted).
    pub logs: Vec<LogEntry>,
}

impl Receipt {
    /// Logs with a given topic.
    pub fn logs_with_topic<'a>(&'a self, topic: &'a str) -> impl Iterator<Item = &'a LogEntry> {
        self.logs.iter().filter(move |l| l.topic == topic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(TxStatus::Success.is_success());
        let reverted = TxStatus::Reverted {
            kind: RevertKind::PermissionDenied,
            reason: "permission denied".into(),
        };
        assert!(!reverted.is_success());
        assert_eq!(reverted.revert_kind(), Some(RevertKind::PermissionDenied));
        assert_eq!(TxStatus::Success.revert_kind(), None);
    }

    #[test]
    fn topic_filtering() {
        let r = Receipt {
            tx_id: Hash256::ZERO,
            status: TxStatus::Success,
            gas_used: 21,
            logs: vec![
                LogEntry {
                    contract: Hash256::ZERO,
                    topic: "UpdateCommitted".into(),
                    data: "{}".into(),
                },
                LogEntry {
                    contract: Hash256::ZERO,
                    topic: "AckRecorded".into(),
                    data: "{}".into(),
                },
            ],
        };
        assert_eq!(r.logs_with_topic("UpdateCommitted").count(), 1);
        assert_eq!(r.logs_with_topic("Missing").count(), 0);
    }
}
