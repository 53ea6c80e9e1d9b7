//! Core errors.

use medledger_bx::BxError;
use medledger_contracts::ContractError;
use medledger_ledger::{ChainError, RevertKind, TxId};
use medledger_relational::RelationalError;
use std::fmt;

/// Structured description of an on-chain revert: the transaction that
/// reverted, the receipt-level classification, and the human-readable
/// reason. The receipt itself stays retrievable from the system by id.
#[derive(Clone, Debug, PartialEq)]
pub struct RevertInfo {
    /// The reverted transaction.
    pub tx_id: TxId,
    /// Machine-readable classification from the receipt.
    pub kind: RevertKind,
    /// Human-readable revert reason.
    pub reason: String,
}

impl fmt::Display for RevertInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

/// Errors from the assembled system.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// A relational operation failed.
    Relational(RelationalError),
    /// A lens operation failed.
    Bx(BxError),
    /// Chain validation failed.
    Chain(ChainError),
    /// Contract execution failed (also carried inside reverted receipts).
    Contract(ContractError),
    /// A named peer does not exist.
    UnknownPeer(String),
    /// A shared table id is not registered.
    UnknownShare(String),
    /// The sharing agreement is inconsistent (e.g. the peers' lenses
    /// produce different initial views).
    BadAgreement(String),
    /// The on-chain transaction reverted.
    TxReverted(RevertInfo),
    /// Consensus failed to commit a block.
    ConsensusFailed(String),
    /// A signing key ran out of one-time keys.
    KeysExhausted,
    /// An invariant the paper promises was violated (this is a bug if it
    /// ever fires; surfaced for the ablation experiments that *disable*
    /// safeguards on purpose).
    ConsistencyViolation(String),
    /// The update produced no change (nothing to propagate).
    NoChange(String),
    /// The durable storage layer failed (WAL/snapshot I/O, corruption, or
    /// a recovered state that disagrees with the recovered chain).
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relational(e) => write!(f, "relational: {e}"),
            CoreError::Bx(e) => write!(f, "bx: {e}"),
            CoreError::Chain(e) => write!(f, "chain: {e}"),
            CoreError::Contract(e) => write!(f, "contract: {e}"),
            CoreError::UnknownPeer(p) => write!(f, "unknown peer `{p}`"),
            CoreError::UnknownShare(s) => write!(f, "unknown shared table `{s}`"),
            CoreError::BadAgreement(s) => write!(f, "bad sharing agreement: {s}"),
            CoreError::TxReverted(s) => write!(f, "transaction reverted: {s}"),
            CoreError::ConsensusFailed(s) => write!(f, "consensus failed: {s}"),
            CoreError::KeysExhausted => write!(f, "signing keys exhausted"),
            CoreError::ConsistencyViolation(s) => write!(f, "consistency violation: {s}"),
            CoreError::NoChange(s) => write!(f, "no change to propagate for `{s}`"),
            CoreError::Storage(s) => write!(f, "storage: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<RelationalError> for CoreError {
    fn from(e: RelationalError) -> Self {
        CoreError::Relational(e)
    }
}

impl From<BxError> for CoreError {
    fn from(e: BxError) -> Self {
        CoreError::Bx(e)
    }
}

impl From<ChainError> for CoreError {
    fn from(e: ChainError) -> Self {
        CoreError::Chain(e)
    }
}

impl From<ContractError> for CoreError {
    fn from(e: ContractError) -> Self {
        CoreError::Contract(e)
    }
}

impl From<medledger_crypto::SigningError> for CoreError {
    fn from(_: medledger_crypto::SigningError) -> Self {
        CoreError::KeysExhausted
    }
}

impl From<medledger_storage::StorageError> for CoreError {
    fn from(e: medledger_storage::StorageError) -> Self {
        CoreError::Storage(e.to_string())
    }
}
