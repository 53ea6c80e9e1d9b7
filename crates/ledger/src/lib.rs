//! # medledger-ledger
//!
//! The permissioned blockchain substrate: transactions, blocks, the chain,
//! the mempool and receipts.
//!
//! Design points taken directly from the paper:
//!
//! * **Metadata on chain, data off chain** — transactions carry contract
//!   calls about *shared-table metadata* (permission checks, update
//!   announcements, acks); medical data itself never leaves peers' local
//!   databases (Sec. III-B, Sec. V).
//! * **One transaction per shared table per block** — "one block can
//!   contain one transaction at most on some shared data at one time"
//!   (Sec. III-B). Every transaction declares an optional
//!   [`Transaction::conflict_key`] (the shared-table id); block assembly
//!   ([`Mempool::select`]) and block validation ([`Chain::validate_block`])
//!   both enforce the rule.
//! * **Auditability** — [`audit::verify_chain`] re-checks the whole chain
//!   from genesis, the integrity half of the paper's "blockchain-based
//!   immutable shared ledger enables users to trace data updates
//!   history"; reading a shared table's history means reading its
//!   contract calls, so that half lives with the contract
//!   (`medledger-contracts::audit`).
//!
//! Consensus (who gets to append) lives in `medledger-consensus`; contract
//! execution (what a committed block *means*) lives in
//! `medledger-contracts`. This crate owns pure data-structure validity.

pub mod audit;
pub mod binary;
pub mod block;
pub mod chain;
pub mod mempool;
pub mod receipt;
pub mod transaction;

pub use audit::verify_chain;
pub use block::{Block, BlockHeader};
pub use chain::{Chain, ChainError, Membership};
pub use mempool::Mempool;
pub use receipt::{LogEntry, Receipt, RevertKind, TxStatus};
pub use transaction::{AccountId, SignedTransaction, Transaction, TxId, TxPayload};
