//! # medledger-contracts
//!
//! The smart-contract layer: a deterministic contract runtime hosting
//!
//! * [`sharing::SharingContract`] — the paper's Fig. 3 "metadata collection"
//!   contract: per shared table it stores the sharing peers, per-attribute
//!   write permissions, the last update time and the permission-change
//!   authority, plus the `pending_acks` set that enforces the paper's
//!   "only when all sharing peers have the newest shared data can they
//!   execute further operations" rule;
//! * [`call::SharingCall`] — the contract's calls, typed: one variant per
//!   method, whose arguments travel in transactions in the
//!   `medledger-storage` codec (the contract's rows are stored in it too);
//! * [`runtime::ContractRuntime`] — deploys the sharing contract (the one
//!   contract the paper's chain runs; any other code reverts), executes
//!   transactions with revert-on-error semantics, computes state roots for
//!   block headers and produces receipts with event logs;
//! * [`audit`] — a shared table's history, read off the calls on chain.
//!
//! Execution is fully deterministic: the only ambient inputs are the
//! block timestamp, height and sender provided in [`runtime::CallCtx`],
//! which all replicas agree on. Reverted transactions leave no state
//! changes behind.

pub mod audit;
pub mod call;
pub mod runtime;
pub mod sharing;
pub mod state;

pub use audit::AuditEntry;
pub use call::SharingCall;
pub use runtime::{CallCtx, ContractError, ContractRuntime};
pub use sharing::{SharedTableMeta, SharingContract};
pub use state::ContractState;
