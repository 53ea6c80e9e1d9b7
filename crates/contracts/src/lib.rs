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
//! * [`runtime::ContractRuntime`] — deploys the sharing contract (the one
//!   contract the paper's chain runs; any other code reverts), executes
//!   transactions with revert-on-error semantics, computes state roots for
//!   block headers and produces receipts with event logs.
//!
//! Execution is fully deterministic: the only ambient inputs are the
//! block timestamp, height and sender provided in [`runtime::CallCtx`],
//! which all replicas agree on. Reverted transactions leave no state
//! changes behind.

pub mod runtime;
pub mod sharing;
pub mod state;

pub use runtime::{CallCtx, ContractError, ContractRuntime};
pub use sharing::{SharedTableMeta, SharingContract};
pub use state::ContractState;
