//! Correctness tooling for the medledger workspace.
//!
//! Two instruments, one crate:
//!
//! 1. **A deterministic concurrency model checker** ([`model`],
//!    [`explore`], [`scenarios`]): runs small concurrent programs over
//!    the runtime's *real* primitives (`medledger_node::{rt, sync,
//!    wire}`) with exactly one thread running at a time, exploring
//!    interleavings by bounded-exhaustive DFS plus seeded random
//!    sampling. Failures print a decision trace and a seed; both replay
//!    the exact schedule. The `modelcheck` binary drives it in CI.
//!
//! 2. **A workspace lint engine** ([`lint`]): hand-rolled token
//!    scanning (no syntax-tree dependency) enforcing the rules the
//!    compiler can't — every `unsafe` block justifies itself with a
//!    `SAFETY:` comment, every `Ordering::` site in `crates/node` is
//!    registered in `ordering_policy.toml`, `unwrap`/`expect` stay out
//!    of non-test hot paths, the wire protocol's `Message` enum is
//!    handled exhaustively at every dispatch, and no `pub` item goes
//!    unnamed outside its own tests. The `lint` binary drives it in CI.
//!
//! Both exist because the runtime is hand-rolled: no executor crate,
//! no atomics library, no fuzzer is watching these invariants for us.
//!
//! ```
//! use medledger_check::{explore::Checker, scenarios};
//!
//! let sc = scenarios::by_name("oneshot-drop-vs-poll").expect("known scenario");
//! let outcome = Checker {
//!     max_dfs: 50,
//!     max_samples: 0,
//!     max_decisions: 24,
//!     seed: 1,
//! }
//! .check(&sc);
//! assert!(outcome.failure.is_none());
//! assert!(outcome.executions > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod lint;
pub mod model;
pub mod rng;
pub mod scenarios;

pub use explore::{Checker, Failure, Outcome};
pub use scenarios::Scenario;
