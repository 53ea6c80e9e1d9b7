//! # medledger-consensus
//!
//! Consensus for the permissioned ledger, simulated in virtual time.
//!
//! The paper (Sec. IV-3) concludes that "a private blockchain might be a
//! better choice for our system" than public Ethereum. This crate provides
//! both ends of that comparison:
//!
//! * [`pbft`] — a PBFT-style three-phase protocol (pre-prepare / prepare /
//!   commit) among `n = 3f + 1` known validators, with pairwise
//!   HMAC-authenticated messages (the classic PBFT MAC-vector
//!   optimization), round-robin proposers and timeout-driven view changes.
//!   Runs as a discrete-event simulation over `medledger-network`, so a
//!   full commit round costs microseconds of wall-clock time while
//!   reporting realistic virtual latencies.
//! * [`pow`] — a proof-of-work *interval model* (exponentially distributed
//!   block times around a configurable mean, e.g. the ~12 s Ethereum
//!   interval the paper cites in Sec. IV-1). The model reproduces the
//!   latency/throughput characteristics that matter to the architecture
//!   without burning CPU on hash puzzles.
//! * [`schedule`] — deterministic round-robin proposer selection.

pub mod pbft;
pub mod pow;
pub mod schedule;

pub use pbft::{PbftConfig, PbftRound, RoundOutcome};
pub use pow::PowModel;
pub use schedule::ProposerSchedule;
