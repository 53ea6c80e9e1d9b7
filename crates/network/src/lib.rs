//! # medledger-network
//!
//! A deterministic, virtual-time network simulator.
//!
//! The paper's architecture exchanges three kinds of messages: consensus
//! traffic between blockchain nodes, contract-event notifications, and
//! peer-to-peer shared-data transfers ("send updated data" / "request
//! updated data" in Fig. 2). This crate simulates all of them:
//!
//! * [`SimNet`] — a discrete-event message queue with per-message latency
//!   drawn from a seeded [`LatencyModel`] and optional message drop,
//! * virtual milliseconds instead of wall-clock time, so a bench can model
//!   a 12-second Ethereum block interval (Sec. IV-1) in microseconds of
//!   real time,
//! * [`NetStats`] — message/byte accounting for the experiments,
//! * [`fanout`] — a deterministic worker pool (scoped `std::thread`s),
//!   which no production path calls (the benchmark times it).
//!
//! Determinism: same seed ⇒ same delivery order, bit for bit.

pub mod fanout;
pub mod latency;
pub mod sim;
pub mod transfer;

pub use latency::LatencyModel;
pub use sim::{Delivery, NetStats, NodeId, SimNet};
pub use transfer::{DataPlaneStats, DataTransfer};
