//! # medledger-telemetry
//!
//! Live telemetry for the MedLedger stack: lock-free metric
//! primitives behind a cheap no-op-able handle, and a registry that
//! renders point-in-time snapshots for the `node` binary, the gateway
//! `stats` wire message, and the bench `report` binary — one metrics
//! vocabulary across benches and the live deployment (ROADMAP aim 4).
//!
//! * [`metrics`] — [`Counter`], [`Gauge`] and the log₂-bucketed
//!   [`Histogram`] (p50/p95/p99 estimates that always land in the true
//!   percentile's power-of-two bucket),
//! * [`recorder`] — the [`Recorder`] instrumented layers carry: a
//!   clone-cheap handle that is a no-op unless a sink is installed,
//!   pre-resolved per-metric handles for hot paths, and the
//!   [`StageTimer`] that stamps the seven wave phases (screen → prepare
//!   → consensus → fan-out → ack → cascade → flush),
//! * [`registry`] — the [`Registry`] sink and its plain-data
//!   [`Snapshot`] with text / one-line / JSON renderings.
//!
//! The crate has zero dependencies (consistent with the workspace's
//! vendored-only policy) and its atomics are covered by the workspace
//! lint engine: every `Ordering::` site carries an `// ordering:` key
//! registered in `crates/check/ordering_policy.toml`.
//!
//! Metric names, units, and regression meanings are cataloged in
//! `docs/OBSERVABILITY.md`.

pub mod metrics;
pub mod recorder;
pub mod registry;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{CounterHandle, GaugeHandle, Recorder, StageTimer};
pub use registry::{Registry, Snapshot};
