//! Async multi-node runtime for the medledger reproduction: a
//! length-prefixed wire protocol and a concurrent gateway front door
//! over the ticketed commit pipeline.
//!
//! The rest of the workspace models the paper's stakeholders as structs
//! inside one `System`. This crate serves that system to concurrent
//! clients. One pump task owns the service and, inside it, every peer's
//! state; control-plane traffic travels as framed bytes on the
//! [`medledger_storage`] binary codec; and clients talk to a single
//! concurrent **gateway** instead of holding `&mut` on the whole world.
//! Everything is built on a hand-rolled executor — no external async
//! dependencies.
//!
//! ## Architecture
//!
//! ```text
//!  GatewayClient ──frames──▶ session reader ─┐
//!  GatewayClient ──frames──▶ session reader ─┤   events    ┌──────────────┐
//!      ⋮                         ⋮           ├───────────▶ │     Pump     │
//!  session writer ◀──outbox── replies ◀──────┘             │ (owns Ledger-│
//!                                                          │  Service and │
//!                                                          │  every peer) │
//!                                                          └──────────────┘
//! ```
//!
//! - [`rt`] — the executor: a work queue over N worker threads, a timer
//!   thread, `block_on`, and quiescence-aware [`Runtime::drain`].
//! - [`sync`] — oneshot and bounded/unbounded mpsc channels, usable
//!   from any future on the executor.
//! - [`wire`] — `[u32 len][version][corr][Message]` frames over bounded
//!   in-process byte [`wire::pipe`]s with genuine backpressure; every
//!   payload round-trips through the storage codec.
//! - [`gateway`] — the front door: thousands of client sessions
//!   multiplex submissions into waves of the existing
//!   [`LedgerService`](medledger_engine::LedgerService) `tick()`;
//!   tickets resolve by async notification (no polling); admission is
//!   bounded, shedding load with a typed `Overloaded { retry_after_ms }`
//!   reply; shutdown drains in-flight waves before the store closes.
//!
//! Determinism is preserved by construction: exactly one pump task ever
//! touches the `LedgerService`, so for a fixed submission arrival order
//! the committed bytes are identical to a serial run regardless of the
//! executor thread count (property-tested in
//! `tests/gateway_concurrency.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use medledger_bx::LensSpec;
//! use medledger_core::MedLedger;
//! use medledger_engine::LedgerService;
//! use medledger_node::wire::WireWrite;
//! use medledger_node::{Deployment, GatewayConfig, SubmitReply};
//! use medledger_relational::{row, Column, Schema, Table, Value, ValueType, WriteOp};
//!
//! // A two-stakeholder ledger: Doctor shares a ward table with Patient.
//! let mut ledger = MedLedger::builder().seed("node-docs").build().unwrap();
//! let doctor = ledger.add_peer("Doctor").unwrap();
//! let patient = ledger.add_peer("Patient").unwrap();
//! let schema = Schema::new(
//!     vec![
//!         Column::new("patient_id", ValueType::Int),
//!         Column::new("dosage", ValueType::Text),
//!     ],
//!     &["patient_id"],
//! )
//! .unwrap();
//! let mut table = Table::new(schema);
//! table.insert(row![188i64, "10 mg"]).unwrap();
//! let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
//! ledger.session(doctor).load_source("D", table.clone()).unwrap();
//! ledger.session(patient).load_source("P", table).unwrap();
//! ledger
//!     .session(doctor)
//!     .share("ward")
//!     .bind("D", lens.clone())
//!     .with(patient, "P", lens)
//!     .writers("patient_id", &[doctor])
//!     .writers("dosage", &[doctor])
//!     .create()
//!     .unwrap();
//!
//! // Serve it: the pump takes the service, the gateway opens.
//! let dep = Deployment::start(LedgerService::new(ledger), GatewayConfig::default()).unwrap();
//!
//! // A client session submits a dosage update over the wire and awaits
//! // the commit notification.
//! let mut client = dep.connect();
//! let commit = dep.block_on(async move {
//!     let op = WriteOp::Update {
//!         key: vec![Value::Int(188)],
//!         assignments: vec![("dosage".into(), Value::text("5 mg"))],
//!     };
//!     let reply = client
//!         .submit("Doctor", "ward", vec![WireWrite::Shared(op)])
//!         .await
//!         .unwrap();
//!     let SubmitReply::Accepted { ticket } = reply else {
//!         panic!("admission failed: {reply:?}");
//!     };
//!     client.wait(ticket).await.unwrap().unwrap()
//! });
//! assert_eq!(commit.version, 1);
//! assert!(!commit.receipts.is_empty());
//!
//! // Drain the deployment and get the ledger back, every peer in it.
//! let service = dep.shutdown().unwrap();
//! assert_eq!(service.ledger().peers().len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod gateway;
pub mod rt;
pub mod sched;
pub mod sync;
pub mod wire;

pub use gateway::{Deployment, GatewayClient, GatewayConfig, GatewayStats, SubmitReply};
pub use rt::Runtime;
