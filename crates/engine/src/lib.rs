//! # medledger-engine
//!
//! The **commit pipeline**: the ticketed [`LedgerService`], the front
//! door for batched and concurrent commits over the core `System`'s one
//! scheduler (`medledger_core::sched`: `System::run_wave`, which runs
//! one wave through seven phases).
//!
//! The paper's Fig. 5 workflow is request/response — a writer submits an
//! update and later learns whether consensus admitted it — so the
//! service front door is asynchronous: stage writes, [`Submission::submit`]
//! for a [`CommitTicket`] (non-blocking), and let
//! [`LedgerService::tick`] / [`LedgerService::drain`] run **waves**:
//!
//! ```text
//!   submit(T1 by A)┐                                ┌ ticket A ─ outcome
//!   submit(T1 by B)┼─► LedgerService ─► wave N ─────┼ ticket B ─ outcome
//!   submit(T2 by C)┘    (T1: A+B COMBINED, one      └ ticket C ─ outcome
//!         │              member; T1 and T2 in ONE
//!         ▼              block / ONE PBFT round)
//!   Step-6 cascades            │
//!   re-enter wave N+1          ▼
//!                   per-update parallel fan-out
//!                   (std::thread worker pool,
//!                    deterministic merge order)
//! ```
//!
//! * **Group commit** — the conflict rule, *at most one update per
//!   shared table per block*, is usually read as a limiter, but it is
//!   equally a **batching criterion**: members touching *distinct*,
//!   non-interacting shared tables cannot conflict, so a wave puts all
//!   their `request_update` transactions into one block and one
//!   scheduled PBFT round, and batches the acknowledgement rounds the
//!   same way. A denied member rolls back **only its own** staged
//!   writes via inverse deltas while the rest of the block commits;
//!   members whose tables interact re-queue for the next wave.
//! * **Same-table write combining** — concurrent submissions against one
//!   shared table *compose* (deltas compose; each later submission sees
//!   the earlier one's staged state) instead of conflicting. Every
//!   co-author is permission-checked on **its own** changed attributes
//!   via its own `co_request_update` transaction and individually
//!   receipted; a denied submitter is excluded from the composition and
//!   rolls back **alone**, its denial still on-chain.
//! * **Cascade re-entry** — Step-6 cascades are detected, not run
//!   inline: they become first-class members of the next wave, where
//!   cascades touching distinct tables again share one block and one
//!   scheduled round. A cascade carries the path of tables it descends
//!   from; it is dropped if its table is on that path or its peer's
//!   change has already gone out (the Fig. 5 model's rule), and recorded
//!   as blocked past `MAX_CASCADE_DEPTH`.
//! * **Parallel fan-out** — the per-receiver fetch/`put_delta`/verify
//!   pipeline runs on a scoped `std::thread` worker pool inside the core
//!   `System` (receivers map to disjoint peers, so no locks), with PRG
//!   draws, transfer accounting and trace lines merged in deterministic
//!   receiver order. Thread count never changes results, only wall-clock;
//!   `MedLedgerBuilder::fanout_workers` also sets how many virtual data
//!   channels the latency model overlaps (`0` = all receivers at once,
//!   `1` = the serial baseline).
//!
//! Consensus cost per update drops from `1 + receivers` blocks to
//! `(1 + receivers) / group_size` — the request round alone amortizes to
//! `1 / group_size` — and with same-table combining on top, `n`
//! contending writers pay `~(1 + receivers) / n` instead of `n` full
//! rounds.
//!
//! Everything above lives in `medledger-core`; this crate is tickets and
//! the gateway-facing demultiplexing over it. A [`Submission`] *is* the
//! facade's `UpdateBatch`, and the blocking `commit()` on it — the
//! facade's commit — is the same queue: submit, then waves until the
//! batch and every cascade it set off are through. Both front doors
//! advance one wave count ([`LedgerService::waves`]). What the waves are
//! checked against is the test-side Fig. 5 model
//! (`tests/common/fig5_model.rs`).
//!
//! ```
//! use medledger_bx::LensSpec;
//! use medledger_core::MedLedger;
//! use medledger_engine::LedgerService;
//! use medledger_relational::{row, Column, Schema, Table, Value, ValueType};
//!
//! let mut ledger = MedLedger::builder()
//!     .seed("service-doc")
//!     .pbft(100)
//!     .peer_key_capacity(64)
//!     .build()
//!     .expect("ledger boots");
//! let doctor = ledger.add_peer("Doctor").expect("add");
//! let patient = ledger.add_peer("Patient").expect("add");
//!
//! // One shared ward table; the doctor owns `dosage`, the patient
//! // `clinical` (a Fig. 3 permission split).
//! let schema = Schema::new(
//!     vec![
//!         Column::new("patient_id", ValueType::Int),
//!         Column::new("dosage", ValueType::Text),
//!         Column::new("clinical", ValueType::Text),
//!     ],
//!     &["patient_id"],
//! )
//! .expect("schema");
//! let mut table = Table::new(schema);
//! table.insert(row![1i64, "10 mg", "stable"]).expect("seed");
//! let lens = LensSpec::project(&["patient_id", "dosage", "clinical"], &["patient_id"]);
//! ledger.session(doctor).load_source("D", table.clone()).expect("load");
//! ledger.session(patient).load_source("P", table).expect("load");
//! ledger
//!     .session(doctor)
//!     .share("ward")
//!     .bind("D", lens.clone())
//!     .with(patient, "P", lens)
//!     .writers("dosage", &[doctor])
//!     .writers("clinical", &[patient])
//!     .create()
//!     .expect("share");
//!
//! // Two concurrent submissions against the SAME table — no Conflicted:
//! // the scheduler composes them into one member.
//! let mut service = LedgerService::new(ledger);
//! let t1 = service
//!     .submit(doctor, "ward")
//!     .set(vec![Value::Int(1)], "dosage", Value::text("20 mg"))
//!     .submit()
//!     .expect("doctor submits");
//! let t2 = service
//!     .submit(patient, "ward")
//!     .set(vec![Value::Int(1)], "clinical", Value::text("improving"))
//!     .submit()
//!     .expect("patient submits");
//!
//! // ONE wave: one combined member, one block for the request + the
//! // co-request, one scheduled PBFT round.
//! let wave = service.tick().expect("wave commits");
//! assert_eq!(wave.members, 1);
//! let doctor_outcome = service.take(t1).expect("resolved").expect("commits");
//! let patient_outcome = service.take(t2).expect("resolved").expect("commits");
//! assert_eq!(doctor_outcome.version(), 1); // one version bump for both
//! // Distinct per-submitter receipts.
//! assert_ne!(
//!     doctor_outcome.receipts[0].tx_id,
//!     patient_outcome.receipts[0].tx_id
//! );
//! service.ledger().check_consistency().expect("all peers in sync");
//! ```

#![warn(missing_docs)]

mod service;

pub use medledger_core::{CascadeRecord, CommitError, CommitOutcome, CommitTicket, WaveReport};
pub use service::{LedgerService, Submission};

/// The single crate-internal funnel onto the facade's hidden `System`
/// escape hatch (read side). Everything in this crate that needs the raw
/// engine goes through here, keeping the `#[doc(hidden)]` seam to one
/// audited spot.
pub(crate) fn raw_system(ledger: &medledger_core::MedLedger) -> &medledger_core::System {
    ledger.system()
}

/// Write-side funnel; see [`raw_system`].
pub(crate) fn raw_system_mut(
    ledger: &mut medledger_core::MedLedger,
) -> &mut medledger_core::System {
    ledger.system_mut()
}
