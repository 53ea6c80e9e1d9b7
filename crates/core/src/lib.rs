//! # medledger-core
//!
//! The paper's system: blockchain-based bidirectional updates on
//! fine-grained medical data.
//!
//! This crate assembles the substrates (`relational`, `bx`, `ledger`,
//! `contracts`, `consensus`, `network`, `crypto`) into the architecture of
//! the paper's Fig. 2:
//!
//! * [`peer::PeerNode`] — a stakeholder (Patient / Doctor / Researcher)
//!   with a local database holding source tables and materialized shared
//!   views, plus the **database manager** that runs BX programs,
//! * [`agreement::SharingAgreement`] — the pairwise protocol: which lens
//!   each peer uses to derive the shared table from its own source, and
//!   the Fig. 3 permission matrix registered on the sharing contract,
//! * [`system::System`] — the engine: the whole simulated deployment —
//!   peers, the permissioned chain with PBFT (or a public-PoW model), the
//!   sharing contract, and the Fig. 4 / Fig. 5 workflows with numbered
//!   traces,
//! * [`sched`] — the one commit scheduler: queued submissions and
//!   Step-6 cascades, admitted, staged and committed one wave at a time;
//!   `System::run_wave` runs one wave through seven phases,
//! * [`facade`] — the public surface: [`facade::MedLedger`] (fluent
//!   builder, typed [`system::PeerId`] handles),
//!   [`facade::PeerSession`] (read / share / audit / grant), and the
//!   transactional [`facade::UpdateBatch`] whose `commit()` drives the
//!   whole Fig. 5 pipeline through the scheduler and returns a typed
//!   [`facade::CommitOutcome`],
//! * [`scenario`] — the paper's exact Fig. 1 scenario, programmatically,
//! * [`exposure`] — the attribute-exposure metrics behind the paper's
//!   privacy claims.
//!
//! See ARCHITECTURE.md for the crate map and the wave pipeline; the
//! `report` binary (`medledger-bench`) indexes and runs the experiments.

pub mod agreement;
pub mod error;
pub mod exposure;
pub mod facade;
pub mod peer;
pub mod persist;
pub mod scenario;
pub mod sched;
pub mod system;

pub use agreement::{PeerBinding, SharingAgreement};
pub use error::{CoreError, RevertInfo};
pub use facade::{
    CommitError, CommitOutcome, MedLedger, MedLedgerBuilder, PeerReader, PeerSession, ShareBuilder,
    UpdateBatch,
};
pub use peer::{PeerNode, PropagationMode};
pub use persist::{FlushRecord, Recovery};
pub use sched::{CascadeRecord, CommitTicket, WaveReport};
pub use system::{
    ConsensusKind, PeerId, System, SystemConfig, UpdateReport, WorkflowTrace, MAX_CASCADE_DEPTH,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
