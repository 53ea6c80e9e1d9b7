//! The typed session facade: [`MedLedger`] → [`PeerSession`] →
//! [`UpdateBatch`].
//!
//! The paper's workflow (Fig. 4/5) is "submit metadata tx → consensus →
//! propagate via lenses → ack". The engine ([`System`]) exposes that as
//! many small steps; this module packages it as three layers so callers
//! never order the steps by hand and never name peers by raw strings:
//!
//! 1. [`MedLedger`] — entry point. Built with a fluent [`MedLedgerBuilder`]
//!    over [`SystemConfig`]; `add_peer` returns typed [`PeerId`] handles.
//! 2. [`PeerSession`] — `ledger.session(peer)` scopes every action to one
//!    stakeholder: `read`, `source`, `share(..)` (a [`ShareBuilder`] over
//!    the sharing-agreement + Fig. 3 permission matrix), `audit`, `grant`,
//!    `retire`.
//! 3. [`UpdateBatch`] — `session.begin(table)` stages local writes;
//!    [`UpdateBatch::commit`] runs the whole Fig. 5 pipeline
//!    (request-update transaction, consensus round, lens propagation,
//!    acks, Step-6 cascades) and returns a typed [`CommitOutcome`].
//!    On failure the staged writes are rolled back — the batch is
//!    transactional from the updater's point of view — and the error is a
//!    typed [`CommitError`] (permission denials carry the reverted
//!    on-chain receipt). [`UpdateBatch::submit`] queues the same batch
//!    for the scheduler's next wave instead (see [`crate::sched`]).

use crate::agreement::SharingAgreement;
use crate::error::CoreError;
use crate::persist::Recovery;
use crate::sched::{CommitTicket, StagedOp};
use crate::system::{System, SystemConfig, SystemStats, UpdateReport, WorkflowTrace};
use crate::Result;
use medledger_bx::LensSpec;
use medledger_contracts::{AuditEntry, SharedTableMeta};
use medledger_ledger::{Chain, Receipt, RevertKind};
use medledger_relational::{Row, Table, Value, WriteOp};
use medledger_storage::{DurableStore, StorageBackend};
use std::fmt;
use std::path::PathBuf;

pub use crate::system::{ConsensusKind, PeerId};

// ----------------------------------------------------------------------
// MedLedger + builder
// ----------------------------------------------------------------------

/// The facade over a whole simulated deployment.
///
/// Owns the engine ([`System`]); all mutation flows through typed
/// [`PeerSession`] handles.
pub struct MedLedger {
    system: System,
}

impl MedLedger {
    /// Starts a fluent builder with the default configuration
    /// (4 PBFT validators, 1 s blocks, LAN validator / WAN data-plane
    /// latency).
    pub fn builder() -> MedLedgerBuilder {
        MedLedgerBuilder {
            config: SystemConfig::default(),
            durable_path: None,
            backend: None,
        }
    }

    /// Builds a ledger directly from a full [`SystemConfig`].
    pub fn from_config(config: SystemConfig) -> Result<Self> {
        Ok(MedLedger {
            system: System::bootstrap(config)?,
        })
    }

    /// Registers a stakeholder, returning its typed handle.
    pub fn add_peer(&mut self, name: &str) -> Result<PeerId> {
        self.system.add_peer(name)
    }

    /// Looks up a previously registered peer by display name.
    pub fn peer_id(&self, name: &str) -> Result<PeerId> {
        self.system.peer_id(name)
    }

    /// The display name of a peer.
    pub fn peer_name(&self, peer: PeerId) -> Result<String> {
        Ok(self.system.peer(peer)?.name.clone())
    }

    /// All registered peers.
    pub fn peers(&self) -> Vec<PeerId> {
        self.system.peer_ids()
    }

    /// Opens a session acting as `peer`.
    pub fn session(&mut self, peer: PeerId) -> PeerSession<'_> {
        PeerSession {
            system: &mut self.system,
            peer,
        }
    }

    /// Opens a *read-only* session as `peer` (reads, audits, listings —
    /// no `&mut` required, so multiple readers can coexist).
    pub fn reader(&self, peer: PeerId) -> PeerReader<'_> {
        PeerReader {
            system: &self.system,
            peer,
        }
    }

    /// Verifies the paper's core promise: every synced shared table is
    /// byte-identical on all sharing peers and matches the hash the
    /// contract committed.
    pub fn check_consistency(&self) -> Result<()> {
        self.system.check_consistency()
    }

    /// The Fig. 3 metadata row of a shared table, from contract state.
    pub fn share_meta(&self, table_id: &str) -> Result<SharedTableMeta> {
        self.system.share_meta(table_id)
    }

    /// The chronological on-chain history of a shared table.
    pub fn audit(&self, table_id: &str) -> Vec<AuditEntry> {
        self.system.audit(table_id)
    }

    /// Read access to the chain (auditor view).
    pub fn chain(&self) -> &Chain {
        self.system.chain()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SystemStats {
        self.system.stats()
    }

    /// Installs a live-telemetry recorder on the deployment and every
    /// peer (see [`medledger_telemetry::Recorder`]). Disabled by
    /// default; all metric calls are no-ops until one is installed.
    pub fn set_recorder(&mut self, recorder: medledger_telemetry::Recorder) {
        self.system.set_recorder(recorder);
    }

    /// The installed telemetry recorder (disabled unless
    /// [`MedLedger::set_recorder`] was called).
    pub fn recorder(&self) -> &medledger_telemetry::Recorder {
        self.system.recorder()
    }

    /// Current virtual time (ms).
    pub fn now_ms(&self) -> u64 {
        self.system.now_ms()
    }

    /// One-time signing keys a peer can still spend (each committed
    /// transaction consumes one).
    pub fn remaining_keys(&self, peer: PeerId) -> Result<u64> {
        Ok(self.system.peer(peer)?.keys.remaining())
    }

    /// True when the deployment persists to a durable backend (built
    /// with [`MedLedgerBuilder::durable`] /
    /// [`MedLedgerBuilder::storage_backend`]).
    pub fn is_durable(&self) -> bool {
        self.system.storage_attached()
    }

    /// Flushes all unpersisted state to the durable backend (no-op for
    /// in-memory deployments). Commit boundaries already flush; this is
    /// for callers that mutated state through lower-level seams.
    pub fn flush(&mut self) -> Result<()> {
        self.system.flush_storage()
    }

    /// Flushes and shuts the deployment down. Rebuilding with the same
    /// configuration and backend recovers this exact state.
    pub fn close(mut self) -> Result<()> {
        self.system.flush_storage()
    }

    /// Read-only access to the underlying engine.
    ///
    /// **Escape hatch** — hidden from the docs on purpose: application
    /// code should not need the raw `System`. For reads use
    /// [`MedLedger::reader`] / the accessors on this type; for pipelined
    /// and batched commits use `medledger-engine`'s `LedgerService`
    /// (`submit()` / `drain()`), which owns this seam internally.
    #[doc(hidden)]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying engine.
    ///
    /// **Escape hatch** — hidden from the docs on purpose: this bypasses
    /// the facade's transactional staging and rollback guarantees. The
    /// sanctioned path for concurrent / batched commits is
    /// `medledger-engine`'s `LedgerService` (ticketed `submit()` +
    /// `drain()`), which drives the scheduler's `System::run_wave`
    /// through this seam so callers never have to.
    #[doc(hidden)]
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }
}

/// Fluent builder over [`SystemConfig`].
pub struct MedLedgerBuilder {
    config: SystemConfig,
    durable_path: Option<PathBuf>,
    backend: Option<Box<dyn StorageBackend>>,
}

impl MedLedgerBuilder {
    /// Simulation seed (drives keys, latencies, PoW intervals).
    pub fn seed(mut self, seed: impl Into<String>) -> Self {
        self.config.seed = seed.into();
        self
    }

    /// Private permissioned chain: PBFT with the given block interval.
    pub fn pbft(mut self, block_interval_ms: u64) -> Self {
        self.config.consensus = ConsensusKind::PrivatePbft { block_interval_ms };
        self
    }

    /// Any consensus flavor.
    pub fn consensus(mut self, kind: ConsensusKind) -> Self {
        self.config.consensus = kind;
        self
    }

    /// Number of PBFT validators.
    pub fn validators(mut self, n: usize) -> Self {
        self.config.n_validators = n;
        self
    }

    /// Max transactions per block.
    pub fn max_block_txs(mut self, n: usize) -> Self {
        self.config.max_block_txs = n;
        self
    }

    /// One-time signing keys per peer (bounds transactions per peer).
    pub fn peer_key_capacity(mut self, n: usize) -> Self {
        self.config.peer_key_capacity = n;
        self
    }

    /// Does nothing: every peer stores each shared table as one table.
    ///
    /// A compile fence, as [`crate::PropagationMode`] is: the frozen
    /// `benchmark/` crate calls it (`benchmark/src/world.rs`), and
    /// `benchmark/` must stay byte-identical.
    pub fn shards_per_table(self, _n: usize) -> Self {
        self
    }

    /// Replaces the configuration wholesale.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Persists the deployment under `dir` (one segmented log holding a
    /// record per flush, plus snapshots taken whenever replaying the log
    /// would cost as much as reading one). [`MedLedgerBuilder::build`]
    /// then *recovers* when the directory already holds a committed
    /// state — replaying the logged peer records onto the snapshot the
    /// newest flush names and re-verifying every stored table's content
    /// hash against the replayed chain — and bootstraps fresh
    /// (writing an initial snapshot) otherwise.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_path = Some(dir.into());
        self.backend = None;
        self
    }

    /// Like [`MedLedgerBuilder::durable`] but with a caller-supplied
    /// backend (e.g. [`medledger_storage::MemoryBackend`] in tests, or a
    /// fault-injecting wrapper in the crash-recovery suite).
    pub fn storage_backend(mut self, backend: Box<dyn StorageBackend>) -> Self {
        self.backend = Some(backend);
        self.durable_path = None;
        self
    }

    /// Boots the system and deploys the sharing contract — or, in
    /// durable mode with existing state on disk, recovers the previous
    /// deployment instead (verifying it before serving).
    pub fn build(self) -> Result<MedLedger> {
        let backend: Option<Box<dyn StorageBackend>> = match (self.backend, &self.durable_path) {
            (Some(b), _) => Some(b),
            (None, Some(dir)) => Some(Box::new(
                DurableStore::open(dir.clone()).map_err(|e| CoreError::Storage(e.to_string()))?,
            )),
            (None, None) => None,
        };
        let Some(backend) = backend else {
            return MedLedger::from_config(self.config);
        };
        match System::recover(self.config.clone(), backend)? {
            Recovery::Resumed(system) => Ok(MedLedger { system: *system }),
            Recovery::Fresh(backend) => {
                let mut system = System::bootstrap(self.config)?;
                system.attach_storage(backend)?;
                Ok(MedLedger { system })
            }
        }
    }
}

// ----------------------------------------------------------------------
// PeerSession
// ----------------------------------------------------------------------

/// All actions of one stakeholder, scoped to a borrow of the ledger.
pub struct PeerSession<'a> {
    system: &'a mut System,
    peer: PeerId,
}

impl<'a> PeerSession<'a> {
    /// The acting peer.
    pub fn id(&self) -> PeerId {
        self.peer
    }

    /// The acting peer's display name.
    pub fn name(&self) -> String {
        self.system
            .peer(self.peer)
            .map(|p| p.name.clone())
            .unwrap_or_else(|_| self.peer.to_string())
    }

    /// Registers a local source table with initial contents.
    pub fn load_source(&mut self, name: &str, table: Table) -> Result<()> {
        self.system
            .peer_mut(self.peer)?
            .add_source_table(name, table)
    }

    /// A copy of a local table (source or materialized shared copy) —
    /// the paper's Fig. 4 read path, no chain interaction.
    pub fn source(&self, table: &str) -> Result<Table> {
        self.system.peer(self.peer)?.read_table(table)
    }

    /// A copy of this peer's materialized view of a shared table.
    pub fn read(&self, table_id: &str) -> Result<Table> {
        self.system.read_shared(self.peer, table_id)
    }

    /// Shared tables this peer participates in.
    pub fn shares(&self) -> Result<Vec<String>> {
        Ok(self
            .system
            .peer(self.peer)?
            .shares()
            .into_iter()
            .map(str::to_string)
            .collect())
    }

    /// Starts a sharing agreement for a new shared table, with this peer
    /// as the first participant (and default authority).
    pub fn share(&mut self, table_id: impl Into<String>) -> ShareBuilder<'_, 'a> {
        ShareBuilder {
            table_id: table_id.into(),
            own_binding: None,
            others: Vec::new(),
            permissions: Vec::new(),
            authority: None,
            session: self,
        }
    }

    /// The on-chain history of a shared table (auditability).
    pub fn audit(&self, table_id: &str) -> Vec<AuditEntry> {
        self.system.audit(table_id)
    }

    /// Changes an attribute's writer set (this peer must be the Fig. 3
    /// authority).
    pub fn grant(&mut self, table_id: &str, attr: &str, writers: &[PeerId]) -> Result<()> {
        self.system
            .change_permission(self.peer, table_id, attr, writers)
    }

    /// Retires a shared table (Fig. 4 table-level delete; authority
    /// only). Sources keep their data; the chain keeps the history.
    pub fn retire(&mut self, table_id: &str) -> Result<()> {
        self.system.remove_share(self.peer, table_id)
    }

    /// Stages a transactional batch of writes against a shared table.
    pub fn begin(&mut self, table_id: impl Into<String>) -> UpdateBatch<'_> {
        UpdateBatch::new(self.system, self.peer, table_id)
    }
}

/// The read-only subset of a peer's session (the paper's Fig. 4 read
/// path — no chain interaction, no mutation).
pub struct PeerReader<'a> {
    system: &'a System,
    peer: PeerId,
}

impl PeerReader<'_> {
    /// The acting peer.
    pub fn id(&self) -> PeerId {
        self.peer
    }

    /// The acting peer's display name.
    pub fn name(&self) -> String {
        self.system
            .peer(self.peer)
            .map(|p| p.name.clone())
            .unwrap_or_else(|_| self.peer.to_string())
    }

    /// A copy of a local table (source or materialized shared copy).
    pub fn source(&self, table: &str) -> Result<Table> {
        self.system.peer(self.peer)?.read_table(table)
    }

    /// A copy of this peer's materialized view of a shared table.
    pub fn read(&self, table_id: &str) -> Result<Table> {
        self.system.read_shared(self.peer, table_id)
    }

    /// Shared tables this peer participates in.
    pub fn shares(&self) -> Result<Vec<String>> {
        Ok(self
            .system
            .peer(self.peer)?
            .shares()
            .into_iter()
            .map(str::to_string)
            .collect())
    }

    /// The on-chain history of a shared table (auditability).
    pub fn audit(&self, table_id: &str) -> Vec<AuditEntry> {
        self.system.audit(table_id)
    }
}

// ----------------------------------------------------------------------
// ShareBuilder
// ----------------------------------------------------------------------

/// Fluent construction of a shared table: bindings (source + lens per
/// peer) and the Fig. 3 per-attribute permission matrix.
///
/// Wraps [`SharingAgreement`]'s builder and executes the on-chain
/// registration on [`ShareBuilder::create`].
pub struct ShareBuilder<'s, 'a> {
    session: &'s mut PeerSession<'a>,
    table_id: String,
    own_binding: Option<(String, LensSpec)>,
    others: Vec<(PeerId, String, LensSpec)>,
    permissions: Vec<(String, Vec<PeerId>)>,
    authority: Option<PeerId>,
}

impl ShareBuilder<'_, '_> {
    /// This peer derives the shared table from `source_table` via `lens`.
    pub fn bind(mut self, source_table: impl Into<String>, lens: LensSpec) -> Self {
        self.own_binding = Some((source_table.into(), lens));
        self
    }

    /// Another sharing peer, with its own source table and lens.
    pub fn with(mut self, peer: PeerId, source_table: impl Into<String>, lens: LensSpec) -> Self {
        self.others.push((peer, source_table.into(), lens));
        self
    }

    /// Grants `writers` write permission on `attr` (one Fig. 3 cell).
    pub fn writers(mut self, attr: impl Into<String>, writers: &[PeerId]) -> Self {
        self.permissions.push((attr.into(), writers.to_vec()));
        self
    }

    /// Sets the permission-change authority (defaults to the session
    /// peer).
    pub fn authority(mut self, peer: PeerId) -> Self {
        self.authority = Some(peer);
        self
    }

    /// Verifies the initial views agree, registers the Fig. 3 metadata
    /// row on chain, and materializes every peer's local copy.
    pub fn create(self) -> Result<()> {
        let (own_source, own_lens) = self.own_binding.ok_or_else(|| {
            CoreError::BadAgreement(format!(
                "share `{}`: the opening peer needs a binding (use .bind(source, lens))",
                self.table_id
            ))
        })?;
        let me = self.session.peer;
        let mut builder = SharingAgreement::builder(self.table_id)
            .bind(me.account(), own_source, own_lens)
            .authority(self.authority.unwrap_or(me).account());
        for (peer, source, lens) in self.others {
            builder = builder.bind(peer.account(), source, lens);
        }
        for (attr, writers) in self.permissions {
            let accounts: Vec<_> = writers.iter().map(PeerId::account).collect();
            builder = builder.allow_write(attr, &accounts);
        }
        self.session.system.create_share(&builder.build()?)
    }
}

// ----------------------------------------------------------------------
// UpdateBatch + CommitOutcome + CommitError
// ----------------------------------------------------------------------

/// A staged, transactional batch of writes against one shared table.
///
/// Writes are buffered until [`UpdateBatch::commit`] (or
/// [`UpdateBatch::submit`]) queues them for the scheduler; the wave that
/// admits the batch applies them locally, then drives the full Fig. 5
/// pipeline. If anything fails *before the update commits on chain* — an
/// invalid staged write, an untranslatable view, a permission denial, the
/// consistency barrier — the tables the batch touched are rolled back to
/// their pre-batch state and a typed [`CommitError`] is returned. Two
/// deliberate exceptions:
///
/// * [`CommitError::NoChange`] keeps the local writes (they are valid
///   edits of the peer's own data that simply produced no observable
///   change of the shared view — there is nothing to propagate or undo);
/// * a failure *after* the on-chain commit (e.g. signing keys exhausted
///   mid-ack) keeps the local state too, because the new version is
///   already on chain and at the other peers — rolling the updater back
///   would desynchronize it. [`CommitError::committed_on_chain`] reports
///   which side of the commit point the failure fell on.
#[must_use = "staged writes do nothing until .commit() or .submit()"]
pub struct UpdateBatch<'s> {
    system: &'s mut System,
    peer: PeerId,
    table_id: String,
    ops: Vec<StagedOp>,
}

impl<'s> UpdateBatch<'s> {
    /// An empty batch by `peer` against shared `table_id` (what
    /// [`PeerSession::begin`] opens, for callers that hold the `System`).
    pub fn new(system: &'s mut System, peer: PeerId, table_id: impl Into<String>) -> Self {
        UpdateBatch {
            system,
            peer,
            table_id: table_id.into(),
            ops: Vec::new(),
        }
    }

    /// Stages an entry-level insert into the shared table.
    pub fn insert(self, row: Row) -> Self {
        self.write(WriteOp::Insert { row })
    }

    /// Stages an entry-level multi-attribute update.
    pub fn update(self, key: Vec<Value>, assignments: Vec<(String, Value)>) -> Self {
        self.write(WriteOp::Update { key, assignments })
    }

    /// Stages a single-attribute update (sugar over
    /// [`UpdateBatch::update`]).
    pub fn set(self, key: Vec<Value>, attr: impl Into<String>, value: Value) -> Self {
        self.update(key, vec![(attr.into(), value)])
    }

    /// Stages an entry-level delete.
    pub fn delete(self, key: Vec<Value>) -> Self {
        self.write(WriteOp::Delete { key })
    }

    /// Stages an update against one of the peer's *source* tables; the
    /// change reaches the shared table through the lens on commit (the
    /// Researcher-edits-D2 shape of Fig. 5).
    pub fn update_source(
        self,
        table: impl Into<String>,
        key: Vec<Value>,
        assignments: Vec<(String, Value)>,
    ) -> Self {
        self.write_source(table, WriteOp::Update { key, assignments })
    }

    /// Stages a raw shared-table write — the generic entry the wire
    /// gateway replays `Submit` frames through; [`UpdateBatch::insert`] /
    /// [`UpdateBatch::update`] / [`UpdateBatch::delete`] are sugar over
    /// it.
    pub fn write(mut self, op: WriteOp) -> Self {
        self.ops.push(StagedOp::Shared(op));
        self
    }

    /// Stages a raw write against one of the peer's *source* tables (the
    /// generic form of [`UpdateBatch::update_source`]).
    pub fn write_source(mut self, table: impl Into<String>, op: WriteOp) -> Self {
        let table = table.into();
        self.ops.push(StagedOp::Source { table, op });
        self
    }

    /// Queues the batch for the scheduler's next wave — **non-blocking**
    /// — and returns the ticket its outcome resolves under. Nothing
    /// touches any peer until the wave that admits it, and a batch
    /// against a table another queued batch targets is not rejected: the
    /// wave composes same-table batches into one combined member.
    #[allow(clippy::result_large_err)]
    pub fn submit(self) -> std::result::Result<CommitTicket, CommitError> {
        self.enqueue().map(|(_, ticket)| ticket)
    }

    /// Commits the batch through the whole Fig. 5 pipeline:
    /// request-update transaction, consensus, permission verification,
    /// peer fetch + BX-put, acks, and the Step-6 cascades.
    ///
    /// This is [`UpdateBatch::submit`], then waves until the batch and
    /// every cascade it set off are through — each cascade re-enters the
    /// wave after the one that found it — and the outcome assembled with
    /// those cascades: nested in `report.cascades` as they set each other
    /// off, blocked ones in `report.failed_cascades` (the commit itself
    /// stands), their receipts after the batch's own.
    ///
    /// On success every sharing peer holds the new data (and the table is
    /// unlocked); on a pre-commit failure the updater's staged writes are
    /// rolled back (see the type-level docs for the two exceptions).
    #[allow(clippy::result_large_err)]
    pub fn commit(self) -> std::result::Result<CommitOutcome, CommitError> {
        let (system, ticket) = self.enqueue()?;
        system.commit_ticket(ticket)
    }

    /// Queues the staged writes, handing the system back so `commit` can
    /// go on to run the waves.
    #[allow(clippy::result_large_err)]
    fn enqueue(self) -> std::result::Result<(&'s mut System, CommitTicket), CommitError> {
        if self.ops.is_empty() {
            return Err(CommitError::EmptyBatch {
                table_id: self.table_id,
            });
        }
        let ticket = self.system.enqueue(self.peer, self.table_id, self.ops);
        Ok((self.system, ticket))
    }
}

/// The result of a committed [`UpdateBatch`].
#[derive(Clone, Debug)]
pub struct CommitOutcome {
    /// Receipts of every transaction the commit produced, in commit
    /// order (request, acks, then cascades').
    pub receipts: Vec<Receipt>,
    /// The full propagation report, including cascades.
    pub report: UpdateReport,
    /// The numbered Fig. 5 trace (same as `report.trace`).
    pub trace: WorkflowTrace,
}

impl CommitOutcome {
    /// The committed contract version of the table.
    pub fn version(&self) -> u64 {
        self.report.version
    }

    /// Attributes the contract permission-checked.
    pub fn changed_attrs(&self) -> &[String] {
        &self.report.changed_attrs
    }

    /// End-to-end latency until all peers saw the data (virtual ms).
    pub fn visibility_latency_ms(&self) -> u64 {
        self.report.visibility_latency_ms()
    }

    /// Latency until the table unlocked for the next update (virtual ms).
    pub fn sync_latency_ms(&self) -> u64 {
        self.report.sync_latency_ms()
    }

    /// Cascaded updates triggered by the Step-6 dependency check.
    pub fn cascades(&self) -> &[UpdateReport] {
        &self.report.cascades
    }

    /// Cascades that were blocked (permission / untranslatable), as
    /// `(table_id, reason)`. The parent commit itself stands.
    pub fn failed_cascades(&self) -> &[(String, String)] {
        &self.report.failed_cascades
    }
}

/// Why an [`UpdateBatch::commit`] failed.
///
/// For pre-commit failures other than [`CommitError::NoChange`], the
/// staged local writes have been rolled back; `NoChange` keeps the local
/// edits, and [`CommitError::AfterCommit`] keeps everything because the
/// update is already on chain.
#[derive(Clone, Debug)]
pub enum CommitError {
    /// The contract denied the write (Fig. 3 permission matrix). The
    /// reverted transaction stays on chain — `receipt` is its receipt —
    /// making the denial auditable.
    PermissionDenied {
        /// Human-readable contract reason.
        reason: String,
        /// The reverted on-chain receipt, if retrievable.
        receipt: Option<Receipt>,
    },
    /// The paper's barrier: the table still awaits acks for the previous
    /// version.
    Barrier {
        /// Human-readable contract reason.
        reason: String,
        /// The reverted on-chain receipt, if retrievable.
        receipt: Option<Receipt>,
    },
    /// Any other on-chain revert.
    Reverted {
        /// Receipt-level classification.
        kind: RevertKind,
        /// Human-readable reason.
        reason: String,
        /// The reverted on-chain receipt, if retrievable.
        receipt: Option<Receipt>,
    },
    /// The staged writes produced no observable change of the shared
    /// view; there is nothing to propagate. The local edits are kept —
    /// they are valid writes to the peer's own data (e.g. a source edit
    /// outside the lens footprint), exactly as if made directly.
    NoChange {
        /// The target table.
        table_id: String,
    },
    /// `commit()` on a batch with no staged writes.
    EmptyBatch {
        /// The target table.
        table_id: String,
    },
    /// Another queued (or still-uncommitted) update already claims the
    /// same shared table — the paper's one-update-per-table-per-block
    /// rule, surfaced as a typed error at commit time instead of a
    /// silent re-queue. Retry after the conflicting update commits.
    Conflicted {
        /// The contended shared table.
        table_id: String,
    },
    /// A sharing peer could not translate the new view back into its
    /// source (lens `put` failed) — rejected before anything committed.
    Untranslatable {
        /// The lens error.
        reason: String,
    },
    /// Any other engine failure.
    Engine(CoreError),
    /// The update committed on chain but a *post-commit* step failed
    /// (e.g. an ack could not be signed or reverted). Local state is
    /// KEPT — the updater already matches the chain and the other
    /// peers — but the table may remain locked awaiting acks.
    AfterCommit {
        /// The underlying failure.
        source: Box<CommitError>,
    },
}

impl CommitError {
    /// Classifies an engine error into the typed commit-error taxonomy,
    /// resolving reverted transactions to their on-chain receipts.
    pub(crate) fn from_core(e: CoreError, system: &System) -> Self {
        match e {
            CoreError::TxReverted(info) => {
                let receipt = system.receipt(&info.tx_id).cloned();
                match info.kind {
                    RevertKind::PermissionDenied => CommitError::PermissionDenied {
                        reason: info.reason,
                        receipt,
                    },
                    RevertKind::StateLocked => CommitError::Barrier {
                        reason: info.reason,
                        receipt,
                    },
                    kind => CommitError::Reverted {
                        kind,
                        reason: info.reason,
                        receipt,
                    },
                }
            }
            CoreError::NoChange(table_id) => CommitError::NoChange { table_id },
            CoreError::Bx(e) => CommitError::Untranslatable {
                reason: e.to_string(),
            },
            other => CommitError::Engine(other),
        }
    }

    /// Marks the error as having occurred after the on-chain commit
    /// point (local state kept); pre-commit errors pass through.
    pub fn with_commit_point(self, committed_on_chain: bool) -> Self {
        if committed_on_chain {
            CommitError::AfterCommit {
                source: Box::new(self),
            }
        } else {
            self
        }
    }

    /// True iff the update reached the chain before the failure — local
    /// and on-chain state were kept, nothing was rolled back.
    pub fn committed_on_chain(&self) -> bool {
        matches!(self, CommitError::AfterCommit { .. })
    }

    /// The reverted on-chain receipt, where one exists.
    pub fn receipt(&self) -> Option<&Receipt> {
        match self {
            CommitError::PermissionDenied { receipt, .. }
            | CommitError::Barrier { receipt, .. }
            | CommitError::Reverted { receipt, .. } => receipt.as_ref(),
            CommitError::AfterCommit { source } => source.receipt(),
            _ => None,
        }
    }

    /// True iff the commit was rejected by the Fig. 3 permission matrix
    /// (the update never committed; staged writes were rolled back).
    pub fn is_permission_denied(&self) -> bool {
        matches!(self, CommitError::PermissionDenied { .. })
    }

    /// True iff the staged writes were a no-op on the shared view (the
    /// local edits were kept; there was nothing to propagate).
    pub fn is_no_change(&self) -> bool {
        matches!(self, CommitError::NoChange { .. })
    }
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::PermissionDenied { reason, .. } => {
                write!(f, "commit denied: {reason}")
            }
            CommitError::Barrier { reason, .. } => {
                write!(f, "commit blocked by sync barrier: {reason}")
            }
            CommitError::Reverted { reason, .. } => write!(f, "commit reverted: {reason}"),
            CommitError::NoChange { table_id } => {
                write!(
                    f,
                    "nothing to commit for `{table_id}` (no observable change)"
                )
            }
            CommitError::EmptyBatch { table_id } => {
                write!(f, "empty batch for `{table_id}`")
            }
            CommitError::Conflicted { table_id } => {
                write!(
                    f,
                    "another queued update already claims shared table `{table_id}`"
                )
            }
            CommitError::Untranslatable { reason } => {
                write!(f, "a sharing peer cannot translate the update: {reason}")
            }
            CommitError::Engine(e) => write!(f, "engine error: {e}"),
            CommitError::AfterCommit { source } => {
                write!(
                    f,
                    "failed after on-chain commit (local state kept): {source}"
                )
            }
        }
    }
}

impl std::error::Error for CommitError {}
