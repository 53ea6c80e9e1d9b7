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
//!    on-chain receipt).

use crate::agreement::SharingAgreement;
use crate::error::CoreError;
use crate::persist::Recovery;
use crate::system::{System, SystemConfig, SystemStats, UpdateReport, WorkflowTrace};
use crate::Result;
use medledger_bx::LensSpec;
use medledger_contracts::SharedTableMeta;
use medledger_ledger::{AuditEntry, Chain, Receipt, RevertKind};
use medledger_network::LatencyModel;
use medledger_relational::{Row, Table, TableDelta, Value, WriteOp};
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
    /// `drain()`), which drives `System::commit_group` through this
    /// seam so callers never have to.
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

    /// Public proof-of-work model with the given mean block interval.
    pub fn pow(mut self, mean_interval_ms: u64) -> Self {
        self.config.consensus = ConsensusKind::PublicPow { mean_interval_ms };
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

    /// Validator-to-validator latency model.
    pub fn validator_latency(mut self, latency: LatencyModel) -> Self {
        self.config.validator_latency = latency;
        self
    }

    /// Peer-to-peer data-plane latency model.
    pub fn p2p_latency(mut self, latency: LatencyModel) -> Self {
        self.config.p2p_latency = latency;
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

    /// Parallel data-plane channels (and worker threads) for the
    /// per-receiver propagation fan-out: `0` (default) overlaps every
    /// receiver, `1` models the serial one-receiver-at-a-time baseline.
    pub fn fanout_workers(mut self, n: usize) -> Self {
        self.config.fanout_workers = n;
        self
    }

    /// Key-range shards per shared table (normalized to a power of two
    /// in `1..=256`; default `1` = unsharded). With sharding on, every
    /// peer splits its stored shared tables along the content digest's
    /// key ranges: deltas route to the shards they land in, hash
    /// verification folds cached per-shard Merkle subroots, and one
    /// receiver's disjoint shards apply in parallel on the fan-out pool.
    /// Final state, hashes, receipts and traces are byte-identical for
    /// every setting — raise it when shared tables grow to thousands of
    /// rows and per-update applies start to dominate.
    pub fn shards_per_table(mut self, n: usize) -> Self {
        self.config.shards_per_table = n;
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
    /// newest flush names and re-verifying the folded per-shard Merkle
    /// subroots against the replayed chain — and bootstraps fresh
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
        UpdateBatch {
            system: self.system,
            peer: self.peer,
            table_id: table_id.into(),
            ops: Vec::new(),
        }
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
        self.session.system.create_share(&builder.build())
    }
}

// ----------------------------------------------------------------------
// UpdateBatch + CommitOutcome + CommitError
// ----------------------------------------------------------------------

/// One staged local write.
enum StagedOp {
    /// A write against the shared table's materialized copy (reflected
    /// into the source via BX-put when staged).
    Shared(WriteOp),
    /// A write against one of the peer's *source* tables (the Fig. 5
    /// step-0 shape: edit the source, then propagate the derived view).
    Source { table: String, op: WriteOp },
}

/// A staged, transactional batch of writes against one shared table.
///
/// Writes are buffered until [`UpdateBatch::commit`]; commit applies them
/// locally, then drives the full Fig. 5 pipeline. If anything fails
/// *before the update commits on chain* — an invalid staged write, an
/// untranslatable view, a permission denial, the consistency barrier —
/// the tables the batch touched are rolled back to their pre-batch state
/// and a typed [`CommitError`] is returned. Two deliberate exceptions:
///
/// * [`CommitError::NoChange`] keeps the local writes (they are valid
///   edits of the peer's own data that simply produced no observable
///   change of the shared view — there is nothing to propagate or undo);
/// * a failure *after* the on-chain commit (e.g. signing keys exhausted
///   mid-ack) keeps the local state too, because the new version is
///   already on chain and at the other peers — rolling the updater back
///   would desynchronize it. [`CommitError::committed_on_chain`] reports
///   which side of the commit point the failure fell on.
#[must_use = "staged writes do nothing until .commit()"]
pub struct UpdateBatch<'s> {
    system: &'s mut System,
    peer: PeerId,
    table_id: String,
    ops: Vec<StagedOp>,
}

impl UpdateBatch<'_> {
    /// Stages an entry-level insert into the shared table.
    pub fn insert(mut self, row: Row) -> Self {
        self.ops.push(StagedOp::Shared(WriteOp::Insert { row }));
        self
    }

    /// Stages an entry-level multi-attribute update.
    pub fn update(mut self, key: Vec<Value>, assignments: Vec<(String, Value)>) -> Self {
        self.ops
            .push(StagedOp::Shared(WriteOp::Update { key, assignments }));
        self
    }

    /// Stages a single-attribute update (sugar over
    /// [`UpdateBatch::update`]).
    pub fn set(self, key: Vec<Value>, attr: impl Into<String>, value: Value) -> Self {
        self.update(key, vec![(attr.into(), value)])
    }

    /// Stages an entry-level delete.
    pub fn delete(mut self, key: Vec<Value>) -> Self {
        self.ops.push(StagedOp::Shared(WriteOp::Delete { key }));
        self
    }

    /// Stages an update against one of the peer's *source* tables; the
    /// change reaches the shared table through the lens on commit (the
    /// Researcher-edits-D2 shape of Fig. 5).
    pub fn update_source(
        mut self,
        table: impl Into<String>,
        key: Vec<Value>,
        assignments: Vec<(String, Value)>,
    ) -> Self {
        self.ops.push(StagedOp::Source {
            table: table.into(),
            op: WriteOp::Update { key, assignments },
        });
        self
    }

    /// Number of staged writes.
    pub fn staged(&self) -> usize {
        self.ops.len()
    }

    /// Applies the staged writes and drives the full Fig. 5 pipeline:
    /// request-update transaction, consensus, permission verification,
    /// peer fetch + BX-put, acks, and Step-6 cascades.
    ///
    /// On success every sharing peer holds the new data (and the table is
    /// unlocked); on a pre-commit failure the updater's staged writes are
    /// rolled back (see the type-level docs for the two exceptions).
    pub fn commit(self) -> std::result::Result<CommitOutcome, CommitError> {
        let UpdateBatch {
            system,
            peer,
            table_id,
            ops,
        } = self;
        if ops.is_empty() {
            return Err(CommitError::EmptyBatch { table_id });
        }

        // Rollback machinery: every staged write returns the
        // inverse deltas of the tables it touched; rollback re-applies
        // them in reverse, in O(changed rows) — no table snapshots.
        let mut inverses: Vec<(String, TableDelta)> = Vec::new();
        let staged = (|| -> Result<()> {
            let node = system.peer_mut(peer)?;
            for op in ops {
                match op {
                    StagedOp::Shared(op) => inverses.extend(node.write_shared(&table_id, op)?),
                    StagedOp::Source { table, op } => {
                        inverses.extend(node.write_source(&table, op)?)
                    }
                }
            }
            Ok(())
        })();
        let rollback = |system: &mut System| {
            // An unknown peer staged nothing.
            if let Ok(node) = system.peer_mut(peer) {
                node.rollback_writes(&inverses);
            }
        };
        if let Err(e) = staged {
            rollback(system);
            return Err(CommitError::from_core(e, system));
        }

        let version_before = system.share_meta(&table_id).map(|m| m.version).ok();
        match system.propagate_update(peer, &table_id) {
            Ok(report) => {
                let mut receipts = Vec::new();
                collect_receipts(system, &report, &mut receipts);
                Ok(CommitOutcome {
                    trace: report.trace.clone(),
                    receipts,
                    report,
                })
            }
            Err(e) => {
                // Did our update reach the chain before the failure? If
                // the contract's version advanced, the new data is
                // committed and already at the other peers — rolling the
                // updater back would desynchronize it from the chain.
                let version_after = system.share_meta(&table_id).map(|m| m.version).ok();
                let committed_on_chain = matches!(
                    (version_before, version_after),
                    (Some(before), Some(after)) if after > before
                );
                let err = CommitError::from_core(e, system);
                // NoChange is not a failed propagation: the staged writes
                // are valid local edits that left the shared view
                // untouched; keep them (matching direct source writes).
                if !committed_on_chain && !err.is_no_change() {
                    rollback(system);
                }
                Err(err.with_commit_point(committed_on_chain))
            }
        }
    }
}

/// Collects the receipts of every transaction a report (and its cascades)
/// produced, in commit order — the receipts a [`CommitOutcome`] carries.
/// Public so engines layered above the facade (the wave pipeline in
/// `medledger-engine`) can assemble identical outcomes.
pub fn collect_receipts(system: &System, report: &UpdateReport, out: &mut Vec<Receipt>) {
    for tx in &report.tx_ids {
        if let Some(r) = system.receipt(tx) {
            out.push(r.clone());
        }
    }
    for cascade in &report.cascades {
        collect_receipts(system, cascade, out);
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
    /// resolving reverted transactions to their on-chain receipts. Public
    /// so engines layered above the facade (the wave pipeline) can
    /// surface identical errors.
    pub fn from_core(e: CoreError, system: &System) -> Self {
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
            CoreError::Conflicted(table_id) => CommitError::Conflicted { table_id },
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
