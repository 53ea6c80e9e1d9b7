//! The assembled system: peers + chain + contract + consensus, and the
//! Fig. 4 / Fig. 5 workflows.

use crate::agreement::SharingAgreement;
use crate::error::{CoreError, RevertInfo};
use crate::peer::{run_shard_job, PeerNode, PropagationMode, RemoteShardPlan};
use crate::Result;
use medledger_bx::{changed_attrs_from_delta, TableDelta};
use medledger_consensus::{PbftConfig, PbftRound, PowModel, ProposerSchedule};
use medledger_contracts::sharing::{
    AckAggregateArgs, AckUpdateArgs, ChangePermissionArgs, CoRequestUpdateArgs, RegisterShareArgs,
    RequestUpdateArgs,
};
use medledger_contracts::{ContractError, ContractRuntime, SharedTableMeta, SharingContract};
use medledger_crypto::{
    ack_message, fold_attestation, Hash256, KeyPair, MerkleTree, Prg, Signature,
};
use medledger_ledger::{
    audit, AccountId, Block, BlockHeader, Chain, Membership, Mempool, Receipt, SignedTransaction,
    Transaction, TxId, TxPayload, TxStatus,
};
use medledger_network::{fanout, DataPlaneStats, DataTransfer, LatencyModel};
use medledger_relational::normalize_shard_count;
use medledger_telemetry::{Recorder, StageTimer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Typed handle to a peer registered in a [`System`].
///
/// Wraps the peer's ledger account identity; obtained from
/// [`System::add_peer`] (or the facade's `MedLedger::add_peer`) and used
/// everywhere a peer used to be named by a raw `&str`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(AccountId);

impl PeerId {
    /// The underlying ledger account (also the public signing key).
    pub fn account(&self) -> AccountId {
        self.0
    }

    /// Short hex prefix for traces.
    pub fn short(&self) -> String {
        self.0.short()
    }

    pub(crate) fn from_account(account: AccountId) -> Self {
        PeerId(account)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.short())
    }
}

/// Which chain the system runs on (the paper's Sec. IV-3 comparison).
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusKind {
    /// Private permissioned chain: PBFT validators, fixed block interval.
    PrivatePbft {
        /// Target block interval (virtual ms).
        block_interval_ms: u64,
    },
    /// Public proof-of-work model: exponential block intervals (Ethereum's
    /// ~12 s mean in the paper's Sec. IV-1).
    PublicPow {
        /// Mean block interval (virtual ms).
        mean_interval_ms: u64,
    },
}

/// System configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of PBFT validators (ignored for PoW, which models external
    /// miners).
    pub n_validators: usize,
    /// Chain flavor.
    pub consensus: ConsensusKind,
    /// Validator-to-validator latency.
    pub validator_latency: LatencyModel,
    /// Peer-to-peer data-plane latency (the Fig. 2 "send/request updated
    /// data" path).
    pub p2p_latency: LatencyModel,
    /// Simulation seed.
    pub seed: String,
    /// Max transactions per block.
    pub max_block_txs: usize,
    /// One-time signing keys per peer (bounds how many txs each peer can
    /// send).
    pub peer_key_capacity: usize,
    /// Parallel data-plane channels for the per-receiver fan-out
    /// (Fig. 5 steps 4–5): how many receivers fetch and apply an update
    /// concurrently. `0` (the default) means one channel per receiver —
    /// every transfer overlaps — while `1` models the paper-literal
    /// serial baseline where receivers are served one after another. The
    /// same number sizes the `std::thread` worker pool that executes the
    /// per-receiver verify/apply work (with `0` using whatever
    /// parallelism the host offers). Thread count never changes results,
    /// only wall-clock; the virtual-time schedule depends only on this
    /// configured value.
    pub fanout_workers: usize,
    /// Key-range shards per shared table (normalized to a power of two
    /// in `1..=256`). With `1` — the default and the equivalence
    /// baseline — every stored copy is a single shard. A larger value
    /// splits them into digest-aligned shards: deltas route to the
    /// shards they land in, hash verification folds cached per-shard
    /// Merkle subroots instead of rehashing the whole chunk tree, and one
    /// receiver's disjoint shards apply in parallel on the fan-out
    /// worker pool. Final state, hashes, traces and receipts are
    /// byte-identical for every setting.
    pub shards_per_table: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_validators: 4,
            consensus: ConsensusKind::PrivatePbft {
                block_interval_ms: 1_000,
            },
            validator_latency: LatencyModel::lan(),
            p2p_latency: LatencyModel::wan(),
            seed: "medledger".into(),
            max_block_txs: 128,
            peer_key_capacity: 256,
            fanout_workers: 0,
            shards_per_table: 1,
        }
    }
}

/// Aggregate system statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Blocks committed.
    pub blocks: u64,
    /// Transactions committed (including reverted ones).
    pub txs: u64,
    /// Transactions that reverted.
    pub reverted_txs: u64,
    /// Consensus protocol messages delivered.
    pub consensus_msgs: u64,
    /// Consensus protocol bytes sent.
    pub consensus_bytes: u64,
    /// Peer-to-peer shared-data transfers.
    pub p2p_transfers: u64,
    /// Peer-to-peer bytes moved (the serialized size of each delta).
    pub p2p_bytes: u64,
    /// Detailed data-plane accounting, including the full-table-equivalent
    /// bytes each transfer would have cost (the bandwidth-win metric).
    pub data_plane: DataPlaneStats,
}

/// One numbered step of a workflow trace (matching the Fig. 5 numbering).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Step label ("1" … "11"; cascades get "7"…"11").
    pub number: String,
    /// Virtual time of the step.
    pub at_ms: u64,
    /// Acting peer or component.
    pub actor: String,
    /// What happened.
    pub description: String,
}

/// A numbered trace of one update propagation (Fig. 5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkflowTrace {
    /// The steps, in order.
    pub steps: Vec<TraceStep>,
}

impl WorkflowTrace {
    fn push(
        &mut self,
        number: impl Into<String>,
        at_ms: u64,
        actor: &str,
        desc: impl Into<String>,
    ) {
        self.steps.push(TraceStep {
            number: number.into(),
            at_ms,
            actor: actor.to_string(),
            description: desc.into(),
        });
    }

    /// Renders the trace as numbered lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            out.push_str(&format!(
                "Step {:<4} [t={:>8} ms] {:<12} {}\n",
                s.number, s.at_ms, s.actor, s.description
            ));
        }
        out
    }
}

/// The outcome of one propagated update (and its cascades).
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The shared table updated.
    pub table_id: String,
    /// The committed contract version.
    pub version: u64,
    /// When the update was submitted (virtual ms).
    pub submitted_ms: u64,
    /// When the permission-checked transaction committed on chain.
    pub committed_ms: u64,
    /// When the last sharing peer had fetched and applied the new data.
    pub visible_ms: u64,
    /// When all acks had committed (the table unlocked for new updates).
    pub synced_ms: u64,
    /// Attributes that changed (what permission was checked on).
    pub changed_attrs: Vec<String>,
    /// Rows shipped to each sharing peer (the changed rows).
    pub rows_moved: u64,
    /// Total data-plane payload bytes this update moved (all receivers).
    pub bytes_moved: u64,
    /// The on-chain transactions this update produced, in commit order:
    /// the `request_update` first, then the ack side — one aggregated
    /// threshold ack (plus any individual dissent acks).
    /// Cascade transactions live in the cascades' own reports.
    pub tx_ids: Vec<TxId>,
    /// Cascaded updates triggered by the Step-6 dependency check.
    pub cascades: Vec<UpdateReport>,
    /// Cascades that could not proceed (permission denied or
    /// untranslatable), recorded as `(table_id, reason)`. The parent
    /// update itself stays committed; the blocked peer retains a pending
    /// local difference it can retry after obtaining permission.
    pub failed_cascades: Vec<(String, String)>,
    /// The numbered Fig. 5 trace.
    pub trace: WorkflowTrace,
}

impl UpdateReport {
    /// End-to-end latency until all peers saw the data.
    pub fn visibility_latency_ms(&self) -> u64 {
        self.visible_ms - self.submitted_ms
    }

    /// Latency until the table was unlocked for the next update.
    pub fn sync_latency_ms(&self) -> u64 {
        self.synced_ms - self.submitted_ms
    }

    /// Total number of updates including cascades.
    pub fn total_updates(&self) -> usize {
        1 + self
            .cascades
            .iter()
            .map(UpdateReport::total_updates)
            .sum::<usize>()
    }
}

/// A co-author of a write-combined group member: a peer whose own delta
/// was composed into the lead updater's staged change. Each co-submitter
/// gets its own `co_request_update` transaction in the same block —
/// permission-checked on **its** declared attributes and individually
/// receipted (including denials, for which the engine deliberately
/// includes pre-screened riders so the refusal is on-chain auditable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoSubmitter {
    /// The co-authoring peer.
    pub peer: PeerId,
    /// The attributes this co-author's delta changed.
    pub attrs: Vec<String>,
}

/// One member of a group commit: a pending local change of `table_id`
/// already staged on `updater`, to be committed alongside the other
/// members in a single block and a single scheduled consensus round (see
/// [`System::commit_group`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupEntry {
    /// The peer whose staged change is being committed.
    pub updater: PeerId,
    /// The shared table the change targets (distinct per group member).
    pub table_id: String,
    /// For a write-combined member: the attributes the **lead** updater
    /// itself changed — what its `request_update` declares instead of the
    /// full (composed) changed-attribute set, so the contract checks each
    /// author's permission on each author's own attributes. `None` means
    /// the member is sole-authored and declares everything it changed.
    pub declared_attrs: Option<Vec<String>>,
    /// Co-authors whose deltas were composed into the member (empty for
    /// sole-authored members).
    pub co_submitters: Vec<CoSubmitter>,
}

impl GroupEntry {
    /// Convenience constructor for a sole-authored member.
    pub fn new(updater: PeerId, table_id: impl Into<String>) -> Self {
        GroupEntry {
            updater,
            table_id: table_id.into(),
            declared_attrs: None,
            co_submitters: Vec::new(),
        }
    }

    /// Restricts the lead's declared attributes (write-combined members).
    pub fn declaring(mut self, attrs: Vec<String>) -> Self {
        self.declared_attrs = Some(attrs);
        self
    }
}

/// A Step-6 cascade detected but not run by [`System::commit_group`]:
/// `peer` holds a pending change of `table_id` caused by the committed
/// update of `origin`. The caller (the engine's `LedgerService`)
/// re-enters cascades touching distinct tables into its **next wave** —
/// one more shared block and one more scheduled round for all of them —
/// instead of propagating each serially.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeferredCascade {
    /// The peer whose sibling share now differs.
    pub peer: PeerId,
    /// The table carrying the pending cascade delta.
    pub table_id: String,
    /// The committed table whose update triggered the cascade.
    pub origin: String,
}

/// What [`System::commit_group`] returns: per-member results, the
/// co-authors' transaction ids (aligned with each entry's
/// `co_submitters`, for per-submitter receipt demultiplexing), and the
/// cascades deferred to the caller's next wave.
#[derive(Debug)]
pub struct GroupCommitOutcome {
    /// Per-member outcome, in entry order.
    pub results: Vec<GroupEntryResult>,
    /// Per-member co-author transactions: `co_txs[i][j]` is the
    /// `co_request_update` of `entries[i].co_submitters[j]` (resolve its
    /// receipt via [`System::receipt`]). Empty when a member failed
    /// before its transactions were submitted.
    pub co_txs: Vec<Vec<TxId>>,
    /// The Step-6 cascades the committed members triggered,
    /// deduplicated.
    pub deferred: Vec<DeferredCascade>,
}

/// Why one member of a group commit failed while the group proceeded.
#[derive(Clone, Debug)]
pub struct GroupEntryFailure {
    /// The underlying failure.
    pub error: CoreError,
    /// True iff the member's update reached the chain before the failure
    /// — the caller must then *keep* the updater's local state (it
    /// already matches the chain and the other peers); false means
    /// nothing committed and the member's staged writes should be rolled
    /// back via their inverse deltas.
    pub committed_on_chain: bool,
}

/// Per-member outcome of [`System::commit_group`].
pub type GroupEntryResult = std::result::Result<UpdateReport, GroupEntryFailure>;

/// A Step-1-and-pre-flight-complete update, ready to submit on chain.
struct PreparedUpdate {
    updater: AccountId,
    updater_name: String,
    table_id: String,
    attrs: Vec<String>,
    new_hash: Hash256,
    /// What the receivers fetch: the row-level view delta.
    delta: TableDelta,
    /// Every receiver's pre-translated `put_delta` result (computed at
    /// pre-flight, consumed at apply time).
    source_deltas: BTreeMap<AccountId, TableDelta>,
}

/// One sibling share the Step-6 dependency check found changed: `account`
/// (display name `peer_name`) now holds a pending change of `table_id`.
struct Step6Change {
    account: AccountId,
    peer_name: String,
    table_id: String,
}

/// Completed and blocked cascades of one Step-6 dependency sweep:
/// `(reports, failed)` where `failed` records `(table_id, reason)`.
type CascadeOutcome = (Vec<UpdateReport>, Vec<(String, String)>);

/// Below this much total fan-out work (payload rows × receivers), the
/// auto-sized worker pool runs inline — thread spawn would cost more
/// than the per-receiver applies. Explicit `fanout_workers` settings
/// bypass this. Results are identical either way; only wall-clock
/// differs.
const PARALLEL_FANOUT_MIN_ROWS: u64 = 256;

/// What the receiver fan-out produced for one committed update.
struct FanoutSummary {
    /// The receivers, in canonical (account) order.
    others: Vec<AccountId>,
    /// When the last receiver had applied the data (virtual ms).
    visible_ms: u64,
    /// Total data-plane payload bytes moved to all receivers.
    bytes_moved: u64,
    /// Rows shipped to each receiver.
    rows_moved: u64,
}

/// The whole simulated deployment.
pub struct System {
    /// Configuration.
    pub config: SystemConfig,
    pub(crate) peers: BTreeMap<AccountId, PeerNode>,
    pub(crate) names: BTreeMap<String, AccountId>,
    pub(crate) chain: Chain,
    pub(crate) runtime: ContractRuntime,
    pub(crate) mempool: Mempool,
    schedule: ProposerSchedule,
    pub(crate) admin: KeyPair,
    pub(crate) contract: Option<Hash256>,
    pub(crate) clock_ms: u64,
    pub(crate) last_block_ms: u64,
    pub(crate) pow: Option<PowModel>,
    pub(crate) prg: Prg,
    pub(crate) receipts: BTreeMap<TxId, (u64, Receipt)>,
    pub(crate) stats: SystemStats,
    /// The commit-pipeline wave currently producing blocks, if any
    /// (stamped into every block header; see `BlockHeader::wave`).
    wave: Option<u64>,
    /// The attached durable-storage session, if any (see
    /// [`crate::persist`]). `None` — the default — keeps the system fully
    /// in-memory, exactly as before.
    pub(crate) persist: Option<crate::persist::Persistence>,
    /// Live-telemetry handle. Disabled by default — every metric call
    /// is a no-op until [`System::set_recorder`] installs a registry.
    pub(crate) telemetry: Recorder,
}

impl System {
    /// Builds a system with the given configuration.
    pub fn new(mut config: SystemConfig) -> Self {
        config.shards_per_table = normalize_shard_count(config.shards_per_table);
        let validator_keys: Vec<KeyPair> = (0..config.n_validators.max(1))
            .map(|i| KeyPair::generate(&format!("{}-validator-{i}", config.seed), 2))
            .collect();
        let admin = KeyPair::generate(&format!("{}-admin", config.seed), 64);
        let mut membership = Membership::new([admin.public()]);
        for v in &validator_keys {
            membership.add_validator(v.public());
        }
        let schedule = ProposerSchedule::new(validator_keys.iter().map(|k| k.public()).collect());
        let genesis_proposer = schedule.proposer(0, 0);
        let chain = Chain::new(membership, genesis_proposer);
        let pow = match &config.consensus {
            ConsensusKind::PublicPow { mean_interval_ms } => {
                Some(PowModel::new(*mean_interval_ms, &config.seed))
            }
            ConsensusKind::PrivatePbft { .. } => None,
        };
        let prg = Prg::from_label(&format!("{}-system", config.seed));
        System {
            peers: BTreeMap::new(),
            names: BTreeMap::new(),
            chain,
            runtime: ContractRuntime::new(),
            mempool: Mempool::new(),
            schedule,
            admin,
            contract: None,
            clock_ms: 0,
            last_block_ms: 0,
            pow,
            prg,
            receipts: BTreeMap::new(),
            stats: SystemStats::default(),
            wave: None,
            persist: None,
            telemetry: Recorder::disabled(),
            config,
        }
    }

    /// Installs a live-telemetry recorder on the system and every
    /// attached peer. Call once after construction (or any time — later
    /// peers pick the recorder up as they attach). Passing a disabled
    /// recorder turns telemetry back off.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for peer in self.peers.values_mut() {
            peer.set_recorder(&recorder);
        }
        self.telemetry = recorder;
    }

    /// The currently installed recorder (disabled unless
    /// [`System::set_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.telemetry
    }

    /// Marks the start of a commit-pipeline wave: every block produced
    /// until [`System::end_wave`] carries `wave` in its header, so the
    /// chain records which consensus rounds each wave paid for.
    pub fn begin_wave(&mut self, wave: u64) {
        self.wave = Some(wave);
    }

    /// Ends the current wave (blocks go back to unattributed).
    pub fn end_wave(&mut self) {
        self.wave = None;
    }

    /// A default system with the sharing contract deployed.
    pub fn bootstrap(config: SystemConfig) -> Result<Self> {
        let mut sys = Self::new(config);
        sys.deploy_sharing_contract()?;
        Ok(sys)
    }

    // ----- accessors -------------------------------------------------

    /// Current virtual time (ms).
    pub fn now_ms(&self) -> u64 {
        self.clock_ms
    }

    /// The chain.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The contract runtime.
    pub fn runtime(&self) -> &ContractRuntime {
        &self.runtime
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// The sharing contract id (after [`System::deploy_sharing_contract`]).
    pub fn sharing_contract(&self) -> Result<Hash256> {
        self.contract
            .ok_or_else(|| CoreError::BadAgreement("sharing contract not deployed".into()))
    }

    /// Looks up a registered peer's typed handle by display name.
    pub fn peer_id(&self, name: &str) -> Result<PeerId> {
        self.names
            .get(name)
            .copied()
            .map(PeerId::from_account)
            .ok_or_else(|| CoreError::UnknownPeer(name.to_string()))
    }

    /// All registered peers, in account order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers
            .keys()
            .copied()
            .map(PeerId::from_account)
            .collect()
    }

    /// Read access to a peer.
    pub fn peer(&self, peer: PeerId) -> Result<&PeerNode> {
        self.node(&peer.account())
    }

    /// Mutable access to a peer.
    pub fn peer_mut(&mut self, peer: PeerId) -> Result<&mut PeerNode> {
        self.node_mut(&peer.account())
    }

    /// [`System::peer`] by ledger account, the key the pipeline's own
    /// bookkeeping (share metadata, receiver lists) names peers by.
    fn node(&self, account: &AccountId) -> Result<&PeerNode> {
        self.peers
            .get(account)
            .ok_or_else(|| CoreError::UnknownPeer(account.to_string()))
    }

    /// Mutable [`System::node`].
    fn node_mut(&mut self, account: &AccountId) -> Result<&mut PeerNode> {
        self.peers
            .get_mut(account)
            .ok_or_else(|| CoreError::UnknownPeer(account.to_string()))
    }

    /// Removes a peer's node state from the system, transferring
    /// ownership to the caller. The name registration stays, so the
    /// peer is expected back: a system with detached peers must not run
    /// updates or flushes until every peer is [re-attached]. This is
    /// the ownership seam the `medledger-node` runtime is built on —
    /// between waves each per-peer event loop owns its `PeerNode`; the
    /// wave pump checks peers out, ticks, and checks them back in.
    ///
    /// [re-attached]: System::attach_peer
    pub fn detach_peer(&mut self, peer: PeerId) -> Result<PeerNode> {
        self.peers
            .remove(&peer.account())
            .ok_or_else(|| CoreError::UnknownPeer(peer.to_string()))
    }

    /// Returns a [detached] peer's node state to the system. Rejects a
    /// node whose account was never registered here (the name map is
    /// the registration of record) or whose slot is already occupied.
    ///
    /// [detached]: System::detach_peer
    pub fn attach_peer(&mut self, mut node: PeerNode) -> Result<()> {
        if self.names.get(&node.name) != Some(&node.account) {
            return Err(CoreError::UnknownPeer(node.name.clone()));
        }
        if self.peers.contains_key(&node.account) {
            return Err(CoreError::BadAgreement(format!(
                "peer `{}` is already attached",
                node.name
            )));
        }
        if self.telemetry.is_enabled() {
            node.set_recorder(&self.telemetry);
        }
        self.peers.insert(node.account, node);
        Ok(())
    }

    /// A peer's display name, falling back to the short id.
    fn peer_name_or_id(&self, peer: PeerId) -> String {
        self.peers
            .get(&peer.account())
            .map(|p| p.name.clone())
            .unwrap_or_else(|| peer.to_string())
    }

    /// The Fig. 3 metadata row for a shared table, from contract state.
    pub fn share_meta(&self, table_id: &str) -> Result<SharedTableMeta> {
        let contract = self.sharing_contract()?;
        let state = self
            .runtime
            .contract_state(&contract)
            .ok_or_else(|| CoreError::BadAgreement("contract state missing".into()))?;
        SharingContract::load_meta(state, table_id)
            .ok_or_else(|| CoreError::UnknownShare(table_id.to_string()))
    }

    /// The chronological on-chain history of a shared table (the paper's
    /// auditability property).
    pub fn audit(&self, table_id: &str) -> Vec<audit::AuditEntry> {
        audit::history_for_key(&self.chain, table_id)
    }

    // ----- membership & deployment -----------------------------------

    /// Adds a peer to the network, returning its typed handle.
    pub fn add_peer(&mut self, name: &str) -> Result<PeerId> {
        if self.names.contains_key(name) {
            return Err(CoreError::BadAgreement(format!("peer `{name}` exists")));
        }
        let mut peer = PeerNode::new(
            name,
            &self.config.seed,
            self.config.peer_key_capacity,
            PropagationMode::Delta,
            self.config.shards_per_table,
        );
        if self.telemetry.is_enabled() {
            peer.set_recorder(&self.telemetry);
        }
        let account = peer.account;
        self.chain.membership_mut().add_member(account);
        self.names.insert(name.to_string(), account);
        self.peers.insert(account, peer);
        self.flush_structural()?;
        Ok(PeerId::from_account(account))
    }

    /// Deploys the sharing contract (admin transaction + one block).
    pub fn deploy_sharing_contract(&mut self) -> Result<Hash256> {
        if let Some(c) = self.contract {
            return Ok(c);
        }
        let nonce = self.chain.expected_nonce(&self.admin.public());
        let tx = Transaction {
            sender: self.admin.public(),
            nonce,
            payload: TxPayload::DeployContract {
                code: SharingContract::CODE_TAG.to_vec(),
                init: vec![],
            },
            conflict_key: None,
        };
        let stx = tx.sign(&mut self.admin)?;
        let id = stx.id();
        let contract = ContractRuntime::contract_id(&self.admin.public(), nonce);
        self.mempool.add(stx);
        self.produce_blocks_until_receipt(&id, 16)?;
        self.expect_success(&id)?;
        self.contract = Some(contract);
        self.flush_structural()?;
        Ok(contract)
    }

    // ----- block production -------------------------------------------

    /// Produces one block: waits for the next block slot, runs consensus,
    /// executes transactions, appends.
    ///
    /// Crate-internal: callers drive the chain through the facade's
    /// `UpdateBatch::commit()` (or [`System::propagate_update`]), never
    /// block by block.
    pub(crate) fn produce_block(&mut self) -> Result<()> {
        let interval = match &self.config.consensus {
            ConsensusKind::PrivatePbft { block_interval_ms } => *block_interval_ms,
            ConsensusKind::PublicPow { .. } => self
                .pow
                .as_mut()
                .ok_or_else(|| CoreError::ConsensusFailed("PoW chain without a PoW model".into()))?
                .next_interval_ms(),
        };
        let slot = self.last_block_ms + interval;
        // Round admission: consensus starts at the current clock — i.e.
        // after the previous wave's fan-out advanced it — or at the next
        // block slot, whichever is later.
        let start = self.clock_ms.max(slot);
        self.last_block_ms = slot;

        let txs = self
            .mempool
            .select(self.config.max_block_txs, &BTreeSet::new());
        let height = self.chain.height() + 1;
        // The proposer's one pass over each transaction (≈2.3 KB, nearly
        // all of it the signature): encoded and hashed once here — the
        // root is the PBFT digest and the header's `tx_root`, the buffer
        // lengths are the round's payload — and its id taken once, for the
        // receipt and the mempool sweep. `Chain::append` recomputes the
        // root and the ids from the transactions as the validator's check.
        let encoded: Vec<Vec<u8>> = txs.iter().map(SignedTransaction::encode).collect();
        let tx_root = MerkleTree::from_data(&encoded).root();
        let ids: Vec<TxId> = txs.iter().map(SignedTransaction::id).collect();

        // Consensus: one scheduled PBFT round decides the whole block (the
        // pre-prepare carries every transaction, so a group-committed
        // multi-tx block still costs a single round); the PoW model's
        // latency is the interval itself (a found block is announced).
        let mut deciding_view = 0u64;
        let mut seal_ms = start;
        if let ConsensusKind::PrivatePbft { .. } = self.config.consensus {
            let payload: usize = encoded.iter().map(Vec::len).sum();
            let round = PbftRound::new(PbftConfig {
                n: self.config.n_validators,
                latency: self.config.validator_latency.clone(),
                drop_rate: 0.0,
                timeout_ms: 2_000,
                seed: format!("{}-pbft", self.config.seed),
            })
            .payload_bytes(payload.max(64));
            let out = round.run(height, tx_root, 3_600_000);
            let commit = out
                .all_commit_ms
                .ok_or_else(|| CoreError::ConsensusFailed(format!("height {height}")))?;
            seal_ms = start + commit;
            deciding_view = out.deciding_view;
            self.stats.consensus_msgs += out.messages;
            self.stats.consensus_bytes += out.bytes;
        }
        // Block timestamps stay monotonic.
        seal_ms = seal_ms.max(self.chain.tip().header.timestamp_ms);

        for (stx, id) in txs.iter().zip(&ids) {
            let receipt = self.runtime.execute(stx, height, seal_ms);
            if !receipt.status.is_success() {
                self.stats.reverted_txs += 1;
            }
            self.receipts.insert(*id, (height, receipt));
        }
        let state_root = self.runtime.state_root();
        // Attribute the block to the proposer of the round that actually
        // decided it (view 0 normally; later views after view changes).
        let proposer = self.schedule.proposer(height, deciding_view);
        let block = Block {
            header: BlockHeader {
                height,
                parent: self.chain.tip().hash(),
                tx_root,
                state_root,
                timestamp_ms: seal_ms,
                proposer,
                wave: self.wave,
            },
            txs,
        };
        self.chain.append(block)?;
        self.mempool.remove_committed(&ids);
        self.clock_ms = self.clock_ms.max(seal_ms);
        self.stats.blocks += 1;
        self.stats.txs += ids.len() as u64;
        Ok(())
    }

    /// Produces blocks until `tx` has a receipt (or `max_blocks` passed).
    fn produce_blocks_until_receipt(&mut self, tx: &TxId, max_blocks: usize) -> Result<()> {
        for _ in 0..max_blocks {
            if self.receipts.contains_key(tx) {
                return Ok(());
            }
            self.produce_block()?;
        }
        if self.receipts.contains_key(tx) {
            Ok(())
        } else {
            Err(CoreError::ConsensusFailed(format!(
                "tx {} not committed within {max_blocks} blocks",
                tx.short()
            )))
        }
    }

    /// The receipt of a committed transaction.
    pub fn receipt(&self, tx: &TxId) -> Option<&Receipt> {
        self.receipts.get(tx).map(|(_, r)| r)
    }

    fn expect_success(&self, tx: &TxId) -> Result<()> {
        match self.receipt(tx) {
            Some(r) => match &r.status {
                TxStatus::Success => Ok(()),
                TxStatus::Reverted { kind, reason } => Err(CoreError::TxReverted(RevertInfo {
                    tx_id: *tx,
                    kind: *kind,
                    reason: reason.clone(),
                })),
            },
            None => Err(CoreError::ConsensusFailed("receipt missing".into())),
        }
    }

    /// Reserves the one-time signatures one update of a share among
    /// `sharing_peers` will take: the updater's request, one co-request
    /// per co-author (a peer may co-sign its own member when the engine
    /// composed two of its submissions) and — when the share has
    /// receivers — one ack share per receiver plus the updater's
    /// aggregate ack. They come out of `unreserved`: per signer, the keys
    /// it held when the wave began less what the wave's earlier members
    /// reserved (a signer enters at its first reservation; the wave
    /// spends no key of a signer before that).
    ///
    /// All of them must be available BEFORE the request enters the
    /// mempool: a queued request cannot be withdrawn, so a signer found
    /// short afterwards would leave the update committed and the table
    /// locked, with no key left to ever unlock it. An update that would
    /// overdraw any signer reserves nothing and is refused with
    /// [`CoreError::KeysExhausted`]. (A dissent ack, which only a
    /// corrupted share triggers, is not budgeted.)
    fn reserve_signatures(
        &self,
        unreserved: &mut BTreeMap<AccountId, u64>,
        updater: AccountId,
        co_signers: impl Iterator<Item = AccountId>,
        sharing_peers: &BTreeSet<AccountId>,
    ) -> Result<()> {
        let receivers = sharing_peers.iter().copied().filter(|p| *p != updater);
        let ack = receivers.clone().next().map(|_| updater);
        let mut needed: BTreeMap<AccountId, u64> = BTreeMap::new();
        for signer in [updater]
            .into_iter()
            .chain(co_signers)
            .chain(receivers)
            .chain(ack)
        {
            *needed.entry(signer).or_insert(0) += 1;
        }
        let mut after = Vec::with_capacity(needed.len());
        for (account, n) in needed {
            let have = match unreserved.get(&account) {
                Some(have) => *have,
                None => self.node(&account)?.keys.remaining(),
            };
            after.push((
                account,
                have.checked_sub(n).ok_or(CoreError::KeysExhausted)?,
            ));
        }
        unreserved.extend(after);
        Ok(())
    }

    /// Signs and submits a contract call from a peer; returns the tx id.
    fn submit_call(
        &mut self,
        sender: AccountId,
        method: &str,
        args: &impl serde::Serialize,
        conflict_key: Option<String>,
    ) -> Result<TxId> {
        let contract = self.sharing_contract()?;
        let args = serde_json::to_vec(args).map_err(|e| {
            CoreError::Contract(ContractError::BadCall(format!(
                "`{method}` arguments do not encode: {e}"
            )))
        })?;
        let peer = self
            .peers
            .get_mut(&sender)
            .ok_or_else(|| CoreError::UnknownPeer(sender.to_string()))?;
        let tx = Transaction {
            sender,
            nonce: peer.take_nonce(),
            payload: TxPayload::CallContract {
                contract,
                method: method.into(),
                args,
            },
            conflict_key,
        };
        let stx = tx.sign(&mut peer.keys)?;
        let id = stx.id();
        self.mempool.add(stx);
        Ok(id)
    }

    // ----- sharing lifecycle ------------------------------------------

    /// Creates a shared table from an agreement: verifies that every
    /// peer's lens produces the **same** initial view, registers the
    /// Fig. 3 metadata on the contract, and materializes local copies.
    pub fn create_share(&mut self, agreement: &SharingAgreement) -> Result<()> {
        if agreement.bindings.len() < 2 {
            return Err(CoreError::BadAgreement(
                "a share needs at least two peers".into(),
            ));
        }
        // Pre-check: identical initial views (the paper's "formats and
        // contents of shared data are predefined by sharing peers").
        let mut initial_hash: Option<Hash256> = None;
        for (account, binding) in &agreement.bindings {
            let peer = self
                .peers
                .get(account)
                .ok_or_else(|| CoreError::UnknownPeer(account.to_string()))?;
            let source = peer.db.table(&binding.source_table)?;
            let view = medledger_bx::exec::get(&binding.lens, source)?;
            let h = view.content_hash();
            match initial_hash {
                None => initial_hash = Some(h),
                Some(prev) if prev != h => {
                    return Err(CoreError::BadAgreement(format!(
                        "peer {} derives a different initial view for `{}` \
                         ({} vs {})",
                        peer.name,
                        agreement.table_id,
                        h.short(),
                        prev.short()
                    )));
                }
                _ => {}
            }
        }
        let initial_hash = initial_hash
            .ok_or_else(|| CoreError::BadAgreement("a share needs at least two peers".into()))?;

        // Register on chain (the authority is the registrar).
        let args = RegisterShareArgs {
            table_id: agreement.table_id.clone(),
            peers: agreement.peers(),
            write_permission: agreement.write_permission.clone(),
            authority: agreement.authority,
            initial_hash,
        };
        let tx = self.submit_call(
            agreement.authority,
            "register_share",
            &args,
            Some(agreement.table_id.clone()),
        )?;
        self.produce_blocks_until_receipt(&tx, 16)?;
        self.expect_success(&tx)?;

        // Materialize local copies.
        for (account, binding) in &agreement.bindings {
            self.node_mut(account)?
                .join_share(&agreement.table_id, binding.clone())?;
        }
        self.flush_structural()?;
        Ok(())
    }

    /// Changes an attribute's writer set (authority only; Fig. 3's
    /// "Doctor can change the permission for updating Dosage").
    pub fn change_permission(
        &mut self,
        authority: PeerId,
        table_id: &str,
        attr: &str,
        writers: &[PeerId],
    ) -> Result<()> {
        let args = ChangePermissionArgs {
            table_id: table_id.to_string(),
            attr: attr.to_string(),
            writers: writers.iter().map(PeerId::account).collect(),
        };
        let tx = self.submit_call(
            authority.account(),
            "change_permission",
            &args,
            Some(table_id.to_string()),
        )?;
        self.produce_blocks_until_receipt(&tx, 16)?;
        self.expect_success(&tx)?;
        self.flush_storage()?;
        Ok(())
    }

    /// Table-level delete (Fig. 4): the authority retires the share on
    /// chain; every participating peer then drops its local copy and
    /// binding. Sources keep the data — only the sharing relationship
    /// ends. The chain retains the full audit history.
    pub fn remove_share(&mut self, authority: PeerId, table_id: &str) -> Result<()> {
        let authority = authority.account();
        let meta = self.share_meta(table_id)?;
        let args = serde_json::json!({ "table_id": table_id });
        let tx = self.submit_call(authority, "remove_share", &args, Some(table_id.to_string()))?;
        self.produce_blocks_until_receipt(&tx, 16)?;
        self.expect_success(&tx)?;
        for account in &meta.peers {
            if let Some(peer) = self.peers.get_mut(account) {
                // A peer may have already left locally; ignore that case.
                let _ = peer.leave_share(table_id);
            }
        }
        self.flush_structural()?;
        Ok(())
    }

    // ----- the Fig. 5 workflow ----------------------------------------

    /// Propagates a pending local change of `table_id` from `updater` to
    /// all sharing peers, running the full Fig. 5 workflow including the
    /// Step-6 dependency check and recursive cascades (Steps 7–11).
    pub fn propagate_update(&mut self, updater: PeerId, table_id: &str) -> Result<UpdateReport> {
        let mut active = BTreeSet::new();
        let report = self.propagate_inner(updater.account(), table_id, &mut active, 0)?;
        self.flush_storage()?;
        Ok(report)
    }

    /// One update through the whole pipeline: Step 1 + pre-flight,
    /// request transaction, consensus, parallel receiver fan-out, acks,
    /// Step-6 cascades.
    fn propagate_inner(
        &mut self,
        updater: AccountId,
        table_id: &str,
        active: &mut BTreeSet<String>,
        depth: usize,
    ) -> Result<UpdateReport> {
        if depth > 16 {
            return Err(CoreError::ConsistencyViolation(
                "cascade depth exceeded 16 — cyclic sharing topology?".into(),
            ));
        }
        active.insert(table_id.to_string());
        let mut trace = WorkflowTrace::default();
        let submitted_ms = self.clock_ms;

        // Step 1 + pre-flight translatability check.
        let mut prepared = match self.prepare_update(updater, table_id, &mut trace) {
            Ok(p) => p,
            Err(e) => {
                active.remove(table_id);
                return Err(e);
            }
        };

        let reserved = self.share_meta(table_id).and_then(|meta| {
            let no_co_signers = std::iter::empty();
            self.reserve_signatures(&mut BTreeMap::new(), updater, no_co_signers, &meta.peers)
        });
        if let Err(e) = reserved {
            active.remove(table_id);
            return Err(e);
        }

        // Step 2: request the update from the smart contract (metadata
        // only — hash + changed attrs; the data itself never touches the
        // chain).
        let args = RequestUpdateArgs {
            table_id: table_id.to_string(),
            new_hash: prepared.new_hash,
            changed_attrs: prepared.attrs.clone(),
        };
        let tx = self.submit_call(updater, "request_update", &args, Some(table_id.to_string()))?;
        trace.push(
            "2",
            self.clock_ms,
            &prepared.updater_name,
            format!("sent update request tx {} to sharing contract", tx.short()),
        );

        // Step 3: consensus + permission verification.
        self.produce_blocks_until_receipt(&tx, 32)?;
        if let Err(e) = self.expect_success(&tx) {
            trace.push(
                "3",
                self.clock_ms,
                "contract",
                format!("permission DENIED: {e}"),
            );
            active.remove(table_id);
            return Err(e);
        }
        let committed_ms = self.clock_ms;
        let version = self.share_meta(table_id)?.version;
        trace.push(
            "3",
            committed_ms,
            "contract",
            format!(
                "permission verified; update committed at height {} (version {version})",
                self.chain.height()
            ),
        );

        // The updater's stored copy becomes the committed baseline.
        self.node_mut(&updater)?
            .commit_delta(table_id, &prepared.delta, version)?;

        // Steps 4–5: parallel fan-out to every other sharing peer.
        let fan = self.fanout_apply(&mut prepared, version, committed_ms, &mut trace)?;

        // Acks: peers confirm on chain; the table stays locked until all
        // acks commit (the paper's barrier): one aggregated attestation
        // transaction.
        let ack_txs =
            self.submit_ack_round(table_id, version, prepared.new_hash, updater, &fan.others)?;
        self.produce_blocks_until_all(&ack_txs)?;
        for t in &ack_txs {
            self.expect_success(t)?;
        }
        let synced_ms = self.clock_ms;
        if !fan.others.is_empty() {
            trace.push(
                "m",
                synced_ms,
                "contract",
                format!(
                    "all {} peer(s) acked version {version}; table unlocked",
                    fan.others.len()
                ),
            );
        }

        // Step 6: dependency check on every peer that applied the change
        // (and the updater itself), with recursive cascades.
        let mut participants = fan.others.clone();
        participants.push(updater);
        let (cascades, failed_cascades) =
            self.step6_cascades(table_id, &participants, active, depth, &mut trace)?;

        active.remove(table_id);
        Ok(UpdateReport {
            table_id: table_id.to_string(),
            version,
            submitted_ms,
            committed_ms,
            visible_ms: fan.visible_ms,
            synced_ms,
            changed_attrs: prepared.attrs,
            rows_moved: fan.rows_moved,
            bytes_moved: fan.bytes_moved,
            tx_ids: {
                let mut ids = vec![tx];
                ids.extend(ack_txs.iter().copied());
                ids
            },
            cascades,
            failed_cascades,
            trace,
        })
    }

    /// Fig. 5 Step 1 plus the pre-flight translatability check: the
    /// pending delta relative to the committed baseline (tracked at write
    /// time; falls back to a full diff only for out-of-band edits), plus
    /// every sharing peer's pre-translated `put_delta` result, kept and
    /// reused at apply time.
    fn prepare_update(
        &mut self,
        updater: AccountId,
        table_id: &str,
        trace: &mut WorkflowTrace,
    ) -> Result<PreparedUpdate> {
        let (updater_name, delta, attrs, new_hash) = {
            let peer = self.node_mut(&updater)?;
            let delta = peer.prepare_update_delta(table_id)?;
            if delta.is_empty() {
                return Err(CoreError::NoChange(table_id.to_string()));
            }
            let attrs: Vec<String> = changed_attrs_from_delta(&peer.baseline(table_id)?, &delta)
                .into_iter()
                .collect();
            let new_hash = peer.shared_hash(table_id)?;
            (peer.name.clone(), delta, attrs, new_hash)
        };
        trace.push(
            "1",
            self.clock_ms,
            &updater_name,
            format!(
                "computed `{table_id}` delta via BX-get-delta ({} row(s)); changed attrs: [{}]",
                delta.row_count(),
                attrs.join(", ")
            ),
        );
        // Pre-flight: every sharing peer must be able to translate the
        // delta into its source (`put_delta` must succeed) *before*
        // anything commits on chain.
        let meta0 = self.share_meta(table_id)?;
        let mut source_deltas: BTreeMap<AccountId, TableDelta> = BTreeMap::new();
        for other in meta0.peers.iter().filter(|p| **p != updater) {
            let translated = self.node(other)?.translate_remote_delta(table_id, &delta)?;
            source_deltas.insert(*other, translated);
        }
        Ok(PreparedUpdate {
            updater,
            updater_name,
            table_id: table_id.to_string(),
            attrs,
            new_hash,
            delta,
            source_deltas,
        })
    }

    /// Steps 4–5 for every sharing peer other than the updater: fetch the
    /// committed delta, verify it against the announced hash, apply it,
    /// and reflect it into the local source via BX-put.
    ///
    /// The apply work runs on a pool of scoped `std::thread` workers (see
    /// [`System::apply_on_receivers`]); everything order-sensitive — PRG
    /// latency draws, transfer accounting, trace lines — happens serially
    /// outside the pool, and results merge back in receiver order, so
    /// traces, receipts and stats are byte-identical regardless of the
    /// host's core count. Virtual time follows
    /// [`fanout::schedule_ms`]: `fanout_workers` parallel data channels,
    /// each serving its chunk of receivers sequentially (0 = one channel
    /// per receiver, i.e. full overlap).
    fn fanout_apply(
        &mut self,
        prepared: &mut PreparedUpdate,
        version: u64,
        committed_ms: u64,
        trace: &mut WorkflowTrace,
    ) -> Result<FanoutSummary> {
        let table_id = prepared.table_id.clone();
        let updater_name = prepared.updater_name.clone();
        let meta = self.share_meta(&table_id)?;
        let others: Vec<AccountId> = meta
            .peers
            .iter()
            .copied()
            .filter(|p| *p != prepared.updater)
            .collect();

        // Payload accounting, identical for every receiver.
        let rows_moved = prepared.delta.row_count() as u64;
        let payload_bytes = prepared.delta.encoded_size() as u64;
        let full_table_bytes = self
            .node(&prepared.updater)?
            .shared_store(&table_id)?
            .encoded_bytes();

        // Per-receiver latency draws, in receiver order (the PRG sequence
        // is part of the deterministic contract — thread count must never
        // change it).
        let mut service: Vec<u64> = Vec::with_capacity(others.len());
        for _ in &others {
            let notify = self.config.p2p_latency.sample(&mut self.prg);
            let fetch = self.config.p2p_latency.sample(&mut self.prg)
                + self.config.p2p_latency.sample(&mut self.prg);
            service.push(notify + fetch);
        }
        let virtual_channels = match self.config.fanout_workers {
            0 => others.len().max(1),
            w => w,
        };
        let applied_at = fanout::schedule_ms(committed_ms, &service, virtual_channels);
        let names: Vec<String> = others
            .iter()
            .map(|a| {
                self.peers
                    .get(a)
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| a.to_string())
            })
            .collect();

        let results = self.apply_on_receivers(prepared, &others, version);

        // Deterministic merge in receiver order. The pool contacts EVERY
        // receiver — so every receiver's transfer is accounted and
        // traced, keeping stats in agreement with actual peer state even
        // on the error path. A receiver whose apply failed self-reverted;
        // its trace records the failure, and the first error is surfaced
        // after the merge.
        let mut visible_ms = committed_ms;
        let mut bytes_moved = 0u64;
        let mut first_err: Option<CoreError> = None;
        for i in 0..others.len() {
            visible_ms = visible_ms.max(applied_at[i]);
            self.stats.p2p_transfers += 1;
            self.stats.p2p_bytes += payload_bytes;
            self.stats.data_plane.record(&DataTransfer {
                rows: rows_moved,
                bytes: payload_bytes,
                full_table_bytes,
            });
            bytes_moved += payload_bytes;
            trace.push(
                "4",
                applied_at[i],
                &names[i],
                format!("fetched `{table_id}` delta ({rows_moved} row(s)) from {updater_name}"),
            );
            match &results[i] {
                Err(e) => {
                    trace.push(
                        "5",
                        applied_at[i],
                        &names[i],
                        format!("FAILED to apply `{table_id}` (local copy self-reverted): {e}"),
                    );
                    if first_err.is_none() {
                        first_err = Some(e.clone());
                    }
                }
                Ok(()) => trace.push(
                    "5",
                    applied_at[i],
                    &names[i],
                    format!("reflected `{table_id}` delta into source via BX-put"),
                ),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.clock_ms = self.clock_ms.max(visible_ms);
        Ok(FanoutSummary {
            others,
            visible_ms,
            bytes_moved,
            rows_moved,
        })
    }

    /// The receiver side of the fan-out, in three phases (one shard per
    /// table is the degenerate case: one job per receiver):
    ///
    /// 1. **Plan** (read-only): each receiver splits the committed view
    ///    delta by shard and pre-derives its sibling cascade deltas.
    /// 2. **Shard jobs**: every receiver's touched shards become
    ///    independent jobs on ONE pool in [`fanout::run_sharded`]'s
    ///    shard-granular partitioning mode — receivers map to disjoint
    ///    `&mut PeerNode`s and shards to disjoint `&mut Shard`s, so the
    ///    workers share no state and need no locks, and even a single
    ///    receiver's disjoint shards apply (and pre-warm their Merkle
    ///    subroots) in parallel.
    /// 3. **Finish** (serial, receiver order): fold-verify the announced
    ///    hash, log the delta, reflect into the source via BX-put, stash
    ///    sibling cascades.
    ///
    /// Receivers that cannot take the shard path (a conflicted pending
    /// change) fall back to the whole-table resolution, still slotted in
    /// receiver order. Results are byte-identical for any shard and
    /// worker count.
    fn apply_on_receivers(
        &mut self,
        prepared: &mut PreparedUpdate,
        others: &[AccountId],
        version: u64,
    ) -> Vec<Result<()>> {
        let PreparedUpdate {
            table_id,
            delta,
            source_deltas,
            new_hash,
            ..
        } = prepared;
        let (table_id, delta, new_hash) = (table_id.as_str(), &*delta, *new_hash);
        let mut slots: Vec<Option<Result<()>>> = others.iter().map(|_| None).collect();

        // Phase 1 — plan per receiver.
        let mut sharded: Vec<(usize, RemoteShardPlan)> = Vec::new();
        let mut serial: Vec<usize> = Vec::new();
        for (i, a) in others.iter().enumerate() {
            // Pre-flight translated a source delta for every receiver it
            // found, so the two lookups miss together — and leave the
            // slot to the `UnknownPeer` at the end.
            let (Some(peer), Some(sd)) = (self.peers.get(a), source_deltas.get(a)) else {
                continue;
            };
            match peer.plan_remote_apply(table_id, delta, sd) {
                Ok(Some(plan)) => sharded.push((i, plan)),
                Ok(None) => serial.push(i),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }

        // Phase 2 — all receivers' shard jobs on one pool, shard-granular.
        let total_jobs: usize = sharded.iter().map(|(_, p)| p.job_count()).sum();
        let rows_moved = delta.row_count() as u64;
        let workers = self.fanout_pool_workers(total_jobs, rows_moved, others.len());
        let shard_results: Vec<Vec<medledger_relational::Result<TableDelta>>> = {
            let wanted: BTreeSet<AccountId> = sharded.iter().map(|(i, _)| others[*i]).collect();
            let mut refs: BTreeMap<AccountId, &mut PeerNode> = self
                .peers
                .iter_mut()
                .filter(|(a, _)| wanted.contains(a))
                .map(|(a, p)| (*a, p))
                .collect();
            let groups = sharded
                .iter()
                .map(|(i, plan)| {
                    refs.remove(&others[*i])
                        .map(|peer| peer.remote_shard_jobs(table_id, plan))
                        .unwrap_or_default()
                })
                .collect();
            fanout::run_sharded(groups, workers, run_shard_job)
        };

        // Phase 3 — serial tails, receiver order; conflicted receivers
        // resolve through the whole-table path.
        for ((i, plan), res) in sharded.into_iter().zip(shard_results) {
            let a = others[i];
            if let (Some(peer), Some(sd)) = (self.peers.get_mut(&a), source_deltas.remove(&a)) {
                slots[i] = Some(
                    peer.finish_remote_apply(table_id, plan, res, delta, &sd, new_hash, version),
                );
            }
        }
        for i in serial {
            let a = others[i];
            if let (Some(peer), Some(sd)) = (self.peers.get_mut(&a), source_deltas.remove(&a)) {
                slots[i] = Some(peer.apply_remote_delta(table_id, delta, &sd, new_hash, version));
            }
        }
        slots
            .into_iter()
            .zip(others)
            .map(|(s, a)| s.unwrap_or_else(|| Err(CoreError::UnknownPeer(a.to_string()))))
            .collect()
    }

    /// OS threads for one fan-out pool run over `total_jobs`
    /// receiver×shard jobs: the configured channel count, or (auto, `0`)
    /// whatever parallelism the host offers — except that tiny payloads
    /// then run inline: a one-row delta's per-receiver apply is
    /// microseconds, not worth a thread spawn.
    fn fanout_pool_workers(&self, total_jobs: usize, rows_moved: u64, receivers: usize) -> usize {
        let workers = match self.config.fanout_workers {
            0 if rows_moved * (receivers as u64) < PARALLEL_FANOUT_MIN_ROWS => 1,
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            w => w,
        };
        workers.min(total_jobs.max(1))
    }

    /// Submits the acknowledgement round for one committed update (the
    /// paper's barrier: the table stays locked until all acks commit).
    ///
    /// Every receiver signs the canonical ack message with its own
    /// one-time key ([`System::sign_ack_shares`]); the updater verifies
    /// each share off-chain, folds the verified shares into one
    /// attestation and submits a **single** `ack_update_aggregate`
    /// transaction under the derived conflict key
    /// `"{table}@ack:{version}"` ([`System::submit_ack_shares`]). Distinct
    /// derived keys let every table's aggregate share one block per wave,
    /// so the ack side costs O(1) blocks regardless of the receiver
    /// count. A receiver whose share fails verification falls back to an
    /// individual dissent `ack_update` under
    /// `"{table}@ack:{version}:d<i>"`, so the lock/denial semantics of
    /// the paper's barrier survive aggregation unchanged.
    fn submit_ack_round(
        &mut self,
        table_id: &str,
        version: u64,
        applied_hash: Hash256,
        updater: AccountId,
        others: &[AccountId],
    ) -> Result<Vec<TxId>> {
        if others.is_empty() {
            return Ok(Vec::new());
        }
        let msg = ack_message(table_id, version, &applied_hash);
        let shares = self.sign_ack_shares(&msg, others)?;
        self.submit_ack_shares(table_id, version, applied_hash, updater, &msg, &shares)
    }

    /// Each receiver's signature over the canonical ack message `msg`, in
    /// canonical (account) order so every node folds the identical
    /// attestation.
    fn sign_ack_shares(
        &mut self,
        msg: &[u8],
        others: &[AccountId],
    ) -> Result<Vec<(AccountId, Signature)>> {
        let mut sorted: Vec<AccountId> = others.to_vec();
        sorted.sort();
        let mut shares: Vec<(AccountId, Signature)> = Vec::with_capacity(sorted.len());
        for other in &sorted {
            shares.push((*other, self.node_mut(other)?.keys.sign(msg)?));
        }
        Ok(shares)
    }

    /// The updater's half of the ack round: one aggregate for the shares
    /// that verify, one dissent `ack_update` per receiver whose share
    /// does not.
    fn submit_ack_shares(
        &mut self,
        table_id: &str,
        version: u64,
        applied_hash: Hash256,
        updater: AccountId,
        msg: &[u8],
        shares: &[(AccountId, Signature)],
    ) -> Result<Vec<TxId>> {
        let (contributors, dissenters) = partition_ack_shares(msg, shares);
        let mut ack_txs = Vec::with_capacity(1 + dissenters.len());
        if !contributors.is_empty() {
            let attestation = fold_attestation(msg, &contributors);
            let args = AckAggregateArgs {
                table_id: table_id.to_string(),
                version,
                applied_hash,
                contributors: contributors.iter().map(|(a, _)| *a).collect(),
                attestation,
            };
            ack_txs.push(self.submit_call(
                updater,
                "ack_update_aggregate",
                &args,
                Some(format!("{table_id}@ack:{version}")),
            )?);
        }
        if !dissenters.is_empty() {
            let ack = AckUpdateArgs {
                table_id: table_id.to_string(),
                version,
                applied_hash,
            };
            for (i, d) in dissenters.iter().enumerate() {
                ack_txs.push(self.submit_call(
                    *d,
                    "ack_update",
                    &ack,
                    Some(format!("{table_id}@ack:{version}:d{i}")),
                )?);
            }
        }
        Ok(ack_txs)
    }

    /// The Fig. 5 **Step 6** dependency check, the part both commit paths
    /// share: for every participant, walk the sibling shares overlapping
    /// `table_id` (skipping tables in `active` — updates still in
    /// progress up the serial path's call stack), decide whether each now
    /// differs (it carries a pending change — an O(pending) read), push
    /// the numbered trace line, and hand every changed one to
    /// `on_change`. What happens to a changed share is the caller's: the
    /// serial path recurses into it (Steps 7–11), the wave engine defers
    /// it to the next wave.
    fn step6_sweep(
        &mut self,
        table_id: &str,
        participants: &[AccountId],
        active: &mut BTreeSet<String>,
        if_changed: &str,
        trace: &mut WorkflowTrace,
        mut on_change: impl FnMut(
            &mut Self,
            &mut BTreeSet<String>,
            &mut WorkflowTrace,
            Step6Change,
        ) -> Result<()>,
    ) -> Result<()> {
        for account in participants {
            for other_table in self.node(account)?.overlapping_shares(table_id)? {
                if active.contains(&other_table) {
                    continue;
                }
                let peer = self.node(account)?;
                let differs = peer.has_pending_change(&other_table)?;
                let peer_name = peer.name.clone();
                trace.push(
                    "6",
                    self.clock_ms,
                    &peer_name,
                    format!(
                        "dependency check: `{other_table}` overlaps `{table_id}`; {}",
                        if differs {
                            if_changed
                        } else {
                            "content unchanged → no cascade"
                        }
                    ),
                );
                if differs {
                    let change = Step6Change {
                        account: *account,
                        peer_name,
                        table_id: other_table,
                    };
                    on_change(self, active, trace, change)?;
                }
            }
        }
        Ok(())
    }

    /// Step 6 on the serial path: every changed sibling share cascades
    /// recursively, right here (Steps 7–11).
    fn step6_cascades(
        &mut self,
        table_id: &str,
        participants: &[AccountId],
        active: &mut BTreeSet<String>,
        depth: usize,
        trace: &mut WorkflowTrace,
    ) -> Result<CascadeOutcome> {
        let mut cascades = Vec::new();
        let mut failed_cascades: Vec<(String, String)> = Vec::new();
        self.step6_sweep(
            table_id,
            participants,
            active,
            "content changed → cascade (steps 7-11)",
            trace,
            |system, active, trace, change| {
                match system.propagate_inner(change.account, &change.table_id, active, depth + 1) {
                    Ok(report) => cascades.push(report),
                    // A denied or untranslatable cascade must not roll
                    // back the committed parent update; record it. The
                    // blocked peer keeps its pending delta to retry.
                    Err(
                        e @ (CoreError::TxReverted(_) | CoreError::Bx(_) | CoreError::NoChange(_)),
                    ) => {
                        trace.push(
                            "6",
                            system.clock_ms,
                            &change.peer_name,
                            format!("cascade into `{}` blocked: {e}", change.table_id),
                        );
                        failed_cascades.push((change.table_id, e.to_string()));
                    }
                    Err(e) => return Err(e),
                }
                Ok(())
            },
        )?;
        Ok((cascades, failed_cascades))
    }

    // ----- group commit ------------------------------------------------

    /// Screens a prospective commit group for members that cannot share
    /// a block. A member is inadmissible (`Some(CoreError::Conflicted)`)
    /// when — earlier members winning —
    ///
    /// * an earlier member already claims the same table,
    /// * the mempool still holds a transaction for the table, or
    /// * the table *interacts* with an earlier member's table: some
    ///   sharing peer binds both to one source with overlapping lens
    ///   footprints, so committing one would cascade into (or absorb
    ///   uncommitted state of) the other. Interacting tables must
    ///   serialize across groups, exactly like same-table claims.
    pub fn screen_group(&self, entries: &[GroupEntry]) -> Vec<Option<CoreError>> {
        let queued = self.mempool.pending_conflict_keys();
        let mut out: Vec<Option<CoreError>> = Vec::with_capacity(entries.len());
        let mut admitted: Vec<&str> = Vec::new();
        for e in entries {
            let conflicted = queued.contains(&e.table_id)
                || admitted.iter().any(|t| *t == e.table_id)
                || admitted
                    .iter()
                    .any(|t| self.tables_interact(t, &e.table_id));
            if conflicted {
                out.push(Some(CoreError::Conflicted(e.table_id.clone())));
            } else {
                admitted.push(&e.table_id);
                out.push(None);
            }
        }
        out
    }

    /// True iff some sharing peer of `a` also participates in `b` with
    /// an overlapping lens footprint on the same source — the Step-6
    /// dependency relation, applied pairwise to group members.
    fn tables_interact(&self, a: &str, b: &str) -> bool {
        let Ok(meta) = self.share_meta(a) else {
            return false;
        };
        meta.peers.iter().any(|acct| {
            self.peers.get(acct).is_some_and(|p| {
                p.overlapping_shares(a)
                    .is_ok_and(|list| list.iter().any(|t| t == b))
            })
        })
    }

    /// Commits many staged updates touching **distinct** shared tables in
    /// one block and one scheduled consensus round, then fans each update
    /// out to its receivers and batches all acknowledgement rounds.
    ///
    /// The paper's conflict rule — one update per shared table per block,
    /// enforced by `Mempool::select` and re-checked by chain validation —
    /// becomes the batching criterion instead of a one-at-a-time limiter:
    /// because group members touch distinct tables, all their
    /// `request_update` transactions fit in the next block, and every
    /// member's ack side is one aggregated transaction too, so the whole
    /// group's acks share a block as well — consensus cost per update
    /// drops to `~2 / group_size` blocks.
    ///
    /// Outcomes are demultiplexed per member: a denied or untranslatable
    /// member fails alone — callers roll back exactly that member's
    /// staged writes via its inverse deltas — while the rest of the block
    /// commits. A member targeting a table that an earlier member (or a
    /// transaction still queued in the mempool) already claims fails with
    /// [`CoreError::Conflicted`]. A whole-group `Err` is reserved for
    /// engine-level failures (e.g. consensus death) where nothing
    /// committed.
    ///
    /// This is the wave engine — the one batching path, driven by
    /// `medledger-engine`'s `LedgerService` (and so by the gateway pump);
    /// [`System::propagate_update`] stays beside it as the serial,
    /// paper-literal reference. Two things it does that the serial path
    /// does not:
    ///
    /// * a write-combined member (non-empty `co_submitters`) submits the
    ///   lead's `request_update` — declaring only the lead's own
    ///   attributes — plus one `co_request_update` per co-author in the
    ///   **same block**, each permission-checked on that co-author's
    ///   declared attributes and individually receipted (`co_txs`);
    /// * the Fig. 5 Step-6 sweep only *detects* cascades and returns them
    ///   as [`DeferredCascade`]s for the caller's next wave, instead of
    ///   propagating each serially.
    pub fn commit_group(&mut self, entries: &[GroupEntry]) -> Result<GroupCommitOutcome> {
        fn fail(error: CoreError, committed_on_chain: bool) -> GroupEntryFailure {
            GroupEntryFailure {
                error,
                committed_on_chain,
            }
        }
        let mut slots: Vec<Option<GroupEntryResult>> = entries.iter().map(|_| None).collect();
        let mut co_txs_out: Vec<Vec<TxId>> = entries.iter().map(|_| Vec::new()).collect();
        let mut deferred: Vec<DeferredCascade> = Vec::new();
        let mut co_seq: usize = 0;
        let mut unreserved: BTreeMap<AccountId, u64> = BTreeMap::new();
        let stats_before = self.stats;
        let mut timer = StageTimer::start(&self.telemetry, "wave");

        // Conflict screening (see [`System::screen_group`]): distinct,
        // non-interacting tables only, none with a transaction still
        // queued from outside the group.
        for (i, screen) in self.screen_group(entries).into_iter().enumerate() {
            if let Some(err) = screen {
                slots[i] = Some(Err(fail(err, false)));
            }
        }
        timer.stage("phase.screen");

        // Phase 1 — Step 1 + pre-flight per member, then submit every
        // `request_update` (distinct conflict keys: the next block takes
        // them all).
        struct InFlight {
            idx: usize,
            prepared: PreparedUpdate,
            trace: WorkflowTrace,
            submitted_ms: u64,
            tx: TxId,
            co_txs: Vec<TxId>,
        }
        let mut inflight: Vec<InFlight> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            let mut trace = WorkflowTrace::default();
            let submitted_ms = self.clock_ms;
            let prepared = match self.prepare_update(e.updater.account(), &e.table_id, &mut trace) {
                Ok(p) => p,
                Err(err) => {
                    slots[i] = Some(Err(fail(err, false)));
                    continue;
                }
            };
            // A write-combined member distributes the permission check:
            // the lead declares only its own attributes, each co-author
            // its own. The union must still cover every attribute the
            // composed delta actually changes — otherwise some change
            // would dodge the Fig. 3 matrix entirely.
            let declared = e
                .declared_attrs
                .clone()
                .unwrap_or_else(|| prepared.attrs.clone());
            if e.declared_attrs.is_some() || !e.co_submitters.is_empty() {
                let mut covered: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
                for co in &e.co_submitters {
                    covered.extend(co.attrs.iter().map(String::as_str));
                }
                if let Some(missing) = prepared
                    .attrs
                    .iter()
                    .find(|a| !covered.contains(a.as_str()))
                {
                    slots[i] = Some(Err(fail(
                        CoreError::BadAgreement(format!(
                            "combined update of `{}` changes attribute `{missing}` \
                             that no submitter declares",
                            e.table_id
                        )),
                        false,
                    )));
                    continue;
                }
            }
            let args = RequestUpdateArgs {
                table_id: e.table_id.clone(),
                new_hash: prepared.new_hash,
                changed_attrs: declared,
            };
            let meta = match self.share_meta(&e.table_id) {
                Ok(meta) => meta,
                Err(err) => {
                    slots[i] = Some(Err(fail(err, false)));
                    continue;
                }
            };
            let expected_version = meta.version + 1;
            // A member that would overdraw a signer fails alone, before
            // anything of it is queued.
            let co_signers = e.co_submitters.iter().map(|co| co.peer.account());
            if let Err(err) =
                self.reserve_signatures(&mut unreserved, prepared.updater, co_signers, &meta.peers)
            {
                slots[i] = Some(Err(fail(err, false)));
                continue;
            }
            match self.submit_call(
                prepared.updater,
                "request_update",
                &args,
                Some(e.table_id.clone()),
            ) {
                Ok(tx) => {
                    trace.push(
                        "2",
                        self.clock_ms,
                        &prepared.updater_name,
                        format!(
                            "sent update request tx {} to sharing contract (group of {})",
                            tx.short(),
                            entries.len()
                        ),
                    );
                    // Each co-author's individually signed co-request
                    // rides in the same block under a derived conflict
                    // key (the data change itself is still one per table
                    // per block — the lead's).
                    let mut member_co_txs = Vec::with_capacity(e.co_submitters.len());
                    let mut co_err: Option<CoreError> = None;
                    for co in &e.co_submitters {
                        let co_args = CoRequestUpdateArgs {
                            table_id: e.table_id.clone(),
                            version: expected_version,
                            changed_attrs: co.attrs.clone(),
                            new_hash: prepared.new_hash,
                        };
                        let key = format!("{}@co:{co_seq}", e.table_id);
                        co_seq += 1;
                        match self.submit_call(
                            co.peer.account(),
                            "co_request_update",
                            &co_args,
                            Some(key),
                        ) {
                            Ok(co_tx) => {
                                trace.push(
                                    "2",
                                    self.clock_ms,
                                    &self.peer_name_or_id(co.peer),
                                    format!(
                                        "co-signed combined update as tx {} (attrs [{}])",
                                        co_tx.short(),
                                        co.attrs.join(", ")
                                    ),
                                );
                                member_co_txs.push(co_tx);
                            }
                            Err(err) => {
                                co_err = Some(err);
                                break;
                            }
                        }
                    }
                    if let Some(err) = co_err {
                        // Unreachable in practice (the signatures were
                        // reserved above); if it fires, the lead's
                        // request is already queued and will commit, so
                        // the member must be reported post-commit-point
                        // to keep the caller from rolling back state the
                        // chain is about to hold.
                        self.produce_blocks_until_all(&[tx])?;
                        slots[i] = Some(Err(fail(err, self.expect_success(&tx).is_ok())));
                        co_txs_out[i] = member_co_txs;
                        continue;
                    }
                    co_txs_out[i] = member_co_txs.clone();
                    inflight.push(InFlight {
                        idx: i,
                        prepared,
                        trace,
                        submitted_ms,
                        tx,
                        co_txs: member_co_txs,
                    });
                }
                Err(err) => slots[i] = Some(Err(fail(err, false))),
            }
        }

        timer.stage("phase.prepare");

        // Phase 2 — one consensus wait for the whole group (a single
        // scheduled round when the block limit admits everything). If
        // block production dies mid-group, some requests may already
        // have committed in earlier blocks: report each member with an
        // accurate commit point instead of a whole-group error, so
        // callers only roll back members whose update never reached the
        // chain.
        let mut wave_txs: Vec<TxId> = inflight.iter().map(|f| f.tx).collect();
        wave_txs.extend(inflight.iter().flat_map(|f| f.co_txs.iter().copied()));
        let consensus_wait = self.produce_blocks_until_all(&wave_txs);
        timer.stage("phase.consensus");
        if let Err(e) = consensus_wait {
            for f in inflight {
                let committed = matches!(
                    self.receipts.get(&f.tx),
                    Some((_, r)) if r.status.is_success()
                );
                slots[f.idx] = Some(Err(fail(e.clone(), committed)));
            }
            return self.close_wave(timer, stats_before, slots, co_txs_out, deferred);
        }

        // Phase 3 — demultiplex receipts; committed members advance their
        // updater and fan out to their receivers.
        struct CommittedEntry {
            idx: usize,
            table_id: String,
            updater: AccountId,
            new_hash: Hash256,
            attrs: Vec<String>,
            trace: WorkflowTrace,
            submitted_ms: u64,
            committed_ms: u64,
            version: u64,
            tx: TxId,
            co_txs: Vec<TxId>,
            fan: FanoutSummary,
            ack_txs: Vec<TxId>,
        }
        let mut committed: Vec<CommittedEntry> = Vec::new();
        for f in inflight {
            let InFlight {
                idx,
                mut prepared,
                mut trace,
                submitted_ms,
                tx,
                co_txs,
            } = f;
            if let Err(e) = self.expect_success(&tx) {
                trace.push(
                    "3",
                    self.clock_ms,
                    "contract",
                    format!("permission DENIED: {e}"),
                );
                slots[idx] = Some(Err(fail(e, false)));
                continue;
            }
            // Co-author attestations are per-submitter outcomes, not
            // member outcomes: a reverted co-request (a pre-screened
            // denied rider) never sinks the member — the caller
            // demultiplexes each co receipt to its own submitter.
            for (co, co_tx) in entries[idx].co_submitters.iter().zip(&co_txs) {
                let verdict = match self.expect_success(co_tx) {
                    Ok(()) => format!("co-author verified for attrs [{}]", co.attrs.join(", ")),
                    Err(e) => format!("co-author DENIED: {e}"),
                };
                let name = self.peer_name_or_id(co.peer);
                trace.push("3", self.clock_ms, &name, verdict);
            }
            let committed_ms = self.receipt_time(&tx).unwrap_or(self.clock_ms);
            let height = self
                .receipts
                .get(&tx)
                .map(|(h, _)| *h)
                .unwrap_or_else(|| self.chain.height());
            let version = match self.share_meta(&prepared.table_id) {
                Ok(meta) => meta.version,
                Err(e) => {
                    slots[idx] = Some(Err(fail(e, true)));
                    continue;
                }
            };
            trace.push(
                "3",
                committed_ms,
                "contract",
                format!(
                    "permission verified; update committed at height {height} (version {version})"
                ),
            );
            let advanced = self
                .node_mut(&prepared.updater)
                .and_then(|p| p.commit_delta(&prepared.table_id, &prepared.delta, version));
            if let Err(e) = advanced {
                slots[idx] = Some(Err(fail(e, true)));
                continue;
            }
            match self.fanout_apply(&mut prepared, version, committed_ms, &mut trace) {
                Ok(fan) => committed.push(CommittedEntry {
                    idx,
                    table_id: prepared.table_id,
                    updater: prepared.updater,
                    new_hash: prepared.new_hash,
                    attrs: prepared.attrs,
                    trace,
                    submitted_ms,
                    committed_ms,
                    version,
                    tx,
                    co_txs,
                    fan,
                    ack_txs: Vec::new(),
                }),
                Err(e) => slots[idx] = Some(Err(fail(e, true))),
            }
        }

        timer.stage("phase.fanout");

        // Phase 4 — submit every member's acks, then wait for all of them
        // together. Each member emits ONE `ack_update_aggregate` under its
        // own derived conflict key, so the whole group's ack side fits a
        // single block — the wave pays ~2 rounds (request + aggregated
        // ack) regardless of the receiver count.
        let mut survivors: Vec<CommittedEntry> = Vec::new();
        for mut c in committed {
            match self.submit_ack_round(
                &c.table_id,
                c.version,
                c.new_hash,
                c.updater,
                &c.fan.others,
            ) {
                Ok(acks) => {
                    c.ack_txs = acks;
                    survivors.push(c);
                }
                Err(e) => slots[c.idx] = Some(Err(fail(e, true))),
            }
        }
        let all_acks: Vec<TxId> = survivors
            .iter()
            .flat_map(|c| c.ack_txs.iter().copied())
            .collect();
        let ack_wait = self.produce_blocks_until_all(&all_acks);
        timer.stage("phase.ack");
        if let Err(e) = ack_wait {
            // Every survivor's update is already on chain; an ack-phase
            // consensus failure is post-commit for all of them.
            for c in survivors {
                slots[c.idx] = Some(Err(fail(e.clone(), true)));
            }
            return self.close_wave(timer, stats_before, slots, co_txs_out, deferred);
        }

        // Phase 5 — per member: verify acks, close the trace, run the
        // Step-6 dependency check and defer the cascades it finds.
        for mut c in survivors {
            let mut ack_err = None;
            let mut synced_ms = c.committed_ms;
            for t in &c.ack_txs {
                if let Err(e) = self.expect_success(t) {
                    ack_err = Some(e);
                    break;
                }
                synced_ms = synced_ms.max(self.receipt_time(t).unwrap_or(self.clock_ms));
            }
            if let Some(e) = ack_err {
                slots[c.idx] = Some(Err(fail(e, true)));
                continue;
            }
            if !c.fan.others.is_empty() {
                c.trace.push(
                    "m",
                    synced_ms,
                    "contract",
                    format!(
                        "all {} peer(s) acked version {}; table unlocked",
                        c.fan.others.len(),
                        c.version
                    ),
                );
            }
            let mut participants = c.fan.others.clone();
            participants.push(c.updater);
            let swept = self.step6_sweep(
                &c.table_id,
                &participants,
                &mut BTreeSet::new(),
                "content changed → cascade deferred to next wave",
                &mut c.trace,
                |_, _, _, change| {
                    let peer = PeerId::from_account(change.account);
                    if !deferred
                        .iter()
                        .any(|d| d.peer == peer && d.table_id == change.table_id)
                    {
                        deferred.push(DeferredCascade {
                            peer,
                            table_id: change.table_id,
                            origin: c.table_id.clone(),
                        });
                    }
                    Ok(())
                },
            );
            match swept {
                Ok(()) => {
                    slots[c.idx] = Some(Ok(UpdateReport {
                        table_id: c.table_id,
                        version: c.version,
                        submitted_ms: c.submitted_ms,
                        committed_ms: c.committed_ms,
                        visible_ms: c.fan.visible_ms,
                        synced_ms,
                        changed_attrs: c.attrs,
                        rows_moved: c.fan.rows_moved,
                        bytes_moved: c.fan.bytes_moved,
                        tx_ids: {
                            let mut ids = vec![c.tx];
                            ids.extend(c.co_txs.iter().copied());
                            ids.extend(c.ack_txs.iter().copied());
                            ids
                        },
                        cascades: Vec::new(),
                        failed_cascades: Vec::new(),
                        trace: c.trace,
                    }));
                }
                Err(e) => slots[c.idx] = Some(Err(fail(e, true))),
            }
        }

        timer.stage("phase.cascade");

        self.flush_storage()?;
        timer.stage("phase.flush");
        self.close_wave(timer, stats_before, slots, co_txs_out, deferred)
    }

    /// The one way out of [`System::commit_group`]: closes the wave's
    /// telemetry and assembles the outcome, every member resolved.
    fn close_wave(
        &self,
        timer: StageTimer,
        before: SystemStats,
        slots: Vec<Option<GroupEntryResult>>,
        co_txs: Vec<Vec<TxId>>,
        deferred: Vec<DeferredCascade>,
    ) -> Result<GroupCommitOutcome> {
        self.record_wave_telemetry(timer, before);
        let results = slots
            .into_iter()
            .map(|s| {
                s.ok_or_else(|| {
                    CoreError::ConsistencyViolation("a wave member was left unresolved".into())
                })
            })
            .collect::<Result<_>>()?;
        Ok(GroupCommitOutcome {
            results,
            co_txs,
            deferred,
        })
    }

    /// Closes out one wave's telemetry: the total-latency histogram plus
    /// the wave's block/tx/byte deltas (per-wave histograms feeding the
    /// p50/p95 lines, and the running `chain.*` totals). `before` is the
    /// [`SystemStats`] snapshot taken when the wave began.
    fn record_wave_telemetry(&self, timer: StageTimer, before: SystemStats) {
        timer.finish("total");
        if !self.telemetry.is_enabled() {
            return;
        }
        let now = &self.stats;
        let blocks = now.blocks.saturating_sub(before.blocks);
        let txs = now.txs.saturating_sub(before.txs);
        let p2p_bytes = now.p2p_bytes.saturating_sub(before.p2p_bytes);
        self.telemetry.record("wave.blocks", blocks);
        self.telemetry.record("wave.txs", txs);
        self.telemetry.record("wave.p2p_bytes", p2p_bytes);
        self.telemetry.add("chain.waves", 1);
        self.telemetry.add("chain.blocks", blocks);
        self.telemetry.add("chain.txs", txs);
        self.telemetry.add("chain.p2p_bytes", p2p_bytes);
        self.telemetry.add(
            "chain.consensus_msgs",
            now.consensus_msgs.saturating_sub(before.consensus_msgs),
        );
        self.telemetry.add(
            "chain.consensus_bytes",
            now.consensus_bytes.saturating_sub(before.consensus_bytes),
        );
    }

    /// Produces blocks until every listed transaction has a receipt.
    fn produce_blocks_until_all(&mut self, txs: &[TxId]) -> Result<()> {
        let max_blocks = 32 + txs.len();
        for _ in 0..max_blocks {
            if txs.iter().all(|t| self.receipts.contains_key(t)) {
                return Ok(());
            }
            self.produce_block()?;
        }
        if txs.iter().all(|t| self.receipts.contains_key(t)) {
            Ok(())
        } else {
            Err(CoreError::ConsensusFailed(format!(
                "{} of {} group transactions uncommitted after {max_blocks} blocks",
                txs.iter()
                    .filter(|t| !self.receipts.contains_key(t))
                    .count(),
                txs.len()
            )))
        }
    }

    /// Block timestamp (virtual ms) of the block holding `tx`'s receipt.
    fn receipt_time(&self, tx: &TxId) -> Option<u64> {
        let (height, _) = self.receipts.get(tx)?;
        self.chain.block_at(*height).map(|b| b.header.timestamp_ms)
    }

    /// Read: query the local database directly (the paper's Fig. 4 read
    /// path — no chain interaction).
    pub fn read_shared(&self, peer: PeerId, table_id: &str) -> Result<medledger_relational::Table> {
        self.peer(peer)?.shared_table(table_id)
    }

    // ----- invariants ---------------------------------------------------

    /// Verifies the paper's core promise: for every *synced* shared
    /// table, every sharing peer's committed data — its stored copy,
    /// rewound by whatever pending local change it carries (a peer with a
    /// permission-blocked cascade awaiting retry does) — matches the hash
    /// the contract committed. See [`PeerNode::check_share_integrity`].
    pub fn check_consistency(&self) -> Result<()> {
        let contract = self.sharing_contract()?;
        let state = self
            .runtime
            .contract_state(&contract)
            .ok_or_else(|| CoreError::BadAgreement("contract state missing".into()))?;
        for table_id in SharingContract::table_ids(state) {
            let meta = SharingContract::load_meta(state, &table_id)
                .ok_or_else(|| CoreError::UnknownShare(table_id.clone()))?;
            if !meta.synced() {
                continue;
            }
            for account in &meta.peers {
                let peer = self
                    .peers
                    .get(account)
                    .ok_or_else(|| CoreError::UnknownPeer(account.to_string()))?;
                peer.check_share_integrity(&table_id, meta.content_hash)?;
            }
        }
        Ok(())
    }
}

/// Splits collected ack signature shares into verified **contributors** —
/// `(account, share digest)` pairs in the input's canonical order, ready
/// to fold into the aggregate attestation — and **dissenters**, receivers
/// whose share failed verification against their own public key and must
/// fall back to an individual on-chain ack (preserving the barrier's
/// denial semantics for exactly them).
fn partition_ack_shares(
    msg: &[u8],
    shares: &[(AccountId, Signature)],
) -> (Vec<(AccountId, Hash256)>, Vec<AccountId>) {
    let mut contributors = Vec::with_capacity(shares.len());
    let mut dissenters = Vec::new();
    for (account, sig) in shares {
        if sig.verify(account, msg) {
            contributors.push((*account, sig.share_digest()));
        } else {
            dissenters.push(*account);
        }
    }
    (contributors, dissenters)
}

#[cfg(test)]
mod ack_share_tests {
    use super::*;

    #[test]
    fn all_valid_shares_contribute() {
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let mut a = KeyPair::generate("ack-share-a", 4);
        let mut b = KeyPair::generate("ack-share-b", 4);
        let shares = vec![
            (a.public(), a.sign(&msg).expect("a")),
            (b.public(), b.sign(&msg).expect("b")),
        ];
        let (contributors, dissenters) = partition_ack_shares(&msg, &shares);
        assert_eq!(contributors.len(), 2);
        assert!(dissenters.is_empty());
        assert_eq!(contributors[0].0, a.public());
        assert_eq!(contributors[1].0, b.public());
    }

    #[test]
    fn corrupted_share_becomes_dissenter() {
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let mut a = KeyPair::generate("ack-diss-a", 4);
        let mut b = KeyPair::generate("ack-diss-b", 4);
        let mut bad = b.sign(&msg).expect("b");
        bad.chains[3] = Hash256([0xee; 32]);
        let shares = vec![(a.public(), a.sign(&msg).expect("a")), (b.public(), bad)];
        let (contributors, dissenters) = partition_ack_shares(&msg, &shares);
        assert_eq!(contributors.len(), 1);
        assert_eq!(contributors[0].0, a.public());
        assert_eq!(dissenters, vec![b.public()]);
    }

    /// The dissent path end to end: Steps 1–5 as `propagate_inner` runs
    /// them, then an ack round in which one receiver's share arrives
    /// damaged at the updater. The contract must take the mix — one
    /// aggregate for the share that verifies, the dissenter's own
    /// `ack_update` — attribute each receiver once, and unlock the table.
    #[test]
    fn forged_share_dissents_on_chain_and_the_table_still_unlocks() {
        use crate::facade::MedLedger;
        use medledger_bx::LensSpec;
        use medledger_relational::{row, Column, Schema, Table, Value, ValueType, WriteOp};

        let columns = vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
        ];
        let mut ward = Table::new(Schema::new(columns, &["patient_id"]).expect("schema"));
        ward.insert(row![1i64, "10 mg"]).expect("row");
        let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
        let mut ledger = MedLedger::builder()
            .seed("ack-dissent")
            .pbft(100)
            .peer_key_capacity(8)
            .build()
            .expect("boot");
        let [hub, a, b] = ["Hub", "A", "B"].map(|name| {
            let id = ledger.add_peer(name).expect("peer");
            (ledger.session(id).load_source("S", ward.clone())).expect("source");
            id
        });
        (ledger.session(hub).share("ward"))
            .bind("S", lens.clone())
            .with(a, "S", lens.clone())
            .with(b, "S", lens)
            .writers("patient_id", &[hub])
            .writers("dosage", &[hub])
            .create()
            .expect("share");

        let set_dose = |dose: &str| WriteOp::Update {
            key: vec![Value::Int(1)],
            assignments: vec![("dosage".into(), Value::text(dose))],
        };
        let sys = ledger.system_mut();
        let updater = hub.account();
        (sys.node_mut(&updater).expect("hub"))
            .write_shared("ward", set_dose("20 mg"))
            .expect("staged");
        let mut trace = WorkflowTrace::default();
        let mut prepared = (sys.prepare_update(updater, "ward", &mut trace)).expect("prepare");
        let args = RequestUpdateArgs {
            table_id: "ward".into(),
            new_hash: prepared.new_hash,
            changed_attrs: prepared.attrs.clone(),
        };
        let tx = (sys.submit_call(updater, "request_update", &args, Some("ward".into())))
            .expect("request");
        sys.produce_blocks_until_receipt(&tx, 32).expect("block");
        sys.expect_success(&tx).expect("permitted");
        let version = sys.share_meta("ward").expect("meta").version;
        (sys.node_mut(&updater).expect("hub"))
            .commit_delta("ward", &prepared.delta, version)
            .expect("commit");
        let fan =
            (sys.fanout_apply(&mut prepared, version, sys.clock_ms, &mut trace)).expect("fan-out");
        assert!(!sys.share_meta("ward").expect("meta").synced());

        let hash = prepared.new_hash;
        let msg = ack_message("ward", version, &hash);
        let mut shares = sys.sign_ack_shares(&msg, &fan.others).expect("shares");
        let (honest, forged) = (shares[0].0, shares[1].0);
        shares[1].1.chains[3] = Hash256([0xee; 32]);
        let acks =
            (sys.submit_ack_shares("ward", version, hash, updater, &msg, &shares)).expect("acks");
        assert_eq!(acks.len(), 2, "one aggregate, one dissent");
        sys.produce_blocks_until_all(&acks).expect("blocks");
        for ack in &acks {
            sys.expect_success(ack).expect("ack accepted");
        }

        assert!(sys.share_meta("ward").expect("meta").synced());
        let senders_of = |method: &str| -> Vec<AccountId> {
            let history = sys.audit("ward");
            let of_method = history
                .iter()
                .filter(|e| e.method.as_deref() == Some(method));
            of_method.map(|e| e.sender).collect()
        };
        assert_eq!(senders_of("ack_update"), vec![forged]);
        // The aggregate is listed under its submitter, then once per
        // receiver it stands for.
        assert_eq!(senders_of("ack_update_aggregate"), vec![updater, honest]);
        sys.check_consistency().expect("consistent");
        (ledger.session(hub).begin("ward"))
            .set(vec![Value::Int(1)], "dosage", Value::text("30 mg"))
            .commit()
            .expect("the barrier is open again");
    }

    #[test]
    fn share_signed_over_wrong_message_dissents() {
        let msg = ack_message("T", 1, &Hash256([2; 32]));
        let stale = ack_message("T", 1, &Hash256([3; 32]));
        let mut a = KeyPair::generate("ack-stale", 4);
        let shares = vec![(a.public(), a.sign(&stale).expect("a"))];
        let (contributors, dissenters) = partition_ack_shares(&msg, &shares);
        assert!(contributors.is_empty());
        assert_eq!(dissenters, vec![a.public()]);
    }
}
