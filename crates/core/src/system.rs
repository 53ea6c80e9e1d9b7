//! The assembled system: peers + chain + contract + consensus, and the
//! Fig. 4 / Fig. 5 workflows.

use crate::agreement::SharingAgreement;
use crate::error::{CoreError, RevertInfo};
use crate::peer::{PeerNode, PropagationMode};
use crate::sched::{Found, Member, Wave};
use crate::Result;
use medledger_bx::{changed_attrs_from_delta, TableDelta};
use medledger_consensus::{PbftConfig, PbftRound, PowModel, ProposerSchedule};
use medledger_contracts::call::{
    AckAggregateArgs, AckUpdateArgs, ChangePermissionArgs, CoRequestUpdateArgs, RegisterShareArgs,
    RemoveShareArgs, RequestUpdateArgs,
};
use medledger_contracts::{audit, ContractRuntime, SharedTableMeta, SharingCall, SharingContract};
use medledger_crypto::{
    ack_message, fold_attestation, Hash256, KeyPair, MerkleTree, Prg, Signature,
};
use medledger_ledger::{
    AccountId, Block, BlockHeader, Chain, Membership, Mempool, Receipt, SignedTransaction,
    Transaction, TxId, TxPayload, TxStatus,
};
use medledger_network::{DataPlaneStats, DataTransfer, LatencyModel};
use medledger_storage::Encode;
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
    /// Simulation seed.
    pub seed: String,
    /// Max transactions per block.
    pub max_block_txs: usize,
    /// One-time signing keys per peer (bounds how many txs each peer can
    /// send).
    pub peer_key_capacity: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_validators: 4,
            consensus: ConsensusKind::PrivatePbft {
                block_interval_ms: 1_000,
            },
            validator_latency: LatencyModel::lan(),
            seed: "medledger".into(),
            max_block_txs: 128,
            peer_key_capacity: 256,
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
    pub(crate) fn push(
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

/// How many cascade generations one update may set off before the sharing
/// topology is taken to be cyclic: a queued cascade whose path of origin
/// tables is longer is recorded as blocked instead of run (see
/// [`crate::sched`]).
pub const MAX_CASCADE_DEPTH: usize = 16;

/// What the receiver fan-out produced for one committed update.
#[derive(Default)]
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

/// A wave member between phases, past `prepare`: the prepare phase
/// queues its request `tx`; the fan-out phase sets `committed_ms`,
/// `version` and `fan`, the ack phase `ack_txs`.
pub(crate) struct Flight {
    member: Member,
    prepared: PreparedUpdate,
    trace: WorkflowTrace,
    submitted_ms: u64,
    tx: TxId,
    committed_ms: u64,
    version: u64,
    fan: FanoutSummary,
    ack_txs: Vec<TxId>,
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
    /// The wave currently producing blocks, if any (stamped into every
    /// block header; see `BlockHeader::wave`).
    pub(crate) wave: Option<u64>,
    /// The commit scheduler: queues, outcomes, cascade log, counters.
    pub(crate) sched: crate::sched::Scheduler,
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
    pub fn new(config: SystemConfig) -> Self {
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
            sched: Default::default(),
            persist: None,
            telemetry: Recorder::disabled(),
            config,
        }
    }

    /// Installs a live-telemetry recorder on the system and every
    /// peer. Call once after construction (or any time — later peers
    /// pick the recorder up as they join). Passing a disabled
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

    /// A peer's display name, falling back to the short id.
    pub(crate) fn peer_name_or_id(&self, peer: PeerId) -> String {
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
            1,
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
    /// Crate-internal: updates reach the chain in waves (the scheduler's
    /// [`System::run_wave`]), never block by block.
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
        call: SharingCall,
        conflict_key: Option<String>,
    ) -> Result<TxId> {
        let contract = self.sharing_contract()?;
        let peer = self
            .peers
            .get_mut(&sender)
            .ok_or_else(|| CoreError::UnknownPeer(sender.to_string()))?;
        let tx = Transaction {
            sender,
            nonce: peer.take_nonce(),
            payload: TxPayload::CallContract {
                contract,
                method: call.method().into(),
                args: call.encoded(),
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
            let source = peer.db().table(&binding.source_table)?;
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
            SharingCall::RegisterShare(args),
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
            SharingCall::ChangePermission(args),
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
        let remove = SharingCall::RemoveShare(RemoveShareArgs {
            table_id: table_id.to_string(),
        });
        let tx = self.submit_call(authority, remove, Some(table_id.to_string()))?;
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

    /// Fig. 5 Step 1 plus the pre-flight translatability check: the
    /// pending delta relative to the committed baseline (tracked at write
    /// time), plus every sharing peer's pre-translated `put_delta` result,
    /// kept and reused at apply time.
    fn prepare_update(
        &self,
        updater: AccountId,
        table_id: &str,
        trace: &mut WorkflowTrace,
    ) -> Result<PreparedUpdate> {
        let (updater_name, delta, attrs, new_hash) = {
            let peer = self.node(&updater)?;
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
    /// Receivers apply one after another in account order (see
    /// [`System::apply_on_receivers`]), and their data transfers overlap
    /// in virtual time: each receiver has the data at `committed_ms` plus
    /// its own notify-and-fetch latency, drawn from the WAN model in
    /// receiver order.
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
        // is part of the deterministic contract).
        let p2p = LatencyModel::wan();
        let mut applied_at: Vec<u64> = Vec::with_capacity(others.len());
        for _ in &others {
            let notify = p2p.sample(&mut self.prg);
            let fetch = p2p.sample(&mut self.prg) + p2p.sample(&mut self.prg);
            applied_at.push(committed_ms + notify + fetch);
        }
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

        // Merge in receiver order. EVERY receiver is contacted — so
        // every receiver's transfer is accounted and traced, keeping
        // stats in agreement with actual peer state even on the error
        // path. A receiver whose apply failed self-reverted;
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

    /// The receiver side of the fan-out: each receiver, in account
    /// order, applies the committed delta through
    /// [`PeerNode::apply_remote_delta`] (a receiver with a pending change
    /// of the table applies a correction there, translated by itself). One
    /// result per receiver, in `others`' order; a receiver that is not a
    /// registered peer gets `UnknownPeer`.
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
        others
            .iter()
            .map(|a| {
                // Pre-flight translated a source delta for every receiver
                // it found, so the two lookups miss together.
                match (self.peers.get_mut(a), source_deltas.remove(a)) {
                    (Some(peer), Some(sd)) => {
                        peer.apply_remote_delta(table_id, delta, &sd, *new_hash, version)
                    }
                    _ => Err(CoreError::UnknownPeer(a.to_string())),
                }
            })
            .collect()
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
                SharingCall::AckUpdateAggregate(args),
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
                    SharingCall::AckUpdate(ack.clone()),
                    Some(format!("{table_id}@ack:{version}:d{i}")),
                )?);
            }
        }
        Ok(ack_txs)
    }

    /// The Fig. 5 **Step 6** dependency check after a committed update of
    /// `table_id`: for every participant, walk its other shares bound to
    /// `table_id`'s source ([`PeerNode::siblings_of`]), decide whether each
    /// now differs (it carries a pending change — an O(pending) read) and
    /// push the numbered trace line. Returns the changed ones, as
    /// `(peer, table)`: the cascades for later waves.
    fn step6_sweep(
        &self,
        table_id: &str,
        participants: &[AccountId],
        trace: &mut WorkflowTrace,
    ) -> Result<Found> {
        let mut changed = Vec::new();
        for account in participants {
            let peer = self.node(account)?;
            for other_table in peer.siblings_of(table_id)? {
                let differs = peer.has_pending_change(&other_table)?;
                trace.push(
                    "6",
                    self.clock_ms,
                    &peer.name,
                    format!(
                        "dependency check: `{other_table}` overlaps `{table_id}`; {}",
                        if differs {
                            "content changed → cascade deferred to next wave"
                        } else {
                            "content unchanged → no cascade"
                        }
                    ),
                );
                if differs {
                    changed.push((PeerId::from_account(*account), other_table));
                }
            }
        }
        Ok(changed)
    }

    // ----- the wave's phases -------------------------------------------

    /// Screens a wave's claimed tables, in claim order, for the ones that
    /// cannot share a block: a table is admitted (`true`) unless —
    /// earlier claims winning —
    ///
    /// * the mempool still holds a transaction for the table, or
    /// * an earlier admitted table holds one of its `(peer, source)`
    ///   bindings: the same table, or one some sharing peer binds to the
    ///   same source, so committing one would cascade into (or absorb
    ///   uncommitted state of) the other — the Step-6 relation. Such
    ///   tables serialize across waves.
    pub(crate) fn screen_group<'t>(&self, tables: impl Iterator<Item = &'t str>) -> Vec<bool> {
        let queued = self.mempool.pending_conflict_keys();
        let mut held: BTreeSet<(AccountId, &str)> = BTreeSet::new();
        let mut out = Vec::new();
        for table in tables {
            let bindings = self.bindings_of(table);
            let admitted = !queued.contains(table) && bindings.iter().all(|b| !held.contains(b));
            if admitted {
                held.extend(bindings);
            }
            out.push(admitted);
        }
        out
    }

    /// `(peer, source)` of every sharing peer's binding of `table_id`;
    /// none for a table the contract does not know.
    fn bindings_of(&self, table_id: &str) -> Vec<(AccountId, &str)> {
        let Ok(meta) = self.share_meta(table_id) else {
            return Vec::new();
        };
        let bound = |acct: AccountId| {
            let binding = self.peers.get(&acct)?.binding(table_id).ok()?;
            Some((acct, binding.source_table.as_str()))
        };
        meta.peers.into_iter().filter_map(bound).collect()
    }

    /// Commits the wave's staged members — pending changes of
    /// **distinct**, non-interacting shared tables — in one block and one
    /// scheduled consensus round, then fans each update out to its
    /// receivers and batches all acknowledgement rounds.
    ///
    /// The paper's conflict rule — one update per shared table per block,
    /// enforced by `Mempool::select` and re-checked by chain validation —
    /// becomes the batching criterion instead of a one-at-a-time limiter:
    /// because members touch distinct tables, all their `request_update`
    /// transactions fit in the next block, and every member's ack side is
    /// one aggregated transaction too, so the whole wave's acks share a
    /// block as well — consensus cost per update drops to
    /// `~2 / wave_size` blocks.
    ///
    /// Each phase is a telemetry stage (`wave.phase.<name>_us`; `screen`,
    /// admission and staging, is stamped before): prepare, consensus,
    /// fanout, ack, cascade, flush. A member that fails leaves the wave
    /// in its phase ([`System::fail`]): a denied or untranslatable
    /// member fails alone — its staged writes unwound via their inverse
    /// deltas — while the rest of the block commits. A phase whose block
    /// production dies ends the wave, every member in flight resolved
    /// with its commit point. Beyond the serial Fig. 5 steps:
    ///
    /// * a write-combined member submits the lead's `request_update` —
    ///   declaring only the lead's own attributes — plus one
    ///   `co_request_update` per co-author in the **same block**, each
    ///   permission-checked on that co-author's attributes and
    ///   individually receipted;
    /// * the Fig. 5 Step-6 sweep only *detects* cascades, which settle
    ///   re-enters into the next wave instead of propagating each inline.
    ///
    /// The wave's telemetry closes unless the flush fails; that failure
    /// is the one `Err`.
    pub(crate) fn run_phases(
        &mut self,
        wave: &mut Wave,
        mut timer: StageTimer,
        before: SystemStats,
    ) -> Result<()> {
        self.phase_prepare(wave, &mut timer);
        if self.phase_consensus(wave, &mut timer) {
            self.phase_fanout(wave, &mut timer);
            if self.phase_ack(wave, &mut timer) {
                self.phase_cascade(wave, &mut timer);
                self.phase_flush(wave, &mut timer)?;
            }
        }
        self.record_wave_telemetry(timer, before);
        Ok(())
    }

    /// Phase `prepare`: Step 1 + pre-flight per member, its signatures
    /// reserved, then its `request_update` (Step 2) and its co-requests
    /// queued — distinct conflict keys, so the next block takes them all.
    /// A member that fails here fails alone, before anything of it is
    /// queued.
    fn phase_prepare(&mut self, wave: &mut Wave, timer: &mut StageTimer) {
        let mut unreserved: BTreeMap<AccountId, u64> = BTreeMap::new();
        let mut co_seq = 0;
        let size = wave.members.len();
        for mut member in std::mem::take(&mut wave.members) {
            let mut trace = WorkflowTrace::default();
            let submitted_ms = self.clock_ms;
            let updater = member.updater().account();
            let table_id = member.table_id().to_string();
            let queued = (self.prepare_update(updater, &table_id, &mut trace)).and_then(|p| {
                let declared = member.declaration(&p.attrs)?;
                let meta = self.share_meta(&table_id)?;
                let co_signers = member.co_authors().iter().map(|co| co.peer().account());
                self.reserve_signatures(&mut unreserved, updater, co_signers, &meta.peers)?;
                let args = RequestUpdateArgs {
                    table_id: table_id.clone(),
                    new_hash: p.new_hash,
                    changed_attrs: declared,
                };
                let key = Some(table_id.clone());
                let tx = self.submit_call(updater, SharingCall::RequestUpdate(args), key)?;
                Ok((p, meta.version + 1, tx))
            });
            let (prepared, next_version, tx) = match queued {
                Ok(queued) => queued,
                Err(error) => {
                    self.fail(wave, member, error, false);
                    continue;
                }
            };
            trace.push(
                "2",
                self.clock_ms,
                &prepared.updater_name,
                format!(
                    "sent update request tx {} to sharing contract (group of {size})",
                    tx.short()
                ),
            );
            let new_hash = prepared.new_hash;
            let co_queued = self.submit_co_requests(
                &mut member,
                next_version,
                new_hash,
                &mut co_seq,
                &mut trace,
            );
            if let Err(error) = co_queued {
                // Unreachable in practice (the signatures were reserved
                // above); if it fires, the lead's request is already
                // queued and will commit, so the member must be reported
                // post-commit-point to keep the caller from rolling back
                // state the chain is about to hold.
                let sealed = self.produce_blocks_until_all(&[tx]);
                let committed = sealed.and_then(|()| self.expect_success(&tx)).is_ok();
                self.fail(wave, member, error, committed);
                continue;
            }
            wave.flying.push(Flight {
                member,
                prepared,
                trace,
                submitted_ms,
                tx,
                committed_ms: 0,
                version: 0,
                fan: FanoutSummary::default(),
                ack_txs: Vec::new(),
            });
        }
        timer.stage("phase.prepare");
    }

    /// Each co-author's individually signed co-request for `member`,
    /// riding in the lead's block under a derived conflict key (the data
    /// change itself is still one per table per block — the lead's). Each
    /// co-author keeps its transaction; the error that stopped the rest,
    /// if one did.
    fn submit_co_requests(
        &mut self,
        member: &mut Member,
        version: u64,
        new_hash: Hash256,
        co_seq: &mut usize,
        trace: &mut WorkflowTrace,
    ) -> Result<()> {
        let table_id = member.table_id().to_string();
        for co in member.co_authors_mut() {
            let args = CoRequestUpdateArgs {
                table_id: table_id.clone(),
                version,
                changed_attrs: co.attrs.clone(),
                new_hash,
            };
            let key = format!("{table_id}@co:{co_seq}");
            *co_seq += 1;
            let call = SharingCall::CoRequestUpdate(args);
            let co_tx = self.submit_call(co.peer().account(), call, Some(key))?;
            trace.push(
                "2",
                self.clock_ms,
                &self.peer_name_or_id(co.peer()),
                format!(
                    "co-signed combined update as tx {} (attrs [{}])",
                    co_tx.short(),
                    co.attrs.join(", ")
                ),
            );
            co.tx = Some(co_tx);
        }
        Ok(())
    }

    /// Phase `consensus`: one wait for the whole wave (a single scheduled
    /// round when the block limit admits everything). If block production
    /// dies, some requests may already have committed in earlier blocks:
    /// each member fails with an accurate commit point, so only members
    /// whose update never reached the chain roll back — and `false` ends
    /// the wave.
    fn phase_consensus(&mut self, wave: &mut Wave, timer: &mut StageTimer) -> bool {
        let mut txs: Vec<TxId> = wave.flying.iter().map(|m| m.tx).collect();
        txs.extend(wave.flying.iter().flat_map(|m| {
            let co = m.member.co_authors().iter();
            co.filter_map(|co| co.tx)
        }));
        let sealed = self.produce_blocks_until_all(&txs);
        timer.stage("phase.consensus");
        let Err(e) = sealed else {
            return true;
        };
        for m in std::mem::take(&mut wave.flying) {
            let committed = matches!(
                self.receipts.get(&m.tx),
                Some((_, r)) if r.status.is_success()
            );
            self.fail(wave, m.member, e.clone(), committed);
        }
        false
    }

    /// Phase `fanout`: every member's receipts demultiplexed (Step 3); a
    /// member the contract denied fails before the commit point, a
    /// committed one advances its updater and fans out to its receivers
    /// (Steps 4–5).
    fn phase_fanout(&mut self, wave: &mut Wave, timer: &mut StageTimer) {
        for mut m in std::mem::take(&mut wave.flying) {
            if let Err(e) = self.expect_success(&m.tx) {
                self.fail(wave, m.member, e, false);
                continue;
            }
            match self.fanout_member(&mut m) {
                Ok(()) => wave.flying.push(m),
                Err(e) => self.fail(wave, m.member, e, true),
            }
        }
        timer.stage("phase.fanout");
    }

    /// Steps 3–5 of one member whose request committed.
    fn fanout_member(&mut self, m: &mut Flight) -> Result<()> {
        // Co-author attestations are per-submitter outcomes, not member
        // outcomes: a reverted co-request (a pre-screened denied rider)
        // never sinks the member — settlement gives each co-author its
        // own receipt.
        for co in m.member.co_authors() {
            let Some(co_tx) = co.tx else { continue };
            let verdict = match self.expect_success(&co_tx) {
                Ok(()) => format!("co-author verified for attrs [{}]", co.attrs.join(", ")),
                Err(e) => format!("co-author DENIED: {e}"),
            };
            let name = self.peer_name_or_id(co.peer());
            m.trace.push("3", self.clock_ms, &name, verdict);
        }
        m.committed_ms = self.receipt_time(&m.tx).unwrap_or(self.clock_ms);
        let height =
            (self.receipts.get(&m.tx).map(|(h, _)| *h)).unwrap_or_else(|| self.chain.height());
        let version = self.share_meta(&m.prepared.table_id)?.version;
        m.version = version;
        m.trace.push(
            "3",
            m.committed_ms,
            "contract",
            format!("permission verified; update committed at height {height} (version {version})"),
        );
        let prepared = &mut m.prepared;
        (self.node_mut(&prepared.updater))
            .and_then(|p| p.commit_delta(&prepared.table_id, &prepared.delta, version))?;
        m.fan = self.fanout_apply(prepared, version, m.committed_ms, &mut m.trace)?;
        Ok(())
    }

    /// Phase `ack`: every member's acks submitted, then one wait for all
    /// of them. Each member emits ONE `ack_update_aggregate` under its own
    /// derived conflict key, so the whole wave's ack side fits a single
    /// block — the wave pays ~2 rounds (request + aggregated ack)
    /// regardless of the receiver count. Every member is on chain by now,
    /// so a failure here is post-commit; `false` ends the wave.
    fn phase_ack(&mut self, wave: &mut Wave, timer: &mut StageTimer) -> bool {
        for mut m in std::mem::take(&mut wave.flying) {
            let p = &m.prepared;
            let acks =
                self.submit_ack_round(&p.table_id, m.version, p.new_hash, p.updater, &m.fan.others);
            match acks {
                Ok(acks) => {
                    m.ack_txs = acks;
                    wave.flying.push(m);
                }
                Err(e) => self.fail(wave, m.member, e, true),
            }
        }
        let acks: Vec<TxId> = (wave.flying.iter())
            .flat_map(|m| m.ack_txs.iter().copied())
            .collect();
        let sealed = self.produce_blocks_until_all(&acks);
        timer.stage("phase.ack");
        let Err(e) = sealed else {
            return true;
        };
        for m in std::mem::take(&mut wave.flying) {
            self.fail(wave, m.member, e.clone(), true);
        }
        false
    }

    /// Phase `cascade`: per member, its acks verified, its trace closed
    /// and its Step-6 dependency check run; it lands with its report and
    /// the cascades it found.
    fn phase_cascade(&mut self, wave: &mut Wave, timer: &mut StageTimer) {
        for mut m in std::mem::take(&mut wave.flying) {
            match self.finish_member(&mut m) {
                Ok((report, found)) => self.land(wave, m.member, report, found),
                Err(e) => self.fail(wave, m.member, e, true),
            }
        }
        timer.stage("phase.cascade");
    }

    /// The `cascade` phase of one member: its report and the Step-6
    /// cascades it found.
    fn finish_member(&mut self, m: &mut Flight) -> Result<(UpdateReport, Found)> {
        let mut synced_ms = m.committed_ms;
        for t in &m.ack_txs {
            self.expect_success(t)?;
            synced_ms = synced_ms.max(self.receipt_time(t).unwrap_or(self.clock_ms));
        }
        let receivers = m.fan.others.len();
        if receivers > 0 {
            let unlocked = format!(
                "all {receivers} peer(s) acked version {}; table unlocked",
                m.version
            );
            m.trace.push("m", synced_ms, "contract", unlocked);
        }
        let mut participants = m.fan.others.clone();
        participants.push(m.prepared.updater);
        let found = self.step6_sweep(&m.prepared.table_id, &participants, &mut m.trace)?;
        let mut tx_ids = vec![m.tx];
        tx_ids.extend(m.member.co_authors().iter().filter_map(|co| co.tx));
        tx_ids.extend(&m.ack_txs);
        let report = UpdateReport {
            table_id: std::mem::take(&mut m.prepared.table_id),
            version: m.version,
            submitted_ms: m.submitted_ms,
            committed_ms: m.committed_ms,
            visible_ms: m.fan.visible_ms,
            synced_ms,
            changed_attrs: std::mem::take(&mut m.prepared.attrs),
            rows_moved: m.fan.rows_moved,
            bytes_moved: m.fan.bytes_moved,
            tx_ids,
            cascades: Vec::new(),
            failed_cascades: Vec::new(),
            trace: std::mem::take(&mut m.trace),
        };
        Ok((report, found))
    }

    /// Phase `flush`: the wave's one durable record (a no-op in memory
    /// beyond dropping the peers' mutation logs). If it fails, every
    /// landed member fails past the commit point (its blocks stand).
    fn phase_flush(&mut self, wave: &mut Wave, timer: &mut StageTimer) -> Result<()> {
        if let Err(e) = self.flush_storage() {
            self.fail_landed(wave, &e);
            return Err(e);
        }
        timer.stage("phase.flush");
        Ok(())
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

    /// The dissent path end to end: Steps 1–5 by hand, as a one-member
    /// wave runs them, then an ack round in which one receiver's share arrives
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
        let call = SharingCall::RequestUpdate(args);
        let tx = (sys.submit_call(updater, call, Some("ward".into()))).expect("request");
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
