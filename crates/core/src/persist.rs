//! Durable storage for a whole deployment: WAL flushes, snapshots, and
//! crash recovery.
//!
//! The in-memory [`System`] stays the default — nothing here runs until a
//! [`StorageBackend`] is attached (see [`System::attach_storage`] or the
//! facade's `MedLedgerBuilder::durable`). Once attached, every commit
//! boundary (propagation, group commit, share lifecycle) flushes through
//! the backend:
//!
//! * each peer database's mutation log drains into an append-only record
//!   stream (`peer/<name>`), one CRC-framed [`LogRecord`] per record,
//!   carrying the caller-attested `post_hash` the live system computed;
//! * every block above the persisted height appends to the `chain`
//!   stream (the chain stream is never compacted — recovery replays it
//!   from genesis to rebuild contract state and receipts);
//! * periodically — every [`StorageOptions::snapshot_every`] flushes, or
//!   forced on structural changes (new peer, share created/removed,
//!   contract deployed) — a full snapshot of every peer database plus its
//!   share bindings is written, and peer streams compact below it;
//! * finally one `SysMeta` commit record appends to the `sys` stream.
//!   **The `sys` record is the commit point**: stream appends that never
//!   got their `sys` record are rolled back (in-process before the next
//!   flush, at recovery by truncating to the recorded marks).
//!
//! Recovery (`System::recover`) picks the newest `SysMeta` whose
//! referenced snapshot and stream marks are intact, truncates every
//! stream to the recorded marks (discarding a torn uncommitted flush
//! suffix), rebuilds each peer from the snapshot plus WAL replay — every
//! replayed record re-verifies its attested post-state hash — and then
//! replays the entire chain through a fresh contract runtime, checking
//! each block's `state_root` as it goes. Before the system is returned,
//! the folded per-shard Merkle subroots of every recovered shared table
//! are re-verified against the contract state the recovered chain
//! produced ([`System::check_consistency`]); any disagreement fails
//! loudly instead of serving a database that contradicts its ledger.
//!
//! What is deliberately **not** persisted: peer signing keys (re-derived
//! from the deployment seed, fast-forwarded past the consumed one-time
//! signatures recorded in `SysMeta`) and the mempool (transactions not
//! yet in a block are lost on crash, exactly like a real node).

use crate::error::CoreError;
use crate::peer::PeerNode;
use crate::system::{System, SystemConfig, SystemStats};
use crate::Result;
use medledger_crypto::Hash256;
use medledger_ledger::Block;
use medledger_relational::{Database, LogRecord, Table, TableDelta};
use medledger_storage::codec::{put_bytes, put_seq, put_varint, take_seq, Reader};
use medledger_storage::{Decode, Encode, StorageBackend, StorageError};
use std::collections::BTreeMap;

/// Durable-storage tuning knobs (carried in
/// [`crate::system::SystemConfig::storage`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageOptions {
    /// Full snapshots are written every this many flushes (structural
    /// changes force one regardless). Lower = faster recovery, more
    /// snapshot I/O.
    pub snapshot_every: u64,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions { snapshot_every: 8 }
    }
}

/// The stream a peer's WAL records land in.
fn peer_stream(name: &str) -> String {
    format!("peer/{name}")
}

/// Per-peer portion of a flush commit record.
#[derive(Clone, Debug, PartialEq)]
struct PeerMeta {
    /// Peer display name (stream `peer/<name>`).
    name: String,
    /// Records of the peer stream covered by this flush.
    stream_mark: u64,
    /// Stream index WAL replay starts from (stream length when the
    /// referenced snapshot was taken).
    snapshot_mark: u64,
    /// The database's next mutation sequence number at flush time
    /// (sanity-checked after replay).
    next_seq: u64,
    /// Next ledger nonce.
    next_nonce: u64,
    /// One-time signing keys consumed so far.
    keys_used: u64,
    /// Last applied contract version per shared table.
    applied_versions: Vec<(String, u64)>,
    /// Per shared table: the inverse delta rewinding the stored copy to
    /// the committed baseline (empty entries omitted). Baselines and
    /// pending rows are *derived* state — this is all recovery needs to
    /// reconstruct both without persisting a second copy of any table.
    baseline_inverses: Vec<(String, TableDelta)>,
}

/// One flush commit record, appended to the `sys` stream. The newest
/// intact `SysMeta` defines the recovered state; everything beyond its
/// marks is an uncommitted flush suffix and gets truncated.
#[derive(Clone, Debug, PartialEq)]
struct SysMeta {
    /// Monotonic flush counter (1-based).
    epoch: u64,
    /// Snapshot id this flush builds on.
    snapshot_id: u64,
    /// Blocks of the `chain` stream covered (chain height at flush).
    chain_mark: u64,
    /// Virtual clock at flush.
    clock_ms: u64,
    /// Last block slot time.
    last_block_ms: u64,
    /// System PRG state `(counter, buffer position)`.
    prg_state: (u64, u64),
    /// PoW interval-model PRG state, when PoW consensus is configured.
    pow_state: Option<(u64, u64)>,
    /// One-time keys the admin keypair has consumed.
    admin_used: u64,
    /// The deployed sharing contract id, if any.
    contract: Option<Hash256>,
    /// Aggregate statistics (flattened; see `encode_stats`).
    stats: SystemStats,
    /// Per-peer watermarks and derived-state deltas.
    peers: Vec<PeerMeta>,
}

fn put_string_u64_pairs(out: &mut Vec<u8>, pairs: &[(String, u64)]) {
    put_varint(out, pairs.len() as u64);
    for (s, v) in pairs {
        s.encode_into(out);
        put_varint(out, *v);
    }
}

fn take_string_u64_pairs(r: &mut Reader<'_>) -> medledger_storage::Result<Vec<(String, u64)>> {
    let n = r.take_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s = String::decode_from(r)?;
        let v = r.take_varint()?;
        out.push((s, v));
    }
    Ok(out)
}

fn put_string_delta_pairs(out: &mut Vec<u8>, pairs: &[(String, TableDelta)]) {
    put_varint(out, pairs.len() as u64);
    for (s, d) in pairs {
        s.encode_into(out);
        d.encode_into(out);
    }
}

fn take_string_delta_pairs(
    r: &mut Reader<'_>,
) -> medledger_storage::Result<Vec<(String, TableDelta)>> {
    let n = r.take_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s = String::decode_from(r)?;
        let d = TableDelta::decode_from(r)?;
        out.push((s, d));
    }
    Ok(out)
}

fn encode_stats(out: &mut Vec<u8>, stats: &SystemStats) {
    for v in [
        stats.blocks,
        stats.txs,
        stats.reverted_txs,
        stats.consensus_msgs,
        stats.consensus_bytes,
        stats.p2p_transfers,
        stats.p2p_bytes,
        stats.data_plane.transfers,
        stats.data_plane.rows,
        stats.data_plane.bytes,
        stats.data_plane.full_table_equiv_bytes,
    ] {
        put_varint(out, v);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> medledger_storage::Result<SystemStats> {
    // Struct-literal fields evaluate in written order, matching
    // `encode_stats` exactly.
    Ok(SystemStats {
        blocks: r.take_varint()?,
        txs: r.take_varint()?,
        reverted_txs: r.take_varint()?,
        consensus_msgs: r.take_varint()?,
        consensus_bytes: r.take_varint()?,
        p2p_transfers: r.take_varint()?,
        p2p_bytes: r.take_varint()?,
        data_plane: medledger_network::DataPlaneStats {
            transfers: r.take_varint()?,
            rows: r.take_varint()?,
            bytes: r.take_varint()?,
            full_table_equiv_bytes: r.take_varint()?,
        },
    })
}

impl Encode for PeerMeta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        put_varint(out, self.stream_mark);
        put_varint(out, self.snapshot_mark);
        put_varint(out, self.next_seq);
        put_varint(out, self.next_nonce);
        put_varint(out, self.keys_used);
        put_string_u64_pairs(out, &self.applied_versions);
        put_string_delta_pairs(out, &self.baseline_inverses);
    }
}

impl Decode for PeerMeta {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        Ok(PeerMeta {
            name: String::decode_from(r)?,
            stream_mark: r.take_varint()?,
            snapshot_mark: r.take_varint()?,
            next_seq: r.take_varint()?,
            next_nonce: r.take_varint()?,
            keys_used: r.take_varint()?,
            applied_versions: take_string_u64_pairs(r)?,
            baseline_inverses: take_string_delta_pairs(r)?,
        })
    }
}

impl Encode for SysMeta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.epoch);
        put_varint(out, self.snapshot_id);
        put_varint(out, self.chain_mark);
        put_varint(out, self.clock_ms);
        put_varint(out, self.last_block_ms);
        put_varint(out, self.prg_state.0);
        put_varint(out, self.prg_state.1);
        match self.pow_state {
            None => out.push(0),
            Some((a, b)) => {
                out.push(1);
                put_varint(out, a);
                put_varint(out, b);
            }
        }
        put_varint(out, self.admin_used);
        self.contract.encode_into(out);
        encode_stats(out, &self.stats);
        put_seq(out, &self.peers);
    }
}

impl Decode for SysMeta {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        let epoch = r.take_varint()?;
        let snapshot_id = r.take_varint()?;
        let chain_mark = r.take_varint()?;
        let clock_ms = r.take_varint()?;
        let last_block_ms = r.take_varint()?;
        let prg_state = (r.take_varint()?, r.take_varint()?);
        let pow_state = match r.take_u8()? {
            0 => None,
            1 => Some((r.take_varint()?, r.take_varint()?)),
            t => {
                return Err(StorageError::Codec(format!("invalid pow-state tag {t}")));
            }
        };
        Ok(SysMeta {
            epoch,
            snapshot_id,
            chain_mark,
            clock_ms,
            last_block_ms,
            prg_state,
            pow_state,
            admin_used: r.take_varint()?,
            contract: Option::<Hash256>::decode_from(r)?,
            stats: decode_stats(r)?,
            peers: take_seq(r)?,
        })
    }
}

/// One peer's slice of a snapshot payload.
struct PeerSnapshot {
    name: String,
    owner: String,
    tables: Vec<(String, Table)>,
    versions: Vec<(String, u64)>,
    base_seq: u64,
    bindings_json: Vec<u8>,
}

impl Encode for PeerSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.owner.encode_into(out);
        put_varint(out, self.tables.len() as u64);
        for (name, table) in &self.tables {
            name.encode_into(out);
            table.encode_into(out);
        }
        put_string_u64_pairs(out, &self.versions);
        put_varint(out, self.base_seq);
        put_bytes(out, &self.bindings_json);
    }
}

impl Decode for PeerSnapshot {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        let name = String::decode_from(r)?;
        let owner = String::decode_from(r)?;
        let n = r.take_len()?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let tname = String::decode_from(r)?;
            let table = Table::decode_from(r)?;
            tables.push((tname, table));
        }
        Ok(PeerSnapshot {
            name,
            owner,
            tables,
            versions: take_string_u64_pairs(r)?,
            base_seq: r.take_varint()?,
            bindings_json: r.take_bytes()?,
        })
    }
}

/// A full-deployment snapshot payload: every peer database plus its
/// share bindings, keyed by the snapshot id that names it.
struct Snapshot {
    id: u64,
    peers: Vec<PeerSnapshot>,
}

impl Encode for Snapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.id);
        put_seq(out, &self.peers);
    }
}

impl Decode for Snapshot {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        Ok(Snapshot {
            id: r.take_varint()?,
            peers: take_seq(r)?,
        })
    }
}

/// An attached durable-storage session: the backend plus the commit
/// watermarks of the last successful flush.
pub(crate) struct Persistence {
    backend: Box<dyn StorageBackend>,
    snapshot_every: u64,
    /// Flushes since the current snapshot was written.
    flushes_since_snapshot: u64,
    /// Flush counter (== epoch of the last committed `SysMeta`; 0 before
    /// the first flush).
    epoch: u64,
    /// Id of the snapshot the next `SysMeta` references.
    snapshot_id: u64,
    /// Committed record count per peer stream, keyed by peer name.
    peer_marks: BTreeMap<String, u64>,
    /// Database sequence number covered by each peer stream.
    peer_seqs: BTreeMap<String, u64>,
    /// Stream position replay starts from, per peer (stream length when
    /// the current snapshot was taken).
    snapshot_marks: BTreeMap<String, u64>,
    /// Blocks of the chain stream committed.
    chain_mark: u64,
    /// Set after a failed flush: the backend may hold a partial frame, so
    /// further flushes refuse to run rather than risk compounding damage.
    poisoned: bool,
}

impl Persistence {
    fn new(backend: Box<dyn StorageBackend>, options: StorageOptions) -> Self {
        Persistence {
            backend,
            snapshot_every: options.snapshot_every.max(1),
            flushes_since_snapshot: 0,
            epoch: 0,
            snapshot_id: 0,
            peer_marks: BTreeMap::new(),
            peer_seqs: BTreeMap::new(),
            snapshot_marks: BTreeMap::new(),
            chain_mark: 0,
            poisoned: false,
        }
    }
}

fn storage_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::Storage(e.to_string())
}

/// Encodes the current deployment state as a snapshot payload.
fn build_snapshot(sys: &System, id: u64) -> Result<Vec<u8>> {
    let mut peers = Vec::with_capacity(sys.names.len());
    for (name, account) in &sys.names {
        let peer = sys.peers.get(account).ok_or_else(|| {
            CoreError::Storage(format!(
                "peer record missing for `{name}` while snapshotting"
            ))
        })?;
        let (owner, _, versions, next_seq) = peer.db.export_parts();
        let bindings_json = serde_json::to_vec(peer.bindings_map()).map_err(storage_err)?;
        peers.push(PeerSnapshot {
            name: name.clone(),
            owner: owner.to_string(),
            tables: peer.snapshot_tables().into_iter().collect(),
            versions: versions.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            base_seq: next_seq,
            bindings_json,
        });
    }
    Ok(Snapshot { id, peers }.encoded())
}

/// One flush: drain peer logs and new blocks into the backend, maybe
/// snapshot, then commit with a `SysMeta` record. See the module docs for
/// the ordering contract.
fn flush_inner(sys: &mut System, p: &mut Persistence, force_snapshot: bool) -> Result<()> {
    if p.poisoned {
        return Err(CoreError::Storage(
            "storage backend poisoned by an earlier failed flush".into(),
        ));
    }
    let telemetry = sys.recorder().clone();
    let mut wal_bytes: u64 = 0;
    let mut chain_bytes: u64 = 0;
    // Phase 0 — roll back any uncommitted suffix a previously failed
    // flush left behind (appends without their commit record).
    for (name, mark) in p.peer_marks.clone() {
        let stream = peer_stream(&name);
        if p.backend.stream_len(&stream).map_err(storage_err)? > mark {
            p.backend.truncate_to(&stream, mark).map_err(storage_err)?;
        }
    }
    if p.backend.stream_len("chain").map_err(storage_err)? > p.chain_mark {
        p.backend
            .truncate_to("chain", p.chain_mark)
            .map_err(storage_err)?;
    }

    // Phase 1 — append every unpersisted peer mutation record.
    let mut new_marks: BTreeMap<String, u64> = BTreeMap::new();
    let mut new_seqs: BTreeMap<String, u64> = BTreeMap::new();
    for (name, account) in &sys.names {
        let peer = sys.peers.get(account).ok_or_else(|| {
            CoreError::Storage(format!("peer record missing for `{name}` during flush"))
        })?;
        let stream = peer_stream(name);
        let from_seq = p
            .peer_seqs
            .get(name)
            .copied()
            .unwrap_or_else(|| peer.db.base_seq());
        if peer.db.base_seq() > from_seq {
            p.poisoned = true;
            return Err(CoreError::Storage(format!(
                "peer {name} database log truncated past the persisted \
                 watermark ({} > {from_seq})",
                peer.db.base_seq()
            )));
        }
        let mut mark = p.peer_marks.get(name).copied().unwrap_or(0);
        let records = peer.db.log_since(from_seq);
        for rec in records {
            let frame = rec.encoded();
            wal_bytes += frame.len() as u64;
            if let Err(e) = p.backend.append(&stream, &frame) {
                p.poisoned = true;
                return Err(storage_err(e));
            }
            mark += 1;
        }
        new_marks.insert(name.clone(), mark);
        new_seqs.insert(name.clone(), from_seq + records.len() as u64);
    }

    // Phase 2 — append every block above the persisted height. The chain
    // stream holds blocks 1.. (genesis is reproduced from configuration).
    let height = sys.chain.height();
    for h in (p.chain_mark + 1)..=height {
        let block = sys.chain.block_at(h).ok_or_else(|| {
            CoreError::Storage(format!("chain height is {height} but block {h} is missing"))
        })?;
        let frame = block.encoded();
        chain_bytes += frame.len() as u64;
        if let Err(e) = p.backend.append("chain", &frame) {
            p.poisoned = true;
            return Err(storage_err(e));
        }
    }

    // Phase 3 — snapshot on cadence or structural change.
    let epoch = p.epoch + 1;
    let first_flush = p.epoch == 0;
    let take_snapshot =
        force_snapshot || first_flush || p.flushes_since_snapshot + 1 >= p.snapshot_every;
    let mut snapshot_id = p.snapshot_id;
    let mut snapshot_marks = p.snapshot_marks.clone();
    if take_snapshot {
        let started = telemetry.is_enabled().then(std::time::Instant::now);
        let payload = build_snapshot(sys, epoch)?;
        if let Err(e) = p.backend.write_snapshot(epoch, &payload) {
            p.poisoned = true;
            return Err(storage_err(e));
        }
        if let Some(t) = started {
            telemetry.record("storage.snapshot_us", t.elapsed().as_micros() as u64);
        }
        telemetry.add("storage.snapshots", 1);
        snapshot_id = epoch;
        snapshot_marks = new_marks.clone();
    }

    // Phase 4 — the commit record.
    let meta = SysMeta {
        epoch,
        snapshot_id,
        chain_mark: height,
        clock_ms: sys.clock_ms,
        last_block_ms: sys.last_block_ms,
        prg_state: {
            let (c, b) = sys.prg.state();
            (c, b as u64)
        },
        pow_state: sys.pow.as_ref().map(|m| {
            let (c, b) = m.prg_state();
            (c, b as u64)
        }),
        admin_used: sys.admin.used(),
        contract: sys.contract,
        stats: sys.stats,
        peers: {
            let mut metas = Vec::with_capacity(sys.names.len());
            for (name, account) in &sys.names {
                let peer = sys.peers.get(account).ok_or_else(|| {
                    CoreError::Storage(format!(
                        "peer record missing for `{name}` while writing sys meta"
                    ))
                })?;
                metas.push(PeerMeta {
                    name: name.clone(),
                    stream_mark: new_marks[name],
                    snapshot_mark: snapshot_marks.get(name).copied().unwrap_or(0),
                    next_seq: new_seqs[name],
                    next_nonce: peer.next_nonce,
                    keys_used: peer.keys.used(),
                    applied_versions: peer
                        .applied_versions
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                    baseline_inverses: peer.baseline_inverses(),
                });
            }
            metas
        },
    };
    if let Err(e) = p.backend.append("sys", &meta.encoded()) {
        p.poisoned = true;
        return Err(storage_err(e));
    }
    if let Err(e) = p.backend.sync() {
        p.poisoned = true;
        return Err(storage_err(e));
    }

    // Phase 5 — committed: advance watermarks, drain in-memory logs,
    // compact peer streams below the snapshot horizon.
    p.epoch = epoch;
    p.snapshot_id = snapshot_id;
    p.flushes_since_snapshot = if take_snapshot {
        0
    } else {
        p.flushes_since_snapshot + 1
    };
    p.chain_mark = height;
    p.peer_marks = new_marks;
    p.snapshot_marks = snapshot_marks;
    for (name, seq) in &new_seqs {
        let account = sys.names[name];
        let peer = sys.peers.get_mut(&account).ok_or_else(|| {
            CoreError::Storage(format!("peer record missing for `{name}` while compacting"))
        })?;
        peer.db.truncate_log(*seq);
        p.peer_seqs.insert(name.clone(), *seq);
        if take_snapshot {
            // Whole segments below the snapshot horizon can go.
            p.backend
                .compact(&peer_stream(name), p.snapshot_marks[name])
                .map_err(storage_err)?;
        }
    }
    if telemetry.is_enabled() {
        telemetry.add("storage.flushes", 1);
        telemetry.add("storage.wal_bytes", wal_bytes);
        telemetry.add("storage.chain_bytes", chain_bytes);
        telemetry
            .gauge("storage.segments")
            .set(p.backend.segment_count());
    }
    Ok(())
}

impl System {
    /// Attaches a durable-storage backend and writes an initial full
    /// flush (forced snapshot), so the stored state is complete from this
    /// point on. Tuning comes from [`SystemConfig::storage`].
    pub fn attach_storage(&mut self, backend: Box<dyn StorageBackend>) -> Result<()> {
        if self.persist.is_some() {
            return Err(CoreError::Storage("storage already attached".into()));
        }
        self.persist = Some(Persistence::new(backend, self.config.storage));
        self.flush_structural()
    }

    /// True when a storage backend is attached.
    pub fn storage_attached(&self) -> bool {
        self.persist.is_some()
    }

    /// Flushes all unpersisted state to the attached backend (no-op when
    /// none is attached). Commit boundaries call this automatically;
    /// callers staging writes outside those paths can force one.
    pub fn flush_storage(&mut self) -> Result<()> {
        self.flush_with(false)
    }

    /// A flush that also forces a snapshot — used after structural
    /// changes (peer added, share created/removed, contract deployed)
    /// whose setup mutations (table creation, view materialization)
    /// bypass the per-record WAL.
    pub(crate) fn flush_structural(&mut self) -> Result<()> {
        self.flush_with(true)
    }

    fn flush_with(&mut self, force_snapshot: bool) -> Result<()> {
        let Some(mut p) = self.persist.take() else {
            return Ok(());
        };
        let result = flush_inner(self, &mut p, force_snapshot);
        self.persist = Some(p);
        result
    }

    /// Recovers a deployment from a previously written backend.
    ///
    /// Returns [`Recovery::Fresh`] (handing the backend back) when it
    /// holds no committed flush — the caller should bootstrap normally
    /// and [`System::attach_storage`]. `config` must match the
    /// deployment that wrote the state (same seed, consensus, and shard
    /// layout); signing keys are re-derived from it.
    pub fn recover(config: SystemConfig, mut backend: Box<dyn StorageBackend>) -> Result<Recovery> {
        let sys_records = backend.read_from("sys", 0).map_err(storage_err)?;
        if sys_records.is_empty() {
            return Ok(Recovery::Fresh(backend));
        }
        let mut metas = Vec::with_capacity(sys_records.len());
        for rec in &sys_records {
            metas
                .push(SysMeta::decode(rec).map_err(|e| {
                    CoreError::Storage(format!("corrupt flush commit record: {e}"))
                })?);
        }
        // Newest meta whose snapshot and stream marks are all intact: a
        // crash between data-stream sync and commit-record sync can leave
        // the final record ahead of its data, in which case the previous
        // one defines the recovered state.
        let mut chosen: Option<(usize, SysMeta)> = None;
        'candidates: for (i, meta) in metas.into_iter().enumerate().rev() {
            if backend
                .read_snapshot(meta.snapshot_id)
                .map_err(storage_err)?
                .is_none()
            {
                continue;
            }
            if backend.stream_len("chain").map_err(storage_err)? < meta.chain_mark {
                continue;
            }
            for pm in &meta.peers {
                if backend
                    .stream_len(&peer_stream(&pm.name))
                    .map_err(storage_err)?
                    < pm.stream_mark
                {
                    continue 'candidates;
                }
            }
            chosen = Some((i, meta));
            break;
        }
        let Some((idx, meta)) = chosen else {
            return Err(CoreError::Storage(
                "no flush commit record matches the stored streams and snapshots".into(),
            ));
        };

        // Truncate every stream to the committed marks — anything beyond
        // is an uncommitted flush suffix.
        backend
            .truncate_to("sys", idx as u64 + 1)
            .map_err(storage_err)?;
        backend
            .truncate_to("chain", meta.chain_mark)
            .map_err(storage_err)?;
        for pm in &meta.peers {
            backend
                .truncate_to(&peer_stream(&pm.name), pm.stream_mark)
                .map_err(storage_err)?;
        }

        // Decode the snapshot and rebuild every peer: snapshot tables,
        // then WAL replay (each record re-verifies its attested hash),
        // then the derived state from the commit record.
        let snap_bytes = backend
            .read_snapshot(meta.snapshot_id)
            .map_err(storage_err)?
            .ok_or_else(|| {
                CoreError::Storage(format!(
                    "snapshot {} disappeared between probe and read",
                    meta.snapshot_id
                ))
            })?;
        let snapshot = Snapshot::decode(&snap_bytes)
            .map_err(|e| CoreError::Storage(format!("corrupt snapshot: {e}")))?;
        if snapshot.id != meta.snapshot_id {
            return Err(CoreError::Storage(format!(
                "snapshot payload claims id {}, commit record references {}",
                snapshot.id, meta.snapshot_id
            )));
        }
        let mut sys = System::new(config);
        let snap_peers: BTreeMap<&str, &PeerSnapshot> = snapshot
            .peers
            .iter()
            .map(|ps| (ps.name.as_str(), ps))
            .collect();
        for pm in &meta.peers {
            let ps = snap_peers.get(pm.name.as_str()).ok_or_else(|| {
                CoreError::Storage(format!(
                    "peer {} in commit record but missing from snapshot {}",
                    pm.name, snapshot.id
                ))
            })?;
            let mut db = Database::from_parts(
                ps.owner.clone(),
                ps.tables.iter().cloned().collect(),
                ps.versions.iter().cloned().collect(),
                ps.base_seq,
            );
            let wal = backend
                .read_from(&peer_stream(&pm.name), pm.snapshot_mark)
                .map_err(storage_err)?;
            for raw in &wal {
                let rec = LogRecord::decode(raw).map_err(|e| {
                    CoreError::Storage(format!("corrupt WAL record for peer {}: {e}", pm.name))
                })?;
                if rec.seq < db.next_seq() {
                    continue;
                }
                db.replay_record(&rec).map_err(|e| {
                    CoreError::Storage(format!("WAL replay failed for peer {}: {e}", pm.name))
                })?;
            }
            if db.next_seq() != pm.next_seq {
                return Err(CoreError::Storage(format!(
                    "peer {} replayed to seq {}, commit record attests {}",
                    pm.name,
                    db.next_seq(),
                    pm.next_seq
                )));
            }
            let bindings = serde_json::from_slice(&ps.bindings_json).map_err(|e| {
                CoreError::Storage(format!("corrupt bindings for peer {}: {e}", pm.name))
            })?;
            let peer = PeerNode::restore_from_parts(
                &pm.name,
                &sys.config.seed,
                sys.config.peer_key_capacity,
                sys.config.propagation,
                sys.config.shards_per_table,
                db,
                bindings,
                &pm.baseline_inverses,
                pm.applied_versions.iter().cloned().collect(),
                pm.next_nonce,
                pm.keys_used,
            )?;
            let account = peer.account;
            // Membership only grows; adding every recovered peer before
            // replay keeps historical blocks valid (supersets are safe).
            sys.chain.membership_mut().add_member(account);
            sys.names.insert(pm.name.clone(), account);
            sys.peers.insert(account, peer);
        }

        // Replay the chain from genesis through a fresh contract runtime,
        // verifying each block's state root commitment as we go. This
        // rebuilds contract state and the receipt index without trusting
        // anything but the chain itself. Pipelined consensus overlaps
        // round *preparation*, never commit order, so the replay also
        // re-verifies that wave attributions are non-decreasing — a chain
        // whose blocks sealed out of wave order was not produced by this
        // pipeline and must not serve.
        let raw_blocks = backend.read_from("chain", 0).map_err(storage_err)?;
        let mut last_wave: Option<u64> = None;
        for raw in &raw_blocks {
            let block = Block::decode(raw)
                .map_err(|e| CoreError::Storage(format!("corrupt block record: {e}")))?;
            let height = block.header.height;
            if let Some(wave) = block.header.wave {
                if let Some(prev) = last_wave {
                    if wave < prev {
                        return Err(CoreError::Storage(format!(
                            "block {height} attributed to wave {wave} after a block of wave {prev}"
                        )));
                    }
                }
                last_wave = Some(wave);
            }
            for stx in &block.txs {
                let receipt = sys.runtime.execute(stx, height, block.header.timestamp_ms);
                sys.receipts.insert(stx.id(), (height, receipt));
            }
            if sys.runtime.state_root() != block.header.state_root {
                return Err(CoreError::Storage(format!(
                    "replaying block {height} yields state root {}, header commits to {}",
                    sys.runtime.state_root().short(),
                    block.header.state_root.short()
                )));
            }
            sys.chain.append(block).map_err(|e| {
                CoreError::Storage(format!("recovered chain rejects block {height}: {e}"))
            })?;
        }
        if sys.chain.height() != meta.chain_mark {
            return Err(CoreError::Storage(format!(
                "recovered chain height {} does not match committed mark {}",
                sys.chain.height(),
                meta.chain_mark
            )));
        }

        // Restore the scalar machine state.
        sys.clock_ms = meta.clock_ms;
        sys.last_block_ms = meta.last_block_ms;
        sys.prg
            .restore_state(meta.prg_state.0, meta.prg_state.1 as usize);
        if let (Some(model), Some((c, b))) = (sys.pow.as_mut(), meta.pow_state) {
            model.restore_prg_state(c, b as usize);
        }
        sys.admin.restore_used(meta.admin_used);
        sys.contract = meta.contract;
        sys.stats = meta.stats;

        // Re-verify the folded per-shard Merkle subroots of every
        // recovered shared table against the contract state the recovered
        // chain just produced — a database that disagrees with its ledger
        // must never serve.
        if sys.contract.is_some() {
            sys.check_consistency().map_err(|e| {
                CoreError::Storage(format!("recovered state failed verification: {e}"))
            })?;
        }

        // Re-attach with the recovered watermarks.
        let mut p = Persistence::new(backend, sys.config.storage);
        p.epoch = meta.epoch;
        p.snapshot_id = meta.snapshot_id;
        p.chain_mark = meta.chain_mark;
        p.flushes_since_snapshot = meta.epoch.saturating_sub(meta.snapshot_id);
        for pm in &meta.peers {
            p.peer_marks.insert(pm.name.clone(), pm.stream_mark);
            p.peer_seqs.insert(pm.name.clone(), pm.next_seq);
            p.snapshot_marks.insert(pm.name.clone(), pm.snapshot_mark);
        }
        sys.persist = Some(p);
        Ok(Recovery::Resumed(Box::new(sys)))
    }
}

/// Result of [`System::recover`].
pub enum Recovery {
    /// A committed deployment was found, verified, and resumed.
    Resumed(Box<System>),
    /// The backend holds no committed flush; it is handed back so the
    /// caller can bootstrap and [`System::attach_storage`] it.
    Fresh(Box<dyn StorageBackend>),
}

#[cfg(test)]
mod tests {
    use crate::facade::MedLedger;
    use crate::scenario::{self, SHARE_PD};
    use crate::system::{ConsensusKind, SystemConfig};
    use medledger_relational::Value;
    use medledger_storage::SharedBackend;

    fn config(seed: &str) -> SystemConfig {
        SystemConfig {
            consensus: ConsensusKind::PrivatePbft {
                block_interval_ms: 100,
            },
            seed: seed.into(),
            peer_key_capacity: 64,
            ..Default::default()
        }
    }

    #[test]
    fn durable_ledger_recovers_byte_identical_and_keeps_working() {
        let backend = SharedBackend::new();
        let cfg = config("persist-smoke");
        let ledger = MedLedger::builder()
            .config(cfg.clone())
            .storage_backend(Box::new(backend.clone()))
            .snapshot_every(2)
            .build()
            .expect("boot durable");
        assert!(ledger.is_durable());
        let mut scn = scenario::populate(ledger).expect("populate");
        scenario::run_fig5(&mut scn).expect("fig5");

        let height = scn.ledger.chain().height();
        let audit = scn.ledger.audit(SHARE_PD);
        let stats = scn.ledger.stats();
        let fingerprints: Vec<_> = scn
            .ledger
            .system()
            .peers
            .values()
            .map(|p| (p.name.clone(), p.fingerprint()))
            .collect();
        let pd_hash = scn
            .ledger
            .session(scn.patient)
            .read(SHARE_PD)
            .expect("read")
            .content_hash();
        scn.ledger.close().expect("close");

        let mut recovered = MedLedger::builder()
            .config(cfg)
            .storage_backend(Box::new(backend))
            .build()
            .expect("recover");
        assert_eq!(recovered.chain().height(), height);
        assert_eq!(recovered.audit(SHARE_PD), audit);
        assert_eq!(recovered.stats(), stats);
        let recovered_fps: Vec<_> = recovered
            .system()
            .peers
            .values()
            .map(|p| (p.name.clone(), p.fingerprint()))
            .collect();
        assert_eq!(recovered_fps, fingerprints);
        let patient = recovered.peer_id("Patient").expect("patient");
        let doctor = recovered.peer_id("Doctor").expect("doctor");
        assert_eq!(
            recovered
                .session(patient)
                .read(SHARE_PD)
                .expect("read")
                .content_hash(),
            pd_hash
        );
        recovered.check_consistency().expect("consistent");

        // The recovered deployment is live: a fresh commit goes through
        // (keys, nonces and the contract all picked up where they left).
        recovered
            .session(doctor)
            .begin(SHARE_PD)
            .set(vec![Value::Int(188)], "dosage", Value::text("one tablet"))
            .commit()
            .expect("post-recovery commit");
        recovered.check_consistency().expect("still consistent");
        assert!(recovered.chain().height() > height);
    }
}
