//! Durable storage for a whole deployment: one log record per flush,
//! snapshots, and crash recovery.
//!
//! The in-memory [`System`] stays the default — nothing here runs until a
//! [`StorageBackend`] is attached (see [`System::attach_storage`] or the
//! facade's `MedLedgerBuilder::durable`); until then a commit boundary
//! only drops the peers' mutation logs, which have no other reader. Once
//! attached, every commit boundary (propagation, group commit, share
//! lifecycle) flushes:
//!
//! 1. everything the flush commits is encoded into one [`FlushRecord`]:
//!    the mutation records every peer database logged since the previous
//!    flush (each a [`LogRecord`] carrying the caller-attested `post_hash`
//!    the live system computed), every block above the logged height,
//!    and the scalar machine state (`FlushMeta`);
//! 2. if a snapshot is due, a full snapshot of every peer database plus
//!    its share bindings is written with this flush's epoch as its id and
//!    the record names it; otherwise the record names the snapshot the
//!    previous one did. One is due on the first flush, on a structural
//!    change (new peer, share created/removed, contract deployed — their
//!    setup mutations bypass the per-record log), and whenever the
//!    peer-record bytes logged since the last snapshot reach that
//!    snapshot's encoded size — so snapshots write at most as many bytes
//!    again as the records they retire, and a restart replays at most one
//!    snapshot's worth of records;
//! 3. the record is appended as **one** CRC frame to the `log` stream and
//!    the backend is synced: one write, one fsync;
//! 4. if it took a snapshot, every snapshot older than it but the one
//!    the previous record named is deleted — retention by reference, so
//!    an orphan (below) never counts toward what is kept.
//!
//! **The frame is the commit point.** It is intact or torn, never half a
//! flush, so there is nothing to roll back: the log layer drops a torn
//! final frame on open and the record before it is the newest commit. A
//! failed backend call poisons the session (later flushes refuse to run):
//! the frame may or may not have landed, and only a restart can tell.
//!
//! Recovery (`System::recover`) reads `log` once and requires dense
//! epochs. The newest record supplies the scalar state. Peers are rebuilt
//! from the snapshot that record **names** plus the peer records of every
//! later epoch, each re-verifying its attested post-state hash and the
//! last its sequence number. A snapshot is only ever chosen because a
//! record names it, never by id order: a crash between a snapshot write
//! and its record leaves an orphan whose id a later, different flush
//! reuses as its epoch. If the named snapshot is unreadable, recovery
//! falls back to the one an older record names and replays forward to
//! the same newest commit (across cadence snapshots; one forced by a
//! structural change carries state the log does not, and falling back
//! across it fails verification, loudly). Then the whole chain is
//! replayed from genesis through a fresh contract runtime, checking each
//! block's `state_root` and the wave order, and every recovered shared
//! table's folded per-shard Merkle subroots are re-verified against the
//! contract state the chain produced ([`System::check_consistency`]): a
//! database that contradicts its ledger fails loudly instead of serving.
//!
//! The log is never cut: blocks are ~90 % of its bytes and recovery
//! needs every one until the chain itself can be checkpointed.
//!
//! What is deliberately **not** persisted: peer signing keys (re-derived
//! from the deployment seed, fast-forwarded past the consumed one-time
//! signatures the flush record counts) and the mempool (transactions not
//! yet in a block are lost on crash, exactly like a real node).

use crate::agreement::PeerBinding;
use crate::error::CoreError;
use crate::peer::PeerNode;
use crate::system::{System, SystemConfig, SystemStats};
use crate::Result;
use medledger_crypto::Hash256;
use medledger_ledger::Block;
use medledger_relational::{Database, LogRecord, Table, TableDelta};
use medledger_storage::codec::{put_bytes, put_varint, take_seq, Reader};
use medledger_storage::{struct_codec, Decode, Encode, StorageBackend};
use medledger_telemetry::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// The one stream a deployment writes: one [`FlushRecord`] per flush.
const LOG: &str = "log";

/// The commit stream of the layout that preceded flush records, probed
/// only to refuse such a store.
const LEGACY_SYS: &str = "sys";

/// Per-peer portion of a flush record.
#[derive(Clone, Debug, PartialEq)]
struct PeerMeta {
    /// Peer display name.
    name: String,
    /// The database's next mutation sequence number at flush time
    /// (checked after replay).
    next_seq: u64,
    /// Next ledger nonce.
    next_nonce: u64,
    /// One-time signing keys consumed so far.
    keys_used: u64,
    /// Last applied contract version per shared table.
    applied_versions: Vec<(String, u64)>,
    /// Per shared table: the inverse delta rewinding the stored copy to
    /// the committed baseline (empty entries omitted) — the peer's undo
    /// rows in delta form. The baseline and the pending delta are both
    /// read off it, on disk as in memory, so no second copy of any
    /// table is ever written.
    baseline_inverses: Vec<(String, TableDelta)>,
}

/// The scalar machine state as of one flush. The newest record's is the
/// recovered state.
#[derive(Clone, Debug, PartialEq)]
struct FlushMeta {
    /// Monotonic flush counter (1-based, dense: record `e` sits at index
    /// `e - 1` of the log).
    epoch: u64,
    /// The snapshot this flush builds on — its own epoch if it took one.
    snapshot_id: u64,
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
    /// Aggregate statistics (flattened; see its `Encode` impl).
    stats: SystemStats,
    /// Per-peer watermarks and derived-state deltas.
    peers: Vec<PeerMeta>,
}

/// One flush as it sits in the `log` stream: everything the flush
/// commits, in one frame (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct FlushRecord {
    /// Per peer, by name: the mutation records its database logged since
    /// the previous flush (peers that logged none are left out).
    pub peer_records: Vec<(String, Vec<LogRecord>)>,
    /// The blocks sealed since the previous flush.
    pub blocks: Vec<Block>,
    meta: FlushMeta,
}

impl Encode for SystemStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.blocks,
            self.txs,
            self.reverted_txs,
            self.consensus_msgs,
            self.consensus_bytes,
            self.p2p_transfers,
            self.p2p_bytes,
            self.data_plane.transfers,
            self.data_plane.rows,
            self.data_plane.bytes,
            self.data_plane.full_table_equiv_bytes,
        ] {
            put_varint(out, v);
        }
    }
}

impl Decode for SystemStats {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        // Struct-literal fields evaluate in written order, matching
        // `encode_into` exactly.
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
}

struct_codec!(PeerMeta {
    name,
    next_seq,
    next_nonce,
    keys_used,
    applied_versions: seq,
    baseline_inverses: seq
});

struct_codec!(FlushMeta {
    epoch,
    snapshot_id,
    clock_ms,
    last_block_ms,
    prg_state,
    pow_state,
    admin_used,
    contract,
    stats,
    peers: seq
});

/// Encodes the data sections of a flush record — what it commits, ahead
/// of the [`FlushMeta`] that closes it — from borrowed state. Returns the
/// bytes the peer records and the blocks encode to: the
/// `storage.wal_bytes` / `storage.chain_bytes` counters, and the former
/// is the replay debt the snapshot cadence weighs.
fn encode_flush_data(
    out: &mut Vec<u8>,
    peer_records: &[(&str, &[LogRecord])],
    blocks: &[Block],
) -> (u64, u64) {
    put_varint(out, peer_records.len() as u64);
    let mut wal_bytes = 0;
    for (name, records) in peer_records {
        put_bytes(out, name.as_bytes());
        put_varint(out, records.len() as u64);
        let start = out.len();
        for rec in *records {
            rec.encode_into(out);
        }
        wal_bytes += (out.len() - start) as u64;
    }
    put_varint(out, blocks.len() as u64);
    let start = out.len();
    for block in blocks {
        block.encode_into(out);
    }
    (wal_bytes, (out.len() - start) as u64)
}

impl Encode for FlushRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let peer_records: Vec<(&str, &[LogRecord])> = self
            .peer_records
            .iter()
            .map(|(name, records)| (name.as_str(), records.as_slice()))
            .collect();
        encode_flush_data(out, &peer_records, &self.blocks);
        self.meta.encode_into(out);
    }
}

impl Decode for FlushRecord {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        let (n, mut peer_records) = r.take_count()?;
        for _ in 0..n {
            peer_records.push((String::decode_from(r)?, take_seq(r)?));
        }
        Ok(FlushRecord {
            peer_records,
            blocks: take_seq(r)?,
            meta: FlushMeta::decode_from(r)?,
        })
    }
}

/// One peer's slice of a snapshot payload.
struct PeerSnapshot {
    name: String,
    owner: String,
    tables: Vec<(String, Table)>,
    base_seq: u64,
    bindings: BTreeMap<String, PeerBinding>,
}

impl Decode for PeerSnapshot {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        let (name, owner) = (String::decode_from(r)?, String::decode_from(r)?);
        let tables = take_seq(r)?;
        // The retired per-table version list: written empty, and skipped
        // so snapshots that still carry one recover.
        take_seq::<(String, u64)>(r)?;
        Ok(PeerSnapshot {
            name,
            owner,
            tables,
            base_seq: r.take_varint()?,
            bindings: Decode::decode_from(r)?,
        })
    }
}

/// A full-deployment snapshot payload: every peer database plus its
/// share bindings, keyed by the snapshot id that names it.
struct Snapshot {
    id: u64,
    peers: Vec<PeerSnapshot>,
}

impl Decode for Snapshot {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        Ok(Snapshot {
            id: r.take_varint()?,
            peers: take_seq(r)?,
        })
    }
}

/// Encodes the current deployment state as a [`Snapshot`] payload,
/// straight from the borrowed tables and shard maps (field for field
/// what the `Decode` impls above read back).
fn build_snapshot(sys: &System, id: u64) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_varint(&mut out, id);
    put_varint(&mut out, sys.names.len() as u64);
    for (name, account) in &sys.names {
        let peer = sys
            .peers
            .get(account)
            .ok_or_else(|| missing_peer(name, "while snapshotting"))?;
        let (owner, tables, next_seq) = peer.db().export_parts();
        let stored = peer.stored_copies();
        name.encode_into(&mut out);
        put_bytes(&mut out, owner.as_bytes());
        put_varint(&mut out, (tables.len() + stored.len()) as u64);
        for (table_name, table) in tables {
            table_name.encode_into(&mut out);
            table.encode_into(&mut out);
        }
        for (table_id, store) in stored {
            table_id.encode_into(&mut out);
            store.encode_into(&mut out);
        }
        put_varint(&mut out, 0); // the retired per-table version list
        put_varint(&mut out, next_seq);
        peer.bindings_map().encode_into(&mut out);
    }
    Ok(out)
}

/// An attached durable-storage session: the backend plus the watermarks
/// of the last committed flush.
pub(crate) struct Persistence {
    backend: Box<dyn StorageBackend>,
    /// Epoch of the last committed flush record (0 before the first).
    epoch: u64,
    /// Id of the snapshot the next record names.
    snapshot_id: u64,
    /// Encoded size of that snapshot.
    snapshot_bytes: u64,
    /// Peer-record bytes logged since it was taken — what a restart
    /// would replay on top of it.
    debt_bytes: u64,
    /// Database sequence number logged so far, per peer name.
    peer_seqs: BTreeMap<String, u64>,
    /// Chain height logged so far.
    height: u64,
    /// Set after a failed backend call: the log may hold a partial frame,
    /// so further flushes refuse to run rather than risk compounding
    /// damage.
    poisoned: bool,
}

impl Persistence {
    fn new(backend: Box<dyn StorageBackend>) -> Self {
        Persistence {
            backend,
            epoch: 0,
            snapshot_id: 0,
            snapshot_bytes: 0,
            debt_bytes: 0,
            peer_seqs: BTreeMap::new(),
            height: 0,
            poisoned: false,
        }
    }

    /// Passes a backend result through, poisoning the session on failure.
    fn checked<T>(&mut self, result: medledger_storage::Result<T>) -> Result<T> {
        result.map_err(|e| {
            self.poisoned = true;
            storage_err(e)
        })
    }
}

fn storage_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::Storage(e.to_string())
}

fn missing_peer(name: &str, when: &str) -> CoreError {
    CoreError::Storage(format!("peer record missing for `{name}` {when}"))
}

/// Runs `f`, recording its wall-clock time under `name` when a recorder
/// is installed.
fn timed<T>(telemetry: &Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    let started = telemetry.is_enabled().then(Instant::now);
    let out = f();
    if let Some(t) = started {
        telemetry.record(name, t.elapsed().as_micros() as u64);
    }
    out
}

/// The [`FlushMeta`] closing the record of flush `epoch`.
fn build_meta(
    sys: &System,
    epoch: u64,
    snapshot_id: u64,
    next_seqs: &BTreeMap<String, u64>,
) -> Result<FlushMeta> {
    let mut peers = Vec::with_capacity(sys.names.len());
    for (name, account) in &sys.names {
        let peer = sys
            .peers
            .get(account)
            .ok_or_else(|| missing_peer(name, "while writing the flush record"))?;
        peers.push(PeerMeta {
            name: name.clone(),
            next_seq: next_seqs[name],
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
    let (prg_counter, prg_pos) = sys.prg.state();
    Ok(FlushMeta {
        epoch,
        snapshot_id,
        clock_ms: sys.clock_ms,
        last_block_ms: sys.last_block_ms,
        prg_state: (prg_counter, prg_pos as u64),
        pow_state: sys.pow.as_ref().map(|m| {
            let (c, b) = m.prg_state();
            (c, b as u64)
        }),
        admin_used: sys.admin.used(),
        contract: sys.contract,
        stats: sys.stats,
        peers,
    })
}

/// One flush: encode every unlogged peer record and block into one
/// record, maybe snapshot, then append and sync. See the module docs for
/// the ordering contract.
fn flush_inner(sys: &mut System, p: &mut Persistence, force_snapshot: bool) -> Result<()> {
    if p.poisoned {
        return Err(CoreError::Storage(
            "storage backend poisoned by an earlier failed flush".into(),
        ));
    }
    let telemetry = sys.recorder().clone();

    // What this flush commits, borrowed: every unlogged peer mutation
    // record and every block above the logged height (genesis, height 0,
    // is reproduced from configuration).
    let mut peer_records = Vec::with_capacity(sys.names.len());
    let mut next_seqs: BTreeMap<String, u64> = BTreeMap::new();
    for (name, account) in &sys.names {
        let peer = sys
            .peers
            .get(account)
            .ok_or_else(|| missing_peer(name, "during flush"))?;
        let from_seq = p
            .peer_seqs
            .get(name)
            .copied()
            .unwrap_or_else(|| peer.db().base_seq());
        if peer.db().base_seq() > from_seq {
            p.poisoned = true;
            return Err(CoreError::Storage(format!(
                "peer {name} database log truncated past the persisted \
                 watermark ({} > {from_seq})",
                peer.db().base_seq()
            )));
        }
        let records = peer.db().log_since(from_seq);
        next_seqs.insert(name.clone(), from_seq + records.len() as u64);
        if !records.is_empty() {
            peer_records.push((name.as_str(), records));
        }
    }
    let height = sys.chain.height();
    let blocks = sys
        .chain
        .blocks()
        .get(p.height as usize + 1..)
        .ok_or_else(|| {
            CoreError::Storage(format!(
                "chain height is {height}, below the logged height {}",
                p.height
            ))
        })?;
    let mut frame = Vec::new();
    let (wal_bytes, chain_bytes) = encode_flush_data(&mut frame, &peer_records, blocks);

    // Snapshot when forced, or when replaying the log from the last
    // snapshot would cost as much as reading a new one.
    let epoch = p.epoch + 1;
    let take_snapshot =
        force_snapshot || p.epoch == 0 || p.debt_bytes + wal_bytes >= p.snapshot_bytes;
    let (snapshot_id, snapshot_bytes) = if take_snapshot {
        let bytes = timed(&telemetry, "storage.snapshot_us", || {
            let payload = build_snapshot(sys, epoch)?;
            let written = p.backend.write_snapshot(epoch, &payload);
            p.checked(written).map(|()| payload.len() as u64)
        })?;
        telemetry.add("storage.snapshots", 1);
        (epoch, bytes)
    } else {
        (p.snapshot_id, p.snapshot_bytes)
    };
    build_meta(sys, epoch, snapshot_id, &next_seqs)?.encode_into(&mut frame);

    // The commit point: one frame, one sync.
    let appended = timed(&telemetry, "storage.append_us", || {
        p.backend.append(LOG, &frame)
    });
    p.checked(appended)?;
    let synced = timed(&telemetry, "storage.sync_us", || p.backend.sync());
    p.checked(synced)?;

    // Committed: advance the watermarks and drain the in-memory logs.
    let previous_snapshot = p.snapshot_id;
    p.epoch = epoch;
    p.snapshot_id = snapshot_id;
    p.snapshot_bytes = snapshot_bytes;
    p.debt_bytes = if take_snapshot {
        0
    } else {
        p.debt_bytes + wal_bytes
    };
    p.height = height;
    for (name, seq) in &next_seqs {
        let peer = sys
            .peers
            .get_mut(&sys.names[name])
            .ok_or_else(|| missing_peer(name, "while draining its log"))?;
        peer.truncate_log(*seq);
    }
    p.peer_seqs = next_seqs;
    // Snapshots are retained by reference: the one this record names and
    // the one the previous record named (recovery's fallback) stay,
    // anything older goes — an orphan of a crashed flush never counts.
    if take_snapshot {
        let retained = (p.backend).retain_snapshots(&[previous_snapshot, snapshot_id]);
        p.checked(retained)?;
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

/// Decodes the whole log, requiring the epochs to be dense from 1.
fn decode_log(raw: Vec<Vec<u8>>) -> Result<Vec<FlushRecord>> {
    let mut records = Vec::with_capacity(raw.len());
    for (index, frame) in raw.into_iter().enumerate() {
        let record = FlushRecord::decode(&frame)
            .map_err(|e| CoreError::Storage(format!("corrupt flush record {index}: {e}")))?;
        if record.meta.epoch != index as u64 + 1 {
            return Err(CoreError::Storage(format!(
                "flush record {index} carries epoch {}, expected {}",
                record.meta.epoch,
                index + 1
            )));
        }
        records.push(record);
    }
    Ok(records)
}

/// Reads snapshot `id` and its encoded size, or says why it cannot be used.
fn read_named_snapshot(
    backend: &mut dyn StorageBackend,
    id: u64,
) -> std::result::Result<(Snapshot, u64), String> {
    let bytes = backend
        .read_snapshot(id)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("snapshot {id} is missing"))?;
    match Snapshot::decode(&bytes) {
        Ok(snapshot) if snapshot.id == id => Ok((snapshot, bytes.len() as u64)),
        Ok(other) => Err(format!("snapshot {id} claims to be {}", other.id)),
        Err(e) => Err(format!("corrupt snapshot {id}: {e}")),
    }
}

/// The snapshot to rebuild the peers from: the one the newest record
/// names, or — while that is unreadable — the one the next older record
/// names. Only ever a named one (see the module docs on orphans).
fn pick_snapshot(
    backend: &mut dyn StorageBackend,
    records: &[FlushRecord],
) -> Result<(Snapshot, u64)> {
    let mut named: Vec<u64> = records.iter().map(|r| r.meta.snapshot_id).collect();
    named.dedup();
    let mut failures = Vec::new();
    for id in named.into_iter().rev() {
        match read_named_snapshot(backend, id) {
            Ok(found) => return Ok(found),
            Err(why) => failures.push(why),
        }
    }
    Err(CoreError::Storage(format!(
        "no snapshot named by a flush record is readable: {}",
        failures.join("; ")
    )))
}

/// Rebuilds every peer of `meta` from `snapshot` plus the peer records
/// of every later epoch (each re-verifying its attested hash), then the
/// derived state from `meta`. Returns the bytes replayed: the recovered
/// session's replay debt.
fn restore_peers(
    sys: &mut System,
    snapshot: Snapshot,
    records: &[FlushRecord],
    meta: &FlushMeta,
) -> Result<u64> {
    let later = records.get(snapshot.id as usize..).ok_or_else(|| {
        CoreError::Storage(format!(
            "snapshot {} is newer than the {} logged flushes",
            snapshot.id,
            records.len()
        ))
    })?;
    let snapshot_id = snapshot.id;
    let mut snap_peers: BTreeMap<String, PeerSnapshot> = snapshot
        .peers
        .into_iter()
        .map(|ps| (ps.name.clone(), ps))
        .collect();
    let mut replayed_bytes = 0;
    for pm in &meta.peers {
        let ps = snap_peers.remove(&pm.name).ok_or_else(|| {
            CoreError::Storage(format!(
                "peer {} in the newest flush record but missing from snapshot {snapshot_id}",
                pm.name
            ))
        })?;
        let mut db = Database::from_parts(ps.owner, ps.tables.into_iter().collect(), ps.base_seq);
        let own_records = later
            .iter()
            .flat_map(|record| &record.peer_records)
            .filter(|(name, _)| *name == pm.name)
            .flat_map(|(_, records)| records);
        for rec in own_records {
            db.replay_record(rec).map_err(|e| {
                CoreError::Storage(format!("log replay failed for peer {}: {e}", pm.name))
            })?;
            replayed_bytes += rec.encoded().len() as u64;
        }
        if db.next_seq() != pm.next_seq {
            return Err(CoreError::Storage(format!(
                "peer {} replayed to seq {}, the newest flush record attests {}",
                pm.name,
                db.next_seq(),
                pm.next_seq
            )));
        }
        let peer = PeerNode::restore_from_parts(
            &pm.name,
            &sys.config.seed,
            sys.config.peer_key_capacity,
            sys.config.shards_per_table,
            db,
            ps.bindings,
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
    Ok(replayed_bytes)
}

/// Replays the chain from genesis through the system's fresh contract
/// runtime, verifying each block's state root commitment as it goes.
/// This rebuilds contract state and the receipt index without trusting
/// anything but the chain itself. Pipelined consensus overlaps round
/// *preparation*, never commit order, so the replay also re-verifies
/// that wave attributions are non-decreasing — a chain whose blocks
/// sealed out of wave order was not produced by this pipeline and must
/// not serve. Returns the newest wave stamped (0 if none): the count the
/// scheduler resumes from.
fn replay_chain(sys: &mut System, blocks: impl Iterator<Item = Block>) -> Result<u64> {
    let mut last_wave: Option<u64> = None;
    for block in blocks {
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
    Ok(last_wave.unwrap_or(0))
}

impl System {
    /// Attaches a durable-storage backend and writes an initial full
    /// flush (forced snapshot), so the stored state is complete from this
    /// point on.
    pub fn attach_storage(&mut self, backend: Box<dyn StorageBackend>) -> Result<()> {
        if self.persist.is_some() {
            return Err(CoreError::Storage("storage already attached".into()));
        }
        self.persist = Some(Persistence::new(backend));
        self.flush_structural()
    }

    /// True when a storage backend is attached.
    pub fn storage_attached(&self) -> bool {
        self.persist.is_some()
    }

    /// Flushes all unpersisted state to the attached backend. Commit
    /// boundaries call this automatically; callers staging writes outside
    /// those paths can force one. With no backend attached the peers'
    /// mutation logs have no reader, so they are dropped instead of kept
    /// for the life of the node.
    pub fn flush_storage(&mut self) -> Result<()> {
        self.flush_with(false)
    }

    /// A flush that also forces a snapshot — used after structural
    /// changes (peer added, share created/removed, contract deployed)
    /// whose setup mutations (table creation, view materialization)
    /// bypass the per-record log.
    pub(crate) fn flush_structural(&mut self) -> Result<()> {
        self.flush_with(true)
    }

    fn flush_with(&mut self, force_snapshot: bool) -> Result<()> {
        let Some(mut p) = self.persist.take() else {
            // A backend attached later starts from a forced snapshot and
            // logs from each database's `base_seq`, wherever that is.
            for peer in self.peers.values_mut() {
                peer.truncate_log(peer.db().next_seq());
            }
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
        let raw = backend.read_from(LOG, 0).map_err(storage_err)?;
        let records = decode_log(raw)?;
        let Some(newest) = records.last() else {
            if !backend
                .read_from(LEGACY_SYS, 0)
                .map_err(storage_err)?
                .is_empty()
            {
                return Err(CoreError::Storage(
                    "store written by the pre-PR-21 layout (a `sys` stream and no `log`): \
                     refusing to bootstrap over it"
                        .into(),
                ));
            }
            return Ok(Recovery::Fresh(backend));
        };
        let meta = newest.meta.clone();
        let (snapshot, snapshot_bytes) = pick_snapshot(backend.as_mut(), &records)?;
        let snapshot_id = snapshot.id;

        let mut sys = System::new(config);
        let debt_bytes = restore_peers(&mut sys, snapshot, &records, &meta)?;
        sys.sched.wave = replay_chain(
            &mut sys,
            records.into_iter().flat_map(|record| record.blocks),
        )?;

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

        // Re-attach where the newest record left off. Later records name
        // the snapshot actually used, which is the named one unless
        // recovery had to fall back.
        sys.persist = Some(Persistence {
            epoch: meta.epoch,
            snapshot_id,
            snapshot_bytes,
            debt_bytes,
            peer_seqs: meta
                .peers
                .iter()
                .map(|pm| (pm.name.clone(), pm.next_seq))
                .collect(),
            height: sys.chain.height(),
            ..Persistence::new(backend)
        });
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
    use super::{build_snapshot, Snapshot};
    use crate::facade::MedLedger;
    use crate::scenario::{self, SHARE_PD};
    use crate::system::{ConsensusKind, SystemConfig};
    use medledger_relational::{Table, Value};
    use medledger_storage::codec::{put_bytes, put_varint};
    use medledger_storage::{Decode, Encode, SharedBackend};

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

    #[test]
    fn snapshot_with_a_retired_version_list_still_decodes() {
        let scn = scenario::build(config("persist-versions")).expect("fig1");
        let sys = scn.ledger.system();
        // The layout every earlier `MLSNAP03` snapshot has: a per-table
        // mutation count between the tables and `base_seq`.
        let mut old = Vec::new();
        put_varint(&mut old, 7);
        put_varint(&mut old, sys.names.len() as u64);
        for (name, account) in &sys.names {
            let peer = &sys.peers[account];
            let (owner, tables, next_seq) = peer.db().export_parts();
            name.encode_into(&mut old);
            put_bytes(&mut old, owner.as_bytes());
            put_varint(&mut old, (tables.len() + peer.stored_copies().len()) as u64);
            for (table_name, table) in tables {
                table_name.encode_into(&mut old);
                table.encode_into(&mut old);
            }
            for (table_id, store) in peer.stored_copies() {
                table_id.encode_into(&mut old);
                store.encode_into(&mut old);
            }
            let names: Vec<_> = (tables.keys())
                .chain(peer.stored_copies().map(|(id, _)| id))
                .collect();
            put_varint(&mut old, names.len() as u64);
            for (version, table_name) in names.into_iter().enumerate() {
                table_name.encode_into(&mut old);
                put_varint(&mut old, version as u64 + 3);
            }
            put_varint(&mut old, next_seq);
            peer.bindings_map().encode_into(&mut old);
        }

        let current = build_snapshot(sys, 7).expect("snapshot");
        assert!(current.len() < old.len(), "the version lists are gone");
        for payload in [old, current] {
            let snapshot = Snapshot::decode(&payload).expect("decodes");
            assert_eq!(snapshot.id, 7);
            assert_eq!(snapshot.peers.len(), sys.names.len());
            for ps in snapshot.peers {
                let peer = &sys.peers[&sys.names[&ps.name]];
                let sources = peer.db().export_parts().1.clone().into_iter();
                let stored =
                    (peer.stored_copies()).map(|(id, store)| (id.clone(), store.assemble()));
                let tables: Vec<(String, Table)> = sources.chain(stored).collect();
                assert_eq!(ps.owner, peer.db().owner);
                assert_eq!(ps.tables, tables, "{}", ps.name);
                assert_eq!(ps.base_seq, peer.db().next_seq(), "{}", ps.name);
                assert_eq!(&ps.bindings, peer.bindings_map(), "{}", ps.name);
            }
        }
    }

    #[test]
    fn in_memory_node_drops_its_write_log_and_can_still_turn_durable() {
        fn set_dosage(ledger: &mut MedLedger, value: &str) {
            let doctor = ledger.peer_id("Doctor").expect("doctor");
            let mut session = ledger.session(doctor);
            let batch = session.begin(SHARE_PD);
            let batch = batch.set(vec![Value::Int(188)], "dosage", Value::text(value));
            batch.commit().expect("commit");
        }
        let cfg = config("persist-late-attach");
        let mut scn = scenario::build(cfg.clone()).expect("in-memory fig1");
        assert!(!scn.ledger.is_durable());
        scenario::run_fig5(&mut scn).expect("fig5");
        set_dosage(&mut scn.ledger, "two tablets");
        // Every store mutation was logged — and, with no storage to read
        // the log, dropped at the commit boundary.
        for peer in scn.ledger.system().peers.values() {
            assert!(peer.db().next_seq() > 0, "{} logged nothing", peer.name);
            assert!(peer.db().log().is_empty(), "{} kept its log", peer.name);
        }

        // Attaching storage afterwards snapshots the whole state, so
        // recovery needs none of the dropped records.
        let backend = SharedBackend::new();
        let system = scn.ledger.system_mut();
        system
            .attach_storage(Box::new(backend.clone()))
            .expect("attach");
        set_dosage(&mut scn.ledger, "three tablets");
        let fingerprints: Vec<_> = (scn.ledger.system().peers.values())
            .map(|p| (p.name.clone(), p.fingerprint(), p.db().next_seq()))
            .collect();
        let height = scn.ledger.chain().height();
        scn.ledger.close().expect("close");

        let recovered = MedLedger::builder()
            .config(cfg)
            .storage_backend(Box::new(backend))
            .build()
            .expect("recover");
        let recovered_fps: Vec<_> = (recovered.system().peers.values())
            .map(|p| (p.name.clone(), p.fingerprint(), p.db().next_seq()))
            .collect();
        assert_eq!(recovered_fps, fingerprints);
        assert_eq!(recovered.chain().height(), height);
        recovered.check_consistency().expect("consistent");
    }
}
