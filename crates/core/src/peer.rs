//! Peer nodes: a stakeholder's client, server app and database manager.

use crate::agreement::PeerBinding;
use crate::error::CoreError;
use crate::Result;
use medledger_bx::{analysis, exec, incremental, GroupIndex, LensSpec};
use medledger_crypto::{Hash256, KeyPair};
use medledger_ledger::AccountId;
use medledger_relational::{
    delta_from_write_op, diff_tables, fingerprint_of, normalize_shard_count, Database, KeyedRows,
    RelationalError, Row, Schema, Shard, ShardMap, ShardPlan, Table, TableDelta, Value, WriteOp,
};
use medledger_telemetry::{GaugeHandle, HeatMapHandle, Recorder};
use std::collections::BTreeMap;

/// Feeds a stored copy's apply counters into the `shard.heat` heat map.
/// No-op when `recorder` is disabled, so un-instrumented runs pay
/// nothing.
fn wire_shard_heat(recorder: &Recorder, table_id: &str, store: &mut ShardMap) {
    if recorder.is_enabled() {
        store.set_telemetry(table_id, recorder.heatmap("shard.heat"));
    }
}

/// How shared-table updates travel between peers: row-level
/// [`TableDelta`]s through the incremental lenses (`get_delta` /
/// `put_delta`) — the only pipeline there is.
///
/// A compile fence, not a choice: the frozen `benchmark/` crate names
/// this type and passes `PropagationMode::Delta` to [`PeerNode::new`]
/// (`benchmark/src/ladder.rs`), and `benchmark/` must stay byte-identical
/// across PRs. The paper-literal whole-table exchange it once selected
/// against lives on the test side, as the Fig. 5 reference model
/// (`tests/common/fig5_model.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Ship row-level deltas and run the lenses incrementally.
    #[default]
    Delta,
}

/// The committed side of a store's uncommitted changes, keyed by primary
/// key: `Some(row)` = the row as last committed, `None` = the committed
/// view does not hold the key. An entry is written the first time an
/// uncommitted change touches its key and never overwritten, so a chain
/// of local writes still rewinds to the committed row.
type Undo = BTreeMap<Vec<Value>, Option<Row>>;

/// One shared table as a peer holds it: the rows exist once, in `store`,
/// split into key-range shards aligned with the content digest (one
/// shard when the deployment does not shard). The last *committed*
/// version is not a second copy but a view ([`Baseline`]): the store,
/// read through `undo` at the keys where it has moved on.
#[derive(Clone, Debug)]
struct SharedTable {
    /// The stored copy: reflects every local write.
    store: ShardMap,
    /// The committed row (or absence) of every key the store has changed
    /// since the last version committed on chain. Empty at rest.
    undo: Undo,
}

impl SharedTable {
    fn baseline(&self) -> Baseline<'_> {
        Baseline {
            store: &self.store,
            undo: &self.undo,
        }
    }

    /// Records what `inverse` — the delta that takes the store back
    /// across an uncommitted change — would restore, at the keys no
    /// earlier uncommitted change has touched.
    fn note_undo(&mut self, inverse: &TableDelta) {
        let schema = self.store.schema();
        let rows = inverse.inserts.iter().map(|row| (schema.key_of(row), row));
        let rows = rows.chain(inverse.updates.iter().map(|(key, row)| (key.clone(), row)));
        for (key, row) in rows {
            self.undo.entry(key).or_insert_with(|| Some(row.clone()));
        }
        for key in &inverse.deletes {
            self.undo.entry(key.clone()).or_insert(None);
        }
    }

    /// `diff_tables(from, to)` over the `undo` keys alone — the only keys
    /// at which the store and the committed view can differ. Entries the
    /// store has since returned to drop out; the result is canonically
    /// ordered because `undo` iterates in key order. O(undo) lookups.
    fn diff_at_undo(&self, from: &impl KeyedRows, to: &impl KeyedRows) -> TableDelta {
        let mut delta = TableDelta::default();
        for key in self.undo.keys() {
            match (from.get(key), to.get(key)) {
                (Some(old), Some(new)) if old != new => {
                    delta.updates.push((key.clone(), new.clone()))
                }
                (None, Some(new)) => delta.inserts.push(new.clone()),
                (Some(_), None) => delta.deletes.push(key.clone()),
                _ => {}
            }
        }
        delta
    }

    /// The uncommitted changes as a delta: committed view → store.
    fn pending(&self) -> TableDelta {
        self.diff_at_undo(&self.baseline(), &self.store)
    }

    /// The delta that rewinds the store to the committed view.
    fn rewind(&self) -> TableDelta {
        self.diff_at_undo(&self.store, &self.baseline())
    }

    /// The committed view materialized: a clone of the store (warm digest
    /// caches included, heat feed not) rewound by `undo`. O(table) — for
    /// the conflict path and for hashing a baseline that has pending
    /// rows over it; everything else reads [`Baseline`].
    fn committed(&self) -> Result<ShardMap> {
        let mut map = self.store.clone();
        map.set_telemetry("", HeatMapHandle::disabled());
        map.apply_delta(&self.rewind())?;
        Ok(map)
    }
}

/// A shared table as of its last committed version, borrowed from the
/// peer: the stored rows, except at keys carrying an uncommitted change,
/// where the committed row kept for undo answers instead. Implements
/// [`KeyedRows`], which is all `diff_tables`, `changed_attrs` and
/// `changed_attrs_from_delta` ask of the side they compare against.
#[derive(Clone, Copy, Debug)]
pub struct Baseline<'a> {
    store: &'a ShardMap,
    undo: &'a Undo,
}

impl KeyedRows for Baseline<'_> {
    fn schema(&self) -> &Schema {
        self.store.schema()
    }
    fn get(&self, key: &[Value]) -> Option<&Row> {
        match self.undo.get(key) {
            Some(committed) => committed.as_ref(),
            None => self.store.get(key),
        }
    }
    fn rows(&self) -> impl Iterator<Item = &Row> {
        let (schema, undo) = (self.store.schema(), self.undo);
        let untouched = move |r: &&Row| undo.is_empty() || !undo.contains_key(&schema.key_of(r));
        (self.store.rows().filter(untouched)).chain(undo.values().flatten())
    }
}

/// A planned remote apply (see [`PeerNode::plan_remote_apply`]): the
/// per-shard split of the view delta plus the pre-derived sibling
/// cascade deltas.
pub(crate) struct RemoteShardPlan {
    plan: ShardPlan,
    touched: Vec<usize>,
    derived: Vec<(String, TableDelta)>,
}

impl RemoteShardPlan {
    /// Number of per-shard jobs this plan produces.
    pub(crate) fn job_count(&self) -> usize {
        self.touched.len()
    }
}

/// One shard job of a planned remote apply: applies the sub-delta under
/// the target chunk layout and pre-warms the shard's subtree root, so
/// the map-level fold after the pool drains only combines cached
/// subroots. Runs on the fan-out worker pool or inline — the result is
/// identical.
pub(crate) fn run_shard_job(
    (shard, delta, chunk_count): (&mut Shard, &TableDelta, usize),
) -> medledger_relational::Result<TableDelta> {
    let inverse = shard.apply(delta, chunk_count)?;
    shard.warm(chunk_count);
    Ok(inverse)
}

fn unknown_share(table_id: &str) -> CoreError {
    CoreError::UnknownShare(table_id.to_string())
}

/// A peer (Patient, Doctor, Researcher, …) in the Fig. 2 architecture.
///
/// The peer's [`Database`] holds its *source* tables (full local data)
/// and the mutation log of everything the peer stores. Every shared
/// table it participates in is materialized once, as a stored copy in a
/// [`ShardMap`] of `shards_per_table` shards; each mutation of the
/// stored copy is logged in `db` under the shared table id with the
/// shard fold as `post_hash`, and the committed rows it displaced are
/// kept as **undo rows** — which make the committed baseline a view
/// ([`PeerNode::baseline`]) and the composed local changes since it
/// ([`PeerNode::pending_delta`], what the next propagation ships) an
/// O(changed rows) read.
///
/// The **database manager** methods are the paper's "BX" boxes: they
/// push row-level deltas through the lenses (`get_delta` / `put_delta`).
#[derive(Clone, Debug)]
pub struct PeerNode {
    /// Human-readable name ("Patient", "Doctor", …).
    pub name: String,
    /// Ledger account (also the public signing key).
    pub account: AccountId,
    /// Signing keys for ledger transactions.
    pub keys: KeyPair,
    /// Local database: the source tables, plus the mutation log and
    /// version counters of every table the peer stores (shared ones
    /// included — their rows live in `shared`).
    pub db: Database,
    /// Shared-table bindings this peer participates in.
    bindings: BTreeMap<String, PeerBinding>,
    /// Per shared table: the stored copy and its undo rows.
    shared: BTreeMap<String, SharedTable>,
    /// Key-range shards per shared table (a power of two).
    shards_per_table: usize,
    /// Cached `bx` group indexes, one per `ProjectDistinct` binding
    /// (keyed by shared table id), advanced with every applied source
    /// delta — the O(group) hot path for group-lens translation.
    /// Each entry is `(source table version at last sync, index)`; the
    /// version guard ([`Database::table_version`]) means an index left
    /// stale by an out-of-band `db` edit is bypassed, never misused.
    group_indexes: BTreeMap<String, (u64, GroupIndex)>,
    /// Last applied version per shared table (mirror of contract state).
    pub applied_versions: BTreeMap<String, u64>,
    /// Next ledger nonce.
    pub next_nonce: u64,
    /// Live-telemetry handle (no-op unless a registry is installed via
    /// [`crate::System::set_recorder`]): feeds the per-(table, shard)
    /// apply heat map from this peer's stored copies.
    telemetry: Recorder,
    /// `peer.shared_rows_resident.<name>`: rows held across every stored
    /// copy, plus the committed rows kept for undo.
    resident_rows: GaugeHandle,
}

impl PeerNode {
    /// Creates a peer with a deterministic key derived from `name` and
    /// `seed`, able to sign `key_capacity` transactions. `shards_per_table`
    /// (normalized to a power of two) splits shared-table state into
    /// key-range shards; `1` is the unsharded baseline. The
    /// [`PropagationMode`] argument carries no information — it is the
    /// compile fence that type's docs describe.
    pub fn new(
        name: impl Into<String>,
        seed: &str,
        key_capacity: usize,
        _mode: PropagationMode,
        shards_per_table: usize,
    ) -> Self {
        let name = name.into();
        let keys = KeyPair::generate(&format!("{seed}-peer-{name}"), key_capacity);
        PeerNode {
            account: keys.public(),
            db: Database::new(name.clone()),
            name,
            keys,
            bindings: BTreeMap::new(),
            shared: BTreeMap::new(),
            shards_per_table: normalize_shard_count(shards_per_table),
            group_indexes: BTreeMap::new(),
            applied_versions: BTreeMap::new(),
            next_nonce: 0,
            telemetry: Recorder::disabled(),
            resident_rows: GaugeHandle::disabled(),
        }
    }

    /// Installs the live-telemetry recorder: wires the heat-map feed of
    /// every stored copy (copies built afterwards wire themselves on
    /// creation) and the resident-rows gauge. A disabled recorder keeps
    /// every apply path telemetry-free.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.telemetry = recorder.clone();
        self.resident_rows = recorder.gauge(&format!("peer.shared_rows_resident.{}", self.name));
        for (table_id, shared) in &mut self.shared {
            wire_shard_heat(recorder, table_id, &mut shared.store);
        }
        self.publish_resident_rows();
    }

    /// Sets the resident-rows gauge: the stored rows — exactly the shared
    /// rows at rest, whatever the shard count — plus one per committed
    /// row an uncommitted change keeps for undo.
    fn publish_resident_rows(&self) {
        if self.resident_rows.is_enabled() {
            let held = |t: &SharedTable| t.store.len() + t.undo.values().flatten().count();
            self.resident_rows
                .set(self.shared.values().map(held).sum::<usize>() as u64);
        }
    }

    /// True iff `table_id`'s stored state is split into more than one
    /// shard on this peer.
    pub fn is_sharded(&self, table_id: &str) -> bool {
        self.shared
            .get(table_id)
            .is_some_and(|t| t.store.shard_count() > 1)
    }

    /// A share id names the stored copy in the log and in snapshots, so
    /// no source table may take it.
    fn ensure_not_a_share(&self, name: &str) -> Result<()> {
        if self.shared.contains_key(name) {
            return Err(RelationalError::TableExists {
                table: name.to_string(),
            }
            .into());
        }
        Ok(())
    }

    /// Registers a source table with initial contents.
    pub fn add_source_table(&mut self, name: &str, table: Table) -> Result<()> {
        self.ensure_not_a_share(name)?;
        self.db.put_table(name, table)?;
        Ok(())
    }

    /// Joins a shared table: records the binding, materializes the view
    /// via the lens's `get`, and stores it — committed as joined — under
    /// `table_id`. A `ProjectDistinct` binding also gets its cached group
    /// index.
    pub fn join_share(&mut self, table_id: &str, binding: PeerBinding) -> Result<Hash256> {
        let source = self.db.table(&binding.source_table)?;
        let view = exec::get(&binding.lens, source)?;
        if self.shared.contains_key(table_id) || self.db.has_table(table_id) {
            return Err(CoreError::BadAgreement(format!(
                "peer {} already participates in `{table_id}`",
                self.name
            )));
        }
        if let LensSpec::ProjectDistinct { view_key, .. } = &binding.lens {
            let source_version = self.db.table_version(&binding.source_table);
            self.group_indexes.insert(
                table_id.to_string(),
                (source_version, GroupIndex::build(source, view_key)?),
            );
        }
        let mut store = ShardMap::from_table(&view, self.shards_per_table);
        wire_shard_heat(&self.telemetry, table_id, &mut store);
        let hash = store.content_hash();
        self.db.bump_version(table_id);
        let undo = Undo::new();
        self.shared
            .insert(table_id.to_string(), SharedTable { store, undo });
        self.bindings.insert(table_id.to_string(), binding);
        self.applied_versions.insert(table_id.to_string(), 0);
        self.publish_resident_rows();
        Ok(hash)
    }

    /// Leaves a share: drops the local materialized copy and binding.
    pub fn leave_share(&mut self, table_id: &str) -> Result<()> {
        self.binding(table_id)?;
        self.bindings.remove(table_id);
        self.shared.remove(table_id);
        self.group_indexes.remove(table_id);
        self.applied_versions.remove(table_id);
        self.db.bump_version(table_id);
        self.publish_resident_rows();
        Ok(())
    }

    /// The binding for a shared table.
    pub fn binding(&self, table_id: &str) -> Result<&PeerBinding> {
        self.bindings
            .get(table_id)
            .ok_or_else(|| unknown_share(table_id))
    }

    /// Shared table ids this peer participates in.
    pub fn shares(&self) -> Vec<&str> {
        self.bindings.keys().map(String::as_str).collect()
    }

    /// Sibling shares bound to the same source as `table_id` (excluding
    /// `table_id` itself).
    fn sibling_shares(&self, source_table: &str, except: Option<&str>) -> Vec<String> {
        self.bindings
            .iter()
            .filter(|(id, b)| b.source_table == source_table && Some(id.as_str()) != except)
            .map(|(id, _)| id.clone())
            .collect()
    }

    // ----- store / group-index plumbing --------------------------------
    //
    // Every mutation of a shared table's stored copy or of a source
    // table funnels through the helpers below, which keep the derived
    // structures in step: the mutation log, the undo rows, and the cached
    // [`GroupIndex`] of every `ProjectDistinct` binding.

    fn shared(&self, table_id: &str) -> Result<&SharedTable> {
        self.shared
            .get(table_id)
            .ok_or_else(|| unknown_share(table_id))
    }

    fn shared_mut(&mut self, table_id: &str) -> Result<&mut SharedTable> {
        self.shared
            .get_mut(table_id)
            .ok_or_else(|| unknown_share(table_id))
    }

    /// The share ids of every cached group index bound to `source_table`.
    fn indexed_shares_of(&self, source_table: &str) -> Vec<String> {
        self.bindings
            .iter()
            .filter(|(id, b)| {
                b.source_table == source_table && self.group_indexes.contains_key(*id)
            })
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// The cached group index of `share_id`, only when it is provably in
    /// sync with the source (the recorded [`Database::table_version`]
    /// still matches). Out-of-band edits straight to `db` bump the
    /// version, so a stale index is bypassed — never silently used.
    fn fresh_group_index(&self, share_id: &str) -> Option<&GroupIndex> {
        let (source_version, idx) = self.group_indexes.get(share_id)?;
        let source = &self.bindings.get(share_id)?.source_table;
        (*source_version == self.db.table_version(source)).then_some(idx)
    }

    /// `get_delta` through `share_id`'s lens, using the cached group
    /// index when the binding is a `ProjectDistinct` and the index is
    /// fresh (falls back to the partial-index path otherwise).
    fn get_delta_for_share(
        &self,
        share_id: &str,
        source_old: &Table,
        source_delta: &TableDelta,
    ) -> Result<TableDelta> {
        let lens = &self.binding(share_id)?.lens;
        Ok(match self.fresh_group_index(share_id) {
            Some(idx) => incremental::get_delta_indexed(lens, source_old, source_delta, idx)?,
            None => incremental::get_delta(lens, source_old, source_delta)?,
        })
    }

    /// `put_delta` through `share_id`'s lens, using the cached group
    /// index when the binding is a `ProjectDistinct` and the index is
    /// fresh (falls back to the partial-index path otherwise).
    fn put_delta_for_share(
        &self,
        share_id: &str,
        source: &Table,
        view_delta: &TableDelta,
    ) -> Result<TableDelta> {
        let lens = &self.binding(share_id)?.lens;
        Ok(match self.fresh_group_index(share_id) {
            Some(idx) => incremental::put_delta_indexed(lens, source, view_delta, idx)?,
            None => incremental::put_delta(lens, source, view_delta)?,
        })
    }

    /// The non-empty `get_delta` of `source_delta` through every share on
    /// `source_table` other than `except`, anchored on the pre-delta
    /// source — the material of the Fig. 5 step-6 dependency check.
    fn derive_sibling_deltas(
        &self,
        source_table: &str,
        except: Option<&str>,
        source_delta: &TableDelta,
    ) -> Result<Vec<(String, TableDelta)>> {
        let source_old = self.db.table(source_table)?;
        let mut derived = Vec::new();
        for share_id in self.sibling_shares(source_table, except) {
            let d = self.get_delta_for_share(&share_id, source_old, source_delta)?;
            if !d.is_empty() {
                derived.push((share_id, d));
            }
        }
        Ok(derived)
    }

    /// Re-stamps every index on `source_table` as synced with the
    /// source's current mutation version.
    fn mark_group_indexes_synced(&mut self, source_table: &str) {
        let version = self.db.table_version(source_table);
        for id in self.indexed_shares_of(source_table) {
            if let Some(entry) = self.group_indexes.get_mut(&id) {
                entry.0 = version;
            }
        }
    }

    /// Advances every cached group index bound to `source_table` past
    /// `delta`. Must run while the pre-delta source is still in `db`;
    /// the caller re-stamps sync versions after the table itself moves.
    fn advance_group_indexes(&mut self, source_table: &str, delta: &TableDelta) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        let source_old = self.db.table(source_table)?;
        for (id, binding) in &self.bindings {
            if binding.source_table == source_table {
                if let Some((_, idx)) = self.group_indexes.get_mut(id) {
                    idx.apply_source_delta(source_old, delta)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the cached group indexes of every `ProjectDistinct`
    /// binding on `source_table` from the current source contents (used
    /// after whole-table rewrites and out-of-band edits that bypass
    /// delta tracking), stamping them with the current table version.
    fn rebuild_group_indexes_for_source(&mut self, source_table: &str) -> Result<()> {
        let version = self.db.table_version(source_table);
        for id in self.indexed_shares_of(source_table) {
            if let LensSpec::ProjectDistinct { view_key, .. } = &self.binding(&id)?.lens {
                let idx = GroupIndex::build(self.db.table(source_table)?, view_key)?;
                self.group_indexes.insert(id, (version, idx));
            }
        }
        Ok(())
    }

    /// Applies an **uncommitted** delta to a shared table's stored copy,
    /// touching only the shards it lands in, and logs it — the one funnel
    /// of every store change the chain has not committed, so the
    /// committed rows it displaces are kept here. Returns the inverse. A
    /// rejected delta leaves the store untouched and unlogged.
    ///
    /// The WAL `post_hash` is the shard fold (cached per-shard subtree
    /// roots; only the touched shards rehash) — byte-identical to the
    /// content hash of the assembled rows.
    fn apply_view_delta(&mut self, table_id: &str, delta: &TableDelta) -> Result<TableDelta> {
        let shared = self.shared_mut(table_id)?;
        let inverse = shared.store.apply_delta(delta)?;
        shared.note_undo(&inverse);
        let post_hash = shared.store.content_hash();
        let op = WriteOp::Delta {
            delta: delta.clone(),
        };
        self.db.log_external(table_id, op, post_hash);
        self.publish_resident_rows();
        Ok(inverse)
    }

    /// Applies a delta to a **source** table, keeping the cached group
    /// indexes in step. Returns the inverse.
    ///
    /// Fresh indexes advance incrementally (O(delta)); indexes left
    /// behind by an out-of-band edit straight to `db` (detected via
    /// [`Database::table_version`]) are rebuilt from ground truth after
    /// the apply instead — correctness never depends on every caller
    /// using the tracked paths.
    fn apply_source_delta_db(
        &mut self,
        source_table: &str,
        delta: &TableDelta,
    ) -> Result<TableDelta> {
        let indexed = self.indexed_shares_of(source_table);
        if indexed.is_empty() {
            return Ok(self.db.apply_delta(source_table, delta)?);
        }
        let current = self.db.table_version(source_table);
        let all_fresh = indexed.iter().all(|id| self.group_indexes[id].0 == current);
        if all_fresh {
            self.advance_group_indexes(source_table, delta)?;
            match self.db.apply_delta(source_table, delta) {
                Ok(inv) => {
                    self.mark_group_indexes_synced(source_table);
                    Ok(inv)
                }
                Err(e) => {
                    // The indexes advanced past a delta the table
                    // refused — re-derive them before surfacing.
                    self.rebuild_group_indexes_for_source(source_table)?;
                    Err(e.into())
                }
            }
        } else {
            let inv = self.db.apply_delta(source_table, delta)?;
            self.rebuild_group_indexes_for_source(source_table)?;
            Ok(inv)
        }
    }

    /// Applies a local write to a **source** table (Fig. 5 step 0: the
    /// Researcher edits D2 before propagating).
    ///
    /// The write is converted to a row-level delta, pushed
    /// forward through every lens bound to this source (`get_delta`), the
    /// affected shared copies are refreshed incrementally, and the
    /// committed rows they displace are kept until the next propagation.
    /// Returns the applied inverses `(table, inverse_delta)` in
    /// application order so a transactional caller can roll back in
    /// O(changed rows).
    pub fn write_source(&mut self, table: &str, op: WriteOp) -> Result<Vec<(String, TableDelta)>> {
        if self.bindings.contains_key(table) {
            return Err(CoreError::BadAgreement(format!(
                "`{table}` is a shared table; edit the source and propagate, \
                 or use write_shared"
            )));
        }
        let source_delta = delta_from_write_op(self.db.table(table)?, &op)?;
        // Push the source delta forward through every lens on this
        // source *before* mutating, so the old source anchors the lookups.
        let derived = self.derive_sibling_deltas(table, None, &source_delta)?;
        let mut inverses = Vec::with_capacity(1 + derived.len());
        let inv = self.apply_source_delta_db(table, &source_delta)?;
        inverses.push((table.to_string(), inv));
        for (share_id, view_delta) in derived {
            let inv = self.apply_view_delta(&share_id, &view_delta)?;
            inverses.push((share_id, inv));
        }
        Ok(inverses)
    }

    /// Applies a local write directly to a **shared** table copy and
    /// immediately reflects it into the source (entry-level CRUD on
    /// shared data, Fig. 4). The caller still must propagate.
    ///
    /// The change is reflected via `put_delta` (O(changed rows)) and
    /// sibling shares on the same source refresh via `get_delta`. Returns
    /// applied inverses as in [`PeerNode::write_source`].
    pub fn write_shared(
        &mut self,
        table_id: &str,
        op: WriteOp,
    ) -> Result<Vec<(String, TableDelta)>> {
        let binding = self.binding(table_id)?.clone();
        let view_delta = delta_from_write_op(self.shared_store(table_id)?, &op)?;
        let source_old = self.db.table(&binding.source_table)?;
        let source_delta = self.put_delta_for_share(table_id, source_old, &view_delta)?;
        // Sibling views refresh from the source delta.
        let derived =
            self.derive_sibling_deltas(&binding.source_table, Some(table_id), &source_delta)?;
        let mut inverses = Vec::with_capacity(2 + derived.len());
        let inv = self.apply_view_delta(table_id, &view_delta)?;
        inverses.push((table_id.to_string(), inv));
        if !source_delta.is_empty() {
            let inv = self.apply_source_delta_db(&binding.source_table, &source_delta)?;
            inverses.push((binding.source_table.clone(), inv));
        }
        for (share_id, d) in derived {
            let inv = self.apply_view_delta(&share_id, &d)?;
            inverses.push((share_id, inv));
        }
        Ok(inverses)
    }

    /// Regenerates the shared view from the (possibly updated) source
    /// without storing it.
    fn regenerate_view(&self, table_id: &str) -> Result<Table> {
        let binding = self.binding(table_id)?;
        let source = self.db.table(&binding.source_table)?;
        Ok(exec::get(&binding.lens, source)?)
    }

    /// The stored (materialized) copy of a shared table, as the peer
    /// keeps it: keyed lookup, shard-ordered iteration and the content
    /// fold without assembling anything.
    pub fn shared_store(&self, table_id: &str) -> Result<&ShardMap> {
        Ok(&self.shared(table_id)?.store)
    }

    /// A copy of the stored shared table, assembled from its shards.
    pub fn shared_table(&self, table_id: &str) -> Result<Table> {
        Ok(self.shared_store(table_id)?.assemble())
    }

    /// A copy of a local table by name: a source table, or the stored
    /// copy of a shared one.
    pub fn read_table(&self, name: &str) -> Result<Table> {
        match self.shared.get(name) {
            Some(shared) => Ok(shared.store.assemble()),
            None => Ok(self.db.table(name)?.clone()),
        }
    }

    /// Content hash of the stored shared copy: the fold of per-shard
    /// subtree roots — byte-identical to hashing the assembled rows, but
    /// only shards touched since the last fold rehash.
    pub fn shared_hash(&self, table_id: &str) -> Result<Hash256> {
        Ok(self.shared_store(table_id)?.content_hash())
    }

    /// Content hash of the last *committed* view — what must equal the
    /// hash the sharing contract holds while the table is synced, even
    /// when the peer carries pending local changes (e.g. a
    /// permission-blocked cascade awaiting retry). With nothing to rewind
    /// (at rest) this is the store's own warm fold; otherwise it is the
    /// fold of the store rewound by its undo rows (O(table)).
    pub fn committed_hash(&self, table_id: &str) -> Result<Hash256> {
        let shared = self.shared(table_id)?;
        if shared.rewind().is_empty() {
            return Ok(shared.store.content_hash());
        }
        Ok(shared.committed()?.content_hash())
    }

    /// A fingerprint over the content hashes of every table the peer
    /// holds, sources and stored shared copies alike — what
    /// [`Database::fingerprint`] yields for a database holding them all.
    pub fn fingerprint(&self) -> Hash256 {
        let sources = self.db.export_parts().1;
        let mut hashes: BTreeMap<&str, Hash256> = sources
            .iter()
            .map(|(name, t)| (name.as_str(), t.content_hash()))
            .collect();
        for (table_id, shared) in &self.shared {
            hashes.insert(table_id.as_str(), shared.store.content_hash());
        }
        fingerprint_of(hashes.into_iter())
    }

    /// Verifies this peer's copy of a *synced* shared table against the
    /// hash the contract committed: the stored rows, rewound by whatever
    /// undo rows the peer holds, must hash to `contract_hash`. With
    /// nothing pending (the quiescent case) that is the stored copy
    /// itself; a peer carrying a pending change (e.g. a blocked cascade)
    /// is checked at every key the change has not touched, and at the
    /// touched keys on the committed rows it kept.
    ///
    /// What this no longer detects: damage to an *uncommitted* row. The
    /// store is the only copy of a pending row now (there used to be a
    /// second one in the pending map to compare it with), so a pending
    /// row corrupted in memory is shipped as the peer's next update and
    /// is subject to the contract's permission check like any other
    /// write, not caught here.
    pub fn check_share_integrity(&self, table_id: &str, contract_hash: Hash256) -> Result<()> {
        let committed = self.committed_hash(table_id)?;
        if committed != contract_hash {
            return Err(CoreError::ConsistencyViolation(format!(
                "peer {} holds `{table_id}` committed at {} ({} undo row(s) applied) \
                 but contract says {}",
                self.name,
                committed.short(),
                self.shared(table_id)?.undo.len(),
                contract_hash.short()
            )));
        }
        Ok(())
    }

    // ----- propagation hooks ------------------------------------------

    /// The pending delta of `table_id`: what takes the committed baseline
    /// to the stored copy, canonically ordered (empty if nothing is
    /// pending). O(undo rows) lookups.
    pub fn pending_delta(&self, table_id: &str) -> Result<TableDelta> {
        Ok(self.shared(table_id)?.pending())
    }

    /// True iff the peer holds a pending local change of `table_id` —
    /// the Fig. 5 step-6 "does this share now differ?" check, answered in
    /// O(pending) instead of a full regenerate-and-diff.
    pub fn has_pending_change(&self, table_id: &str) -> Result<bool> {
        Ok(!self.pending_delta(table_id)?.is_empty())
    }

    /// Brings `table_id`'s stored copy in line with what the source
    /// regenerates — the O(table) fallback for changes the tracked write
    /// paths never saw. Returns the regenerated view's delta against the
    /// committed baseline.
    fn rederive_from_source(&mut self, table_id: &str) -> Result<TableDelta> {
        let regenerated = self.regenerate_view(table_id)?;
        let stored_delta = diff_tables(self.shared_store(table_id)?, &regenerated);
        if !stored_delta.is_empty() {
            self.apply_view_delta(table_id, &stored_delta)?;
        }
        self.pending_delta(table_id)
    }

    /// Fig. 5 step 1: the delta this peer would propagate for
    /// `table_id`, with the stored copy guaranteed to reflect it.
    ///
    /// Normally this is the pending delta (O(undo rows)). When no writes
    /// were tracked (out-of-band edits straight to `db`), it falls back
    /// to a full regenerate-and-diff and brings the stored copy in line.
    pub fn prepare_update_delta(&mut self, table_id: &str) -> Result<TableDelta> {
        let pending = self.pending_delta(table_id)?;
        if !pending.is_empty() {
            return Ok(pending);
        }
        self.rederive_from_source(table_id)
    }

    /// Translates an incoming view delta into this peer's source delta
    /// (`put_delta`) **without applying anything** — the pipeline's
    /// pre-flight check, run for every sharing peer before the update is
    /// submitted on chain. Uses the cached group index for
    /// `ProjectDistinct` bindings (O(touched groups), no source scan).
    pub fn translate_remote_delta(
        &self,
        table_id: &str,
        view_delta: &TableDelta,
    ) -> Result<TableDelta> {
        let binding = self.binding(table_id)?;
        let source = self.db.table(&binding.source_table)?;
        self.put_delta_for_share(table_id, source, view_delta)
    }

    /// Applies a committed remote delta (Fig. 5 steps 4–5 / 10–11):
    /// routes the view delta to the shards of the stored
    /// copy it lands in ([`TableDelta::split_by_shard`]), verifies the
    /// announced hash against the fold of per-shard subtree roots — only
    /// the touched shards rehash — reflects the change into the source
    /// with the pre-computed `source_delta`, and refreshes sibling shares
    /// (their deltas stay pending for the step-6 cascade). The store is
    /// touched once: with no undo rows over it, it *is* the committed
    /// baseline. A rejected or hash-mismatched delta leaves the peer
    /// untouched.
    ///
    /// Callers that own a worker pool (the system's fan-out) drive the
    /// same three phases — plan, per-shard jobs, finish — through the
    /// crate-internal API so disjoint shards apply in parallel; this
    /// entry point runs the jobs inline, byte-identically.
    pub fn apply_remote_delta(
        &mut self,
        table_id: &str,
        view_delta: &TableDelta,
        source_delta: &TableDelta,
        announced_hash: Hash256,
        version: u64,
    ) -> Result<()> {
        let Some(plan) = self.plan_remote_apply(table_id, view_delta, source_delta)? else {
            return self.resolve_conflicting_remote(table_id, view_delta, announced_hash, version);
        };
        let results = self
            .remote_shard_jobs(table_id, &plan)
            .into_iter()
            .map(run_shard_job)
            .collect();
        self.finish_remote_apply(
            table_id,
            plan,
            results,
            view_delta,
            source_delta,
            announced_hash,
            version,
        )
    }

    /// The conflict path: this peer carries uncommitted local changes of
    /// `table_id` (e.g. a permission-blocked cascade awaiting retry)
    /// while a committed remote update arrives. Resolve as the
    /// paper-literal whole-table exchange does — the remote view wins,
    /// the lens `put` merges it into the source (the Fig. 5 reference
    /// model's receive step) — then re-derive the stored copy of
    /// every sibling share from ground truth, so a residual local
    /// difference survives as a pending delta (the retry is preserved,
    /// not silently dropped). O(table), but only on this rare contended
    /// path.
    fn resolve_conflicting_remote(
        &mut self,
        table_id: &str,
        view_delta: &TableDelta,
        announced_hash: Hash256,
        version: u64,
    ) -> Result<()> {
        let source_table = self.binding(table_id)?.source_table.clone();
        let mut view_new = self.shared(table_id)?.committed()?;
        view_new.apply_delta(view_delta).map_err(|e| {
            CoreError::ConsistencyViolation(format!(
                "committed `{table_id}` delta does not apply to the committed baseline: {e}"
            ))
        })?;
        // Rows in key order, so the logged rewrite reads the same at any
        // shard count. Verified before any mutation: a corrupt delta
        // leaves the peer untouched.
        let rows = view_new.sorted_rows().into_iter().cloned().collect();
        let view_new = Table::from_rows(view_new.schema().clone(), rows)?;
        self.apply_remote_view(table_id, &view_new, announced_hash, version)?;
        for share_id in self.sibling_shares(&source_table, Some(table_id)) {
            self.rederive_from_source(&share_id)?;
        }
        Ok(())
    }

    // ----- remote apply, in three phases --------------------------------

    /// Phase 1 of a remote apply: splits the view delta per shard of the
    /// stored copy and pre-derives the sibling cascade deltas (anchored
    /// on the pre-delta source). Pure planning — nothing mutates.
    ///
    /// Returns `None` for the rare conflicted-pending case, which
    /// resolves through the whole-table merge in
    /// [`PeerNode::apply_remote_delta`].
    pub(crate) fn plan_remote_apply(
        &self,
        table_id: &str,
        view_delta: &TableDelta,
        source_delta: &TableDelta,
    ) -> Result<Option<RemoteShardPlan>> {
        let binding = self.binding(table_id)?;
        if self.has_pending_change(table_id)? {
            return Ok(None);
        }
        let derived =
            self.derive_sibling_deltas(&binding.source_table, Some(table_id), source_delta)?;
        let plan = self.shared_store(table_id)?.plan(view_delta);
        let touched = plan.touched();
        Ok(Some(RemoteShardPlan {
            plan,
            touched,
            derived,
        }))
    }

    /// Phase 2: the disjoint per-shard jobs of a planned apply — each is
    /// one touched shard plus its sub-delta and the target chunk layout,
    /// runnable concurrently (see [`run_shard_job`]). Empty if the peer
    /// left the share since planning; phase 3 then reports that.
    pub(crate) fn remote_shard_jobs<'a, 'p>(
        &'a mut self,
        table_id: &str,
        rplan: &'p RemoteShardPlan,
    ) -> Vec<(&'a mut Shard, &'p TableDelta, usize)> {
        let Some(shared) = self.shared.get_mut(table_id) else {
            return Vec::new();
        };
        let chunk_count = rplan.plan.chunk_count;
        shared
            .store
            .shards_mut()
            .iter_mut()
            .zip(&rplan.plan.per_shard)
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(shard, sub)| (shard, sub, chunk_count))
            .collect()
    }

    /// Phase 3: merges per-shard apply results back into the peer —
    /// reverts every shard if one rejected its sub-delta, verifies the
    /// announced hash against the folded per-shard roots and logs the
    /// delta with that fold as `post_hash`, then runs the serial tail:
    /// source via BX-put, sibling cascades.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_remote_apply(
        &mut self,
        table_id: &str,
        rplan: RemoteShardPlan,
        results: Vec<medledger_relational::Result<TableDelta>>,
        view_delta: &TableDelta,
        source_delta: &TableDelta,
        announced_hash: Hash256,
        version: u64,
    ) -> Result<()> {
        let source_table = self.binding(table_id)?.source_table.clone();
        let shared = self.shared_mut(table_id)?;
        let store = &mut shared.store;
        let chunk_count = rplan.plan.chunk_count;
        let mut applied: Vec<(usize, TableDelta)> = Vec::new();
        let mut first_err: Option<RelationalError> = None;
        for (&s, r) in rplan.touched.iter().zip(results) {
            match r {
                Ok(inv) => applied.push((s, inv)),
                Err(e) if first_err.is_none() => first_err = Some(e),
                Err(_) => {}
            }
        }
        if let Some(e) = first_err {
            // Every job ran (the pool does not short-circuit): revert the
            // shards that applied, newest first.
            for (s, inv) in applied.iter().rev() {
                store.shards_mut()[*s].apply(inv, chunk_count)?;
            }
            return Err(e.into());
        }
        store.commit_plan(&rplan.plan);
        if store.content_hash() != announced_hash {
            // Corrupt or stale delta: restore the stored copy and refuse.
            let schema = store.schema().clone();
            let inverse =
                TableDelta::merge_disjoint(applied.into_iter().map(|(_, inv)| inv), |r| {
                    schema.key_of(r)
                });
            store.apply_delta(&inverse)?;
            return Err(CoreError::ConsistencyViolation(format!(
                "applying the `{table_id}` delta does not reproduce the hash the \
                 contract announced ({})",
                announced_hash.short()
            )));
        }
        // Planned with nothing pending, so any undo rows left are ones
        // the store had already returned to: the store is the baseline.
        shared.undo.clear();
        let op = WriteOp::Delta {
            delta: view_delta.clone(),
        };
        self.db.log_external(table_id, op, announced_hash);
        if !source_delta.is_empty() {
            self.apply_source_delta_db(&source_table, source_delta)?;
        }
        for (share_id, d) in rplan.derived {
            self.apply_view_delta(&share_id, &d)?;
        }
        self.applied_versions.insert(table_id.to_string(), version);
        self.publish_resident_rows();
        Ok(())
    }

    /// Marks the updater's own pending delta as committed at `version`:
    /// the stored copy already reflects it, so the undo rows are dropped
    /// and the store is the committed baseline again.
    pub fn commit_delta(&mut self, table_id: &str, delta: &TableDelta, version: u64) -> Result<()> {
        let shared = self.shared_mut(table_id)?;
        debug_assert_eq!(
            &shared.pending(),
            delta,
            "`{table_id}` commits its pending delta"
        );
        shared.undo.clear();
        self.applied_versions.insert(table_id.to_string(), version);
        self.publish_resident_rows();
        Ok(())
    }

    /// Rolls a failed transactional batch back: re-applies the staged
    /// writes' inverse deltas — all a caller (the facade's `UpdateBatch`,
    /// the engine's `LedgerService`) has to keep — in reverse order,
    /// O(changed rows), no table snapshots.
    /// Undo rows the store has thereby returned to are dropped, so a
    /// batch leaves no trace and whatever was pending before it (or was
    /// committed since) stays exactly as tracked. Cached group indexes
    /// roll back alongside.
    pub fn rollback_writes(&mut self, inverses: &[(String, TableDelta)]) {
        for (table, inverse) in inverses.iter().rev() {
            let undone = if self.shared.contains_key(table) {
                self.apply_view_delta(table, inverse)
            } else {
                self.apply_source_delta_db(table, inverse)
            };
            // lint: allow(unwrap) — each inverse was returned by the write
            // it undoes; one that no longer applies means the tables moved
            // outside the staged batch, and no error value can repair that.
            undone.expect("applying a recorded inverse delta cannot fail");
        }
        for SharedTable { store, undo } in self.shared.values_mut() {
            undo.retain(|key, committed| store.get(key) != committed.as_ref());
        }
        self.publish_resident_rows();
    }

    /// Applies a whole shared table in place of the stored copy — the
    /// tail of the conflict path: verifies the announced hash, reflects
    /// the change into the source via `put`, and replaces the stored
    /// copy, which is then the committed baseline.
    fn apply_remote_view(
        &mut self,
        table_id: &str,
        new_view: &Table,
        announced_hash: Hash256,
        version: u64,
    ) -> Result<()> {
        if new_view.content_hash() != announced_hash {
            return Err(CoreError::ConsistencyViolation(format!(
                "received `{table_id}` data hashing to {} but contract announced {}",
                new_view.content_hash().short(),
                announced_hash.short()
            )));
        }
        let binding = self.binding(table_id)?.clone();
        let source = self.db.table(&binding.source_table)?;
        let new_source = exec::put(&binding.lens, source, new_view)?;
        let src_rows: Vec<Row> = new_source.rows().cloned().collect();
        self.db
            .apply(&binding.source_table, WriteOp::Replace { rows: src_rows })?;
        let shared = self.shared_mut(table_id)?;
        shared.store.rebuild_from(new_view);
        shared.undo.clear();
        let post_hash = shared.store.content_hash();
        let rows: Vec<Row> = new_view.rows().cloned().collect();
        self.db
            .log_external(table_id, WriteOp::Replace { rows }, post_hash);
        self.applied_versions.insert(table_id.to_string(), version);
        self.publish_resident_rows();
        // Whole-table rewrites bypass delta tracking: re-derive the group
        // indexes from ground truth.
        self.rebuild_group_indexes_for_source(&binding.source_table)
    }

    /// The view as of the last committed version: a borrowed overlay of
    /// the stored copy, not a copy.
    pub fn baseline(&self, table_id: &str) -> Result<Baseline<'_>> {
        Ok(self.shared(table_id)?.baseline())
    }

    /// The Fig. 5 **Step 6** dependency check: other shares of this peer
    /// whose lens footprint (on the same source) overlaps the footprint of
    /// `table_id`'s lens. These are the candidates for cascaded
    /// regeneration.
    pub fn overlapping_shares(&self, table_id: &str) -> Result<Vec<String>> {
        let binding = self.binding(table_id)?;
        let source_schema = self.db.table(&binding.source_table)?.schema().clone();
        let base = analysis::analyze(&binding.lens, &source_schema)?;
        let mut out = Vec::new();
        for (other_id, other_binding) in &self.bindings {
            if other_id == table_id || other_binding.source_table != binding.source_table {
                continue;
            }
            let other = analysis::analyze(&other_binding.lens, &source_schema)?;
            if base.overlaps(&other) {
                out.push(other_id.clone());
            }
        }
        Ok(out)
    }

    /// Allocates the next transaction nonce.
    pub fn take_nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    // ----- durable-storage support -------------------------------------

    /// The peer's share bindings (persisted verbatim in snapshots).
    pub(crate) fn bindings_map(&self) -> &BTreeMap<String, PeerBinding> {
        &self.bindings
    }

    /// The stored copy of each share, by table id. With the database's
    /// own tables these are the `tables` section of a storage snapshot.
    pub(crate) fn stored_copies(&self) -> impl ExactSizeIterator<Item = (&String, &ShardMap)> {
        self.shared.iter().map(|(id, shared)| (id, &shared.store))
    }

    /// Per-share inverse deltas that rewind each stored copy back to its
    /// committed baseline (`diff_tables(stored, baseline)`, read off the
    /// undo rows) — what a flush records next to the stored copies, so
    /// disk like memory holds no second copy of any table. O(undo rows)
    /// per share.
    pub fn baseline_inverses(&self) -> Vec<(String, TableDelta)> {
        let rewinds = self.shared.iter().map(|(id, t)| (id.clone(), t.rewind()));
        rewinds.filter(|(_, inv)| !inv.is_empty()).collect()
    }

    /// Rebuilds a peer from persisted parts: the recovered database
    /// (snapshot + WAL replay, shared tables still inside), the share
    /// bindings, and the per-share baseline inverses recorded at the last
    /// flush. Signing keys are re-derived from the deployment seed (they
    /// are never persisted) and fast-forwarded past the already-consumed
    /// one-time signatures; each shared table moves out of the database
    /// into its sharded store, the recorded inverse becomes its undo rows
    /// (recovery then checks the baseline they imply against the
    /// contract), and the group indexes rebuild from ground truth.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_from_parts(
        name: &str,
        seed: &str,
        key_capacity: usize,
        shards_per_table: usize,
        db: Database,
        bindings: BTreeMap<String, PeerBinding>,
        baseline_inverses: &[(String, TableDelta)],
        applied_versions: BTreeMap<String, u64>,
        next_nonce: u64,
        keys_used: u64,
    ) -> Result<PeerNode> {
        let mode = PropagationMode::Delta;
        let mut peer = PeerNode::new(name, seed, key_capacity, mode, shards_per_table);
        peer.keys.restore_used(keys_used);
        peer.db = db;
        peer.applied_versions = applied_versions;
        peer.next_nonce = next_nonce;
        let inverses: BTreeMap<&str, &TableDelta> = baseline_inverses
            .iter()
            .map(|(id, d)| (id.as_str(), d))
            .collect();
        for (table_id, binding) in &bindings {
            let stored = peer.db.detach_table(table_id)?;
            let store = ShardMap::from_table(&stored, peer.shards_per_table);
            let mut shared = SharedTable {
                store,
                undo: Undo::new(),
            };
            if let Some(inverse) = inverses.get(table_id.as_str()) {
                shared.note_undo(inverse);
            }
            peer.shared.insert(table_id.clone(), shared);
            if let LensSpec::ProjectDistinct { view_key, .. } = &binding.lens {
                let source_version = peer.db.table_version(&binding.source_table);
                let idx = GroupIndex::build(peer.db.table(&binding.source_table)?, view_key)?;
                peer.group_indexes
                    .insert(table_id.clone(), (source_version, idx));
            }
        }
        peer.bindings = bindings;
        Ok(peer)
    }
}

/// The Fig. 5 reference model the conflict path is checked against.
#[cfg(test)]
#[path = "../../../tests/common/fig5_model.rs"]
mod fig5_model;

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_bx::LensSpec;
    use medledger_relational::{row, Value};
    use medledger_workload::{fig1_full_records, full_records_schema};

    fn d3_table() -> Table {
        fig1_full_records()
            .project(
                &[
                    "patient_id",
                    "medication_name",
                    "clinical_data",
                    "mechanism_of_action",
                    "dosage",
                ],
                &["patient_id"],
            )
            .expect("D3 projection")
    }

    fn doctor_with_shares_sharded(shards: usize) -> PeerNode {
        let mut doctor = PeerNode::new("Doctor", "peer-test", 16, PropagationMode::Delta, shards);
        doctor.add_source_table("D3", d3_table()).expect("add D3");
        // BX31: share with Patient.
        doctor
            .join_share(
                "D13&D31",
                PeerBinding {
                    source_table: "D3".into(),
                    lens: LensSpec::project(
                        &["patient_id", "medication_name", "clinical_data", "dosage"],
                        &["patient_id"],
                    ),
                },
            )
            .expect("join D31");
        // BX32: share with Researcher.
        doctor
            .join_share(
                "D23&D32",
                PeerBinding {
                    source_table: "D3".into(),
                    lens: LensSpec::project_distinct(
                        &["medication_name", "mechanism_of_action"],
                        &["medication_name"],
                    ),
                },
            )
            .expect("join D32");
        doctor
    }

    fn doctor_with_shares() -> PeerNode {
        doctor_with_shares_sharded(1)
    }

    /// The committed view of `table`, read through the baseline overlay.
    fn committed_table(peer: &PeerNode, table: &str) -> Table {
        let baseline = peer.baseline(table).expect("baseline");
        let rows = baseline.rows().cloned().collect();
        Table::from_rows(baseline.schema().clone(), rows).expect("committed rows")
    }

    #[test]
    fn join_share_materializes_view() {
        let doctor = doctor_with_shares();
        let d31 = doctor.shared_table("D13&D31").expect("D31");
        assert_eq!(d31.len(), 2);
        assert_eq!(
            d31.schema().column_names(),
            vec!["patient_id", "medication_name", "clinical_data", "dosage"]
        );
        let d32 = doctor.shared_table("D23&D32").expect("D32");
        assert_eq!(d32.len(), 2);
        assert_eq!(doctor.shares().len(), 2);
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut doctor = doctor_with_shares();
        let err = doctor
            .join_share(
                "D13&D31",
                PeerBinding {
                    source_table: "D3".into(),
                    lens: LensSpec::select(medledger_relational::Predicate::True),
                },
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadAgreement(_)));
    }

    #[test]
    fn apply_remote_view_puts_into_source() {
        let mut doctor = doctor_with_shares();
        // Researcher updated MeA1 → MeA1-new in the shared D23&D32.
        let mut new_view = doctor.shared_table("D23&D32").expect("D32").clone();
        new_view
            .update(
                &[Value::text("Ibuprofen")],
                &[("mechanism_of_action", Value::text("MeA1-new"))],
            )
            .expect("edit view");
        let hash = new_view.content_hash();
        doctor
            .apply_remote_view("D23&D32", &new_view, hash, 1)
            .expect("apply");
        // Source D3 reflects the change.
        let d3 = doctor.db.table("D3").expect("D3");
        assert_eq!(
            d3.get(&[Value::Int(188)]).expect("row")[3],
            Value::text("MeA1-new")
        );
        assert_eq!(doctor.applied_versions["D23&D32"], 1);
    }

    #[test]
    fn apply_remote_view_rejects_hash_mismatch() {
        let mut doctor = doctor_with_shares();
        let view = doctor.shared_table("D23&D32").expect("D32").clone();
        let err = doctor
            .apply_remote_view("D23&D32", &view, Hash256([9; 32]), 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::ConsistencyViolation(_)));
    }

    #[test]
    fn delta_write_shared_tracks_pending_and_siblings() {
        for shards in [1usize, 8] {
            let mut doctor = doctor_with_shares_sharded(shards);
            let before_fp = doctor.fingerprint();
            let inverses = doctor
                .write_shared(
                    "D23&D32",
                    WriteOp::Update {
                        key: vec![Value::text("Ibuprofen")],
                        assignments: vec![("mechanism_of_action".into(), Value::text("MeA1-new"))],
                    },
                )
                .expect("write shared");
            // The stored copy, the source, and the pending delta all moved.
            assert_eq!(
                doctor
                    .shared_store("D23&D32")
                    .expect("D32")
                    .get(&[Value::text("Ibuprofen")])
                    .expect("row")[1],
                Value::text("MeA1-new")
            );
            assert_eq!(
                doctor
                    .db
                    .table("D3")
                    .expect("D3")
                    .get(&[Value::Int(188)])
                    .expect("row")[3],
                Value::text("MeA1-new")
            );
            let pending = doctor.pending_delta("D23&D32").expect("pending");
            assert_eq!(pending.updates.len(), 1);
            assert!(doctor.has_pending_change("D23&D32").expect("check"));
            // The sibling share's lens does not cover the mechanism → no
            // pending change there.
            assert!(!doctor.has_pending_change("D13&D31").expect("check"));
            // The baseline still matches the last committed state.
            assert_ne!(
                doctor.shared_hash("D23&D32").expect("hash"),
                doctor.committed_hash("D23&D32").expect("hash")
            );

            // Rolling back the inverses restores everything.
            doctor.rollback_writes(&inverses);
            assert_eq!(doctor.fingerprint(), before_fp, "shards={shards}");
            assert_eq!(
                doctor.shared_hash("D23&D32").expect("hash"),
                doctor.committed_hash("D23&D32").expect("hash")
            );
            assert!(!doctor.has_pending_change("D23&D32").expect("check"));
        }
    }

    #[test]
    fn delta_remote_apply_advances_baseline_and_stashes_cascades() {
        let mut doctor = doctor_with_shares();
        // The Researcher retired the Wellbutrin group from the shared
        // D23&D32 — translatable through the project-distinct lens (all
        // group members drop from D3).
        let view_delta = TableDelta {
            deletes: vec![vec![Value::text("Wellbutrin")]],
            ..Default::default()
        };
        let source_delta = doctor
            .translate_remote_delta("D23&D32", &view_delta)
            .expect("translate");
        assert!(!source_delta.is_empty());
        let mut expected = doctor.shared_table("D23&D32").expect("D32").clone();
        expected.apply_delta(&view_delta).expect("expected view");
        doctor
            .apply_remote_delta(
                "D23&D32",
                &view_delta,
                &source_delta,
                expected.content_hash(),
                1,
            )
            .expect("apply");
        assert_eq!(doctor.applied_versions["D23&D32"], 1);
        assert_eq!(
            doctor.shared_hash("D23&D32").expect("hash"),
            doctor.committed_hash("D23&D32").expect("hash")
        );
        // The group delete flowed into D3, and the sibling patient share
        // (whose lens shows patient 189's row) now has a pending cascade
        // delta tracked from the same source delta.
        assert!(doctor
            .db
            .table("D3")
            .expect("D3")
            .get(&[Value::Int(189)])
            .is_none());
        let cascade = doctor.pending_delta("D13&D31").expect("pending");
        assert_eq!(cascade.deletes, vec![vec![Value::Int(189)]]);
        assert!(doctor.has_pending_change("D13&D31").expect("check"));
    }

    #[test]
    fn conflicting_pending_resolves_like_full_table_mode() {
        // A peer carrying an uncommitted local change receives a
        // committed remote update of the same table: the conflict path
        // must end byte-identical to the Fig. 5 reference model's
        // whole-table receive (remote wins on the view, lens put merges
        // into the source), with pending tracking re-derived from ground
        // truth.
        let mut doctor = doctor_with_shares();
        let mut model = fig5_model::ModelPeer::default();
        model.load_source("D3", d3_table());
        for share in ["D13&D31", "D23&D32"] {
            let lens = doctor.bindings[share].lens.clone();
            model.join(share, "D3", lens);
        }

        // Local uncommitted edit: clinical data of 188, which gives the
        // doctor a pending entry on the patient share.
        let local_edit = WriteOp::Update {
            key: vec![Value::Int(188)],
            assignments: vec![("clinical_data".into(), Value::text("local-note"))],
        };
        doctor
            .write_source("D3", local_edit.clone())
            .expect("tracked write");
        assert!(doctor.has_pending_change("D13&D31").expect("check"));
        model.write_source("D3", &local_edit).expect("model write");

        // A committed remote update (dosage of 189) built on the
        // *committed* baseline arrives at both.
        let view_delta = TableDelta {
            updates: vec![(
                vec![Value::Int(189)],
                row![189i64, "Wellbutrin", "CliD2", "remote-dose"],
            )],
            ..Default::default()
        };
        let mut view_new = committed_table(&doctor, "D13&D31");
        view_new.apply_delta(&view_delta).expect("view");
        let announced = view_new.content_hash();

        let source_delta = doctor
            .translate_remote_delta("D13&D31", &view_delta)
            .expect("translate");
        doctor
            .apply_remote_delta("D13&D31", &view_delta, &source_delta, announced, 1)
            .expect("delta apply");
        model.receive("D13&D31", &view_new).expect("model receive");

        // Byte-identical end state, and the doctor's stored copy equals
        // what its source regenerates.
        assert_eq!(doctor.fingerprint().0, model.fingerprint());
        assert_eq!(doctor.db.table("D3").expect("D3"), model.source("D3"));
        assert_eq!(
            doctor.shared_table("D13&D31").expect("view"),
            doctor.regenerate_view("D13&D31").expect("regen")
        );
        assert!(!doctor.has_pending_change("D13&D31").expect("check"));
        doctor
            .check_share_integrity("D13&D31", announced)
            .expect("integrity");
    }

    #[test]
    fn delta_remote_apply_rejects_hash_mismatch_without_corruption() {
        let mut doctor = doctor_with_shares();
        let before = doctor.shared_hash("D23&D32").expect("hash");
        let view_delta = TableDelta {
            updates: vec![(
                vec![Value::text("Ibuprofen")],
                row!["Ibuprofen", "MeA1-new"],
            )],
            ..Default::default()
        };
        let source_delta = doctor
            .translate_remote_delta("D23&D32", &view_delta)
            .expect("translate");
        let err = doctor
            .apply_remote_delta("D23&D32", &view_delta, &source_delta, Hash256([9; 32]), 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::ConsistencyViolation(_)));
        assert_eq!(doctor.shared_hash("D23&D32").expect("hash"), before);
    }

    #[test]
    fn prepare_update_delta_falls_back_for_out_of_band_edits() {
        let mut doctor = doctor_with_shares();
        // Edit the source directly, bypassing write_source tracking.
        doctor
            .db
            .apply(
                "D3",
                WriteOp::Update {
                    key: vec![Value::Int(188)],
                    assignments: vec![("dosage".into(), Value::text("stop"))],
                },
            )
            .expect("edit source");
        let delta = doctor.prepare_update_delta("D13&D31").expect("prepare");
        assert_eq!(delta.updates.len(), 1);
        // The stored copy caught up and the pending delta is tracked.
        assert_eq!(
            doctor
                .shared_table("D13&D31")
                .expect("D31")
                .get(&[Value::Int(188)])
                .expect("row")[3],
            Value::text("stop")
        );
        assert!(doctor.has_pending_change("D13&D31").expect("check"));
        // Committing the delta advances the baseline and clears pending.
        doctor.commit_delta("D13&D31", &delta, 1).expect("commit");
        assert!(!doctor.has_pending_change("D13&D31").expect("check"));
        assert_eq!(
            doctor.shared_hash("D13&D31").expect("hash"),
            doctor.committed_hash("D13&D31").expect("hash")
        );
    }

    #[test]
    fn step6_overlap_detects_d31_d32_dependency() {
        let doctor = doctor_with_shares();
        // D31 and D32 share `medication_name` on D3.
        assert_eq!(
            doctor.overlapping_shares("D23&D32").expect("overlap"),
            vec!["D13&D31".to_string()]
        );
        assert_eq!(
            doctor.overlapping_shares("D13&D31").expect("overlap"),
            vec!["D23&D32".to_string()]
        );
    }

    #[test]
    fn step6_no_overlap_for_disjoint_lenses() {
        let mut doctor = PeerNode::new("Doctor", "disjoint", 8, PropagationMode::Delta, 1);
        doctor.add_source_table("D3", d3_table()).expect("add");
        doctor
            .join_share(
                "dose-share",
                PeerBinding {
                    source_table: "D3".into(),
                    lens: LensSpec::project(&["patient_id", "dosage"], &["patient_id"]),
                },
            )
            .expect("join");
        doctor
            .join_share(
                "mech-share",
                PeerBinding {
                    source_table: "D3".into(),
                    lens: LensSpec::project_distinct(
                        &["mechanism_of_action"],
                        &["mechanism_of_action"],
                    ),
                },
            )
            .expect("join");
        assert!(doctor
            .overlapping_shares("dose-share")
            .expect("overlap")
            .is_empty());
    }

    #[test]
    fn write_shared_round_trips_into_source() {
        let mut doctor = doctor_with_shares();
        doctor
            .write_shared(
                "D13&D31",
                WriteOp::Update {
                    key: vec![Value::Int(189)],
                    assignments: vec![("dosage".into(), Value::text("50 mg once"))],
                },
            )
            .expect("write shared");
        let d3 = doctor.db.table("D3").expect("D3");
        assert_eq!(
            d3.get(&[Value::Int(189)]).expect("row")[4],
            Value::text("50 mg once")
        );
    }

    #[test]
    fn write_source_rejects_shared_tables() {
        let mut doctor = doctor_with_shares();
        let err = doctor
            .write_source(
                "D13&D31",
                WriteOp::Delete {
                    key: vec![Value::Int(188)],
                },
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadAgreement(_)));
    }

    #[test]
    fn leave_share_cleans_up() {
        let mut doctor = doctor_with_shares();
        doctor.leave_share("D23&D32").expect("leave");
        assert_eq!(doctor.shares(), vec!["D13&D31"]);
        assert!(doctor.shared_table("D23&D32").is_err());
        assert!(doctor.leave_share("D23&D32").is_err());
    }

    /// Runs the same staged-write + remote-apply + commit sequence on a
    /// sharded and an unsharded doctor and asserts byte-identical state.
    fn run_mixed_sequence(doctor: &mut PeerNode) {
        doctor
            .write_shared(
                "D23&D32",
                WriteOp::Update {
                    key: vec![Value::text("Ibuprofen")],
                    assignments: vec![("mechanism_of_action".into(), Value::text("MeA1-x"))],
                },
            )
            .expect("write shared");
        let delta = doctor.prepare_update_delta("D23&D32").expect("prepare");
        doctor.commit_delta("D23&D32", &delta, 1).expect("commit");
        doctor
            .write_source(
                "D3",
                WriteOp::Update {
                    key: vec![Value::Int(188)],
                    assignments: vec![("dosage".into(), Value::text("2x daily"))],
                },
            )
            .expect("write source");
        let d31 = doctor.prepare_update_delta("D13&D31").expect("prepare 31");
        doctor.commit_delta("D13&D31", &d31, 1).expect("commit 31");
        // A committed remote delta on the patient share.
        let view_delta = TableDelta {
            updates: vec![(
                vec![Value::Int(188)],
                row![188i64, "Ibuprofen", "CliD1", "remote-dose"],
            )],
            ..Default::default()
        };
        let source_delta = doctor
            .translate_remote_delta("D13&D31", &view_delta)
            .expect("translate");
        let mut expected = committed_table(doctor, "D13&D31");
        expected.apply_delta(&view_delta).expect("expected");
        doctor
            .apply_remote_delta(
                "D13&D31",
                &view_delta,
                &source_delta,
                expected.content_hash(),
                2,
            )
            .expect("remote apply");
    }

    #[test]
    fn sharded_peer_is_byte_identical_to_unsharded() {
        for shards in [2usize, 8] {
            let mut plain = doctor_with_shares_sharded(1);
            let mut sharded = doctor_with_shares_sharded(shards);
            assert!(sharded.is_sharded("D13&D31"));
            assert!(!plain.is_sharded("D13&D31"));
            run_mixed_sequence(&mut plain);
            run_mixed_sequence(&mut sharded);
            assert_eq!(
                plain.fingerprint(),
                sharded.fingerprint(),
                "shards={shards}"
            );
            for table in ["D13&D31", "D23&D32"] {
                assert_eq!(
                    plain.shared_hash(table).expect("hash"),
                    sharded.shared_hash(table).expect("hash")
                );
                assert_eq!(
                    plain.committed_hash(table).expect("hash"),
                    sharded.committed_hash(table).expect("hash")
                );
                assert_eq!(
                    plain.pending_delta(table).expect("pending"),
                    sharded.pending_delta(table).expect("pending")
                );
                // The shard folds agree with hashing the assembled rows.
                assert_eq!(
                    sharded.shared_hash(table).expect("hash"),
                    sharded.shared_table(table).expect("table").content_hash()
                );
                assert_eq!(
                    sharded.committed_hash(table).expect("hash"),
                    committed_table(&sharded, table).content_hash()
                );
            }
        }
    }

    #[test]
    fn sharded_remote_apply_rejects_hash_mismatch_without_corruption() {
        let mut doctor = doctor_with_shares_sharded(8);
        let before = doctor.shared_hash("D13&D31").expect("hash");
        let view_delta = TableDelta {
            updates: vec![(
                vec![Value::Int(188)],
                row![188i64, "Ibuprofen", "CliD1", "bad-dose"],
            )],
            ..Default::default()
        };
        let source_delta = doctor
            .translate_remote_delta("D13&D31", &view_delta)
            .expect("translate");
        let err = doctor
            .apply_remote_delta("D13&D31", &view_delta, &source_delta, Hash256([9; 32]), 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::ConsistencyViolation(_)));
        assert_eq!(doctor.shared_hash("D13&D31").expect("hash"), before);
        assert_eq!(doctor.committed_hash("D13&D31").expect("hash"), before);
        assert_eq!(
            doctor
                .shared_table("D13&D31")
                .expect("table")
                .content_hash(),
            before
        );
    }

    /// A ward peer of 40 rows under one `select(True)` share named "ward".
    fn ward_peer(shards: usize, recorder: &Recorder) -> PeerNode {
        let mut ward = PeerNode::new("Ward", "gauge", 2, PropagationMode::Delta, shards);
        ward.set_recorder(recorder);
        let mut source = Table::new(d3_table().schema().clone());
        for pid in 0..40i64 {
            source
                .insert(row![pid, "Ibuprofen", "CliD", "MeA1", "1x"])
                .expect("insert");
        }
        ward.add_source_table("D3", source).expect("add D3");
        let binding = PeerBinding {
            source_table: "D3".into(),
            lens: LensSpec::select(medledger_relational::Predicate::True),
        };
        ward.join_share("ward", binding).expect("join");
        ward
    }

    #[test]
    fn resident_rows_gauge_reads_once_plus_one_per_undo_row() {
        use medledger_telemetry::Registry;
        for shards in [1usize, 4] {
            let registry = Registry::shared();
            let gauge = || registry.snapshot().gauge("peer.shared_rows_resident.Ward");
            let mut ward = ward_peer(shards, &Recorder::new(&registry));
            assert_eq!(gauge(), Some(40), "shards={shards}");
            // An uncommitted insert is one more stored row and displaces
            // no committed row; an uncommitted update keeps the one it
            // displaced, however often the key is rewritten.
            let row = row![40i64, "Ibuprofen", "CliD", "MeA1", "2x"];
            ward.write_shared("ward", WriteOp::Insert { row })
                .expect("insert");
            assert_eq!(gauge(), Some(41), "shards={shards}");
            for dose in ["3x", "4x"] {
                let op = WriteOp::Update {
                    key: vec![Value::Int(7)],
                    assignments: vec![("dosage".into(), Value::text(dose))],
                };
                ward.write_shared("ward", op).expect("update");
                assert_eq!(gauge(), Some(41 + 1), "shards={shards}");
            }
            // Committed: the store is the only copy again.
            let delta = ward.prepare_update_delta("ward").expect("prepare");
            ward.commit_delta("ward", &delta, 1).expect("commit");
            assert_eq!(ward.shared_table("ward").expect("view").len(), 41);
            assert_eq!(gauge(), Some(41), "shards={shards}");
            ward.leave_share("ward").expect("leave");
            assert_eq!(gauge(), Some(0));
        }
    }

    #[test]
    fn rollback_leaves_a_share_committed_in_the_meantime_alone() {
        // One wave, two members staged on one peer: the first commits,
        // the second is denied and rolls back afterwards. The rollback
        // must not bring back undo rows of the share that has committed.
        let mut ward = ward_peer(1, &Recorder::disabled());
        let other = ward.db.table("D3").expect("D3").clone();
        ward.add_source_table("D4", other).expect("add D4");
        let binding = PeerBinding {
            source_table: "D4".into(),
            lens: LensSpec::select(medledger_relational::Predicate::True),
        };
        ward.join_share("other", binding).expect("join");
        let set_dose = |dose: &str| WriteOp::Update {
            key: vec![Value::Int(7)],
            assignments: vec![("dosage".into(), Value::text(dose))],
        };
        ward.write_shared("ward", set_dose("2x")).expect("first");
        let denied = ward.write_shared("other", set_dose("3x")).expect("second");
        let delta = ward.prepare_update_delta("ward").expect("prepare");
        ward.commit_delta("ward", &delta, 1).expect("commit");
        let committed = ward.shared_hash("ward").expect("hash");
        ward.rollback_writes(&denied);
        assert_eq!(ward.committed_hash("ward").expect("hash"), committed);
        for share in ["ward", "other"] {
            assert!(!ward.has_pending_change(share).expect("check"), "{share}");
            assert!(ward.shared[share].undo.is_empty(), "{share}");
        }
        assert_eq!(ward.baseline_inverses(), Vec::new());
    }

    #[test]
    fn corrupt_committed_row_fails_integrity_with_and_without_undo_rows() {
        for shards in [1usize, 4] {
            let mut ward = ward_peer(shards, &Recorder::disabled());
            let contract_hash = ward.shared_hash("ward").expect("hash");
            ward.check_share_integrity("ward", contract_hash)
                .expect("clean at rest");
            // A pending change elsewhere does not hide the committed state…
            let pending = WriteOp::Update {
                key: vec![Value::Int(7)],
                assignments: vec![("dosage".into(), Value::text("9x"))],
            };
            ward.write_shared("ward", pending).expect("pending write");
            ward.check_share_integrity("ward", contract_hash)
                .expect("clean under a pending change");
            // …and a stored row damaged behind the tracked paths, at a key
            // no pending change covers, fails the check either way.
            for with_undo in [true, false] {
                if !with_undo {
                    let delta = ward.prepare_update_delta("ward").expect("prepare");
                    ward.commit_delta("ward", &delta, 1).expect("commit");
                }
                let committed = ward.committed_hash("ward").expect("hash");
                ward.check_share_integrity("ward", committed)
                    .expect("clean");
                let damage = TableDelta {
                    updates: vec![(
                        vec![Value::Int(3)],
                        row![3i64, "Ibuprofen", "CliD", "MeA1", "tampered"],
                    )],
                    ..Default::default()
                };
                let store = &mut ward.shared.get_mut("ward").expect("share").store;
                let repair = store.apply_delta(&damage).expect("damage");
                let err = ward
                    .check_share_integrity("ward", committed)
                    .expect_err("damage must be detected");
                assert!(
                    matches!(err, CoreError::ConsistencyViolation(_)),
                    "shards={shards} with_undo={with_undo}"
                );
                let store = &mut ward.shared.get_mut("ward").expect("share").store;
                store.apply_delta(&repair).expect("repair");
            }
        }
    }

    #[test]
    fn cached_group_index_tracks_applied_deltas() {
        let mut doctor = doctor_with_shares();
        // The ProjectDistinct share got an index at join time.
        assert!(doctor.group_indexes.contains_key("D23&D32"));
        assert!(!doctor.group_indexes.contains_key("D13&D31"));
        doctor
            .write_source(
                "D3",
                WriteOp::Insert {
                    row: row![190i64, "Ibuprofen", "CliD9", "MeA1", "3x"],
                },
            )
            .expect("insert");
        let rebuilt = GroupIndex::build(
            doctor.db.table("D3").expect("D3"),
            &["medication_name".to_string()],
        )
        .expect("rebuild");
        // The index is fresh (advanced, not rebuilt) and correct.
        assert!(doctor.fresh_group_index("D23&D32").is_some());
        let cached = &doctor.group_indexes["D23&D32"].1;
        assert_eq!(cached.group_count(), rebuilt.group_count());
        let ibu = cached
            .rows_of(&[Value::text("Ibuprofen")])
            .expect("group present");
        assert_eq!(ibu.len(), 2);
        assert!(ibu.contains(&vec![Value::Int(190)]));
        // And indexed translation agrees with a fresh (uncached) path.
        let view_delta = TableDelta {
            deletes: vec![vec![Value::text("Wellbutrin")]],
            ..Default::default()
        };
        let indexed = doctor
            .translate_remote_delta("D23&D32", &view_delta)
            .expect("indexed translate");
        let fresh = incremental::put_delta(
            &doctor.bindings["D23&D32"].lens,
            doctor.db.table("D3").expect("D3"),
            &view_delta,
        )
        .expect("uncached translate");
        assert_eq!(indexed, fresh);
    }

    #[test]
    fn out_of_band_source_edit_never_uses_a_stale_group_index() {
        let mut doctor = doctor_with_shares();
        // Edit the source directly, bypassing the tracked write paths —
        // a supported flow (see prepare_update_delta). The cached index
        // has not seen patient 191 join the Wellbutrin group.
        doctor
            .db
            .apply(
                "D3",
                WriteOp::Insert {
                    row: row![191i64, "Wellbutrin", "CliD9", "MeA2", "50 mg"],
                },
            )
            .expect("out-of-band insert");
        assert!(
            doctor.fresh_group_index("D23&D32").is_none(),
            "version guard must flag the index stale"
        );
        // Translating a whole-group delete must still cover BOTH members
        // (189 and the out-of-band 191) — the stale index is bypassed.
        let view_delta = TableDelta {
            deletes: vec![vec![Value::text("Wellbutrin")]],
            ..Default::default()
        };
        let translated = doctor
            .translate_remote_delta("D23&D32", &view_delta)
            .expect("translate");
        assert!(translated.deletes.contains(&vec![Value::Int(189)]));
        assert!(translated.deletes.contains(&vec![Value::Int(191)]));
        // The next tracked source apply rebuilds the index from ground
        // truth and re-stamps it fresh.
        doctor
            .write_source(
                "D3",
                WriteOp::Update {
                    key: vec![Value::Int(188)],
                    assignments: vec![("dosage".into(), Value::text("1x"))],
                },
            )
            .expect("tracked write");
        assert!(doctor.fresh_group_index("D23&D32").is_some());
        let idx = &doctor.group_indexes["D23&D32"].1;
        assert!(idx
            .rows_of(&[Value::text("Wellbutrin")])
            .expect("group")
            .contains(&vec![Value::Int(191)]));
    }

    #[test]
    fn nonce_allocation_is_sequential() {
        let mut p = PeerNode::new("P", "nonce", 4, PropagationMode::Delta, 1);
        assert_eq!(p.take_nonce(), 0);
        assert_eq!(p.take_nonce(), 1);
        assert_eq!(p.take_nonce(), 2);
    }

    #[test]
    fn full_records_schema_available() {
        // Sanity: the workload schema matches what peers expect to split.
        let s = full_records_schema();
        assert_eq!(s.arity(), 7);
        let mut p = PeerNode::new("P", "schema", 4, PropagationMode::Delta, 1);
        p.add_source_table("full", Table::new(s)).expect("create");
        p.db.apply(
            "full",
            WriteOp::Insert {
                row: row![1i64, "m", "c", "a", "d", "me", "mo"],
            },
        )
        .expect("insert");
    }
}
