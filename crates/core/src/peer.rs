//! Peer nodes: a stakeholder's client, server app and database manager.

use crate::agreement::PeerBinding;
use crate::error::CoreError;
use crate::Result;
use medledger_bx::{analysis, exec, incremental, GroupIndex, LensSpec};
use medledger_crypto::{Hash256, KeyPair};
use medledger_ledger::AccountId;
use medledger_relational::{
    delta_from_write_op, diff_tables, fingerprint_of, Database, KeyedRows, RelationalError, Row,
    Schema, ShardMap, Table, TableDelta, Value, WriteOp,
};
use medledger_telemetry::{GaugeHandle, Recorder};
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

/// One shared table as a peer holds it: the rows exist once, in `store`.
/// The last *committed* version is not a second copy but a view
/// ([`Baseline`]): the store, read through `undo` at the keys where it
/// has moved on.
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

    /// The committed view materialized: a clone of the stored table (warm
    /// digest caches included) rewound by `undo`. O(table) — for the
    /// conflict path and for hashing a baseline that has pending rows
    /// over it; everything else reads [`Baseline`].
    fn committed(&self) -> Result<Table> {
        let mut table = self.store.table().clone();
        table.apply_delta(&self.rewind())?;
        Ok(table)
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

fn unknown_share(table_id: &str) -> CoreError {
    CoreError::UnknownShare(table_id.to_string())
}

/// A peer (Patient, Doctor, Researcher, …) in the Fig. 2 architecture.
///
/// The peer's [`Database`] holds its *source* tables (full local data)
/// and the mutation log of everything the peer stores. Every shared
/// table it participates in is materialized once, as a stored copy in a
/// [`ShardMap`]; each mutation of the stored copy is logged in `db`
/// under the shared table id with its content hash as `post_hash`, and
/// the committed rows it displaced are kept as **undo rows** — which
/// make the committed baseline a view ([`PeerNode::baseline`]) and the
/// composed local changes since it ([`PeerNode::pending_delta`], what
/// the next propagation ships) an O(changed rows) read.
///
/// The **database manager** methods are the paper's "BX" boxes: they
/// push row-level deltas through the lenses (`get_delta` / `put_delta`).
/// They are the only writers of the peer's tables — [`PeerNode::db`]
/// is read-only — so the derived structures (undo rows, group indexes,
/// the log) never fall behind the rows they are derived from.
#[derive(Clone, Debug)]
pub struct PeerNode {
    /// Human-readable name ("Patient", "Doctor", …).
    pub name: String,
    /// Ledger account (also the public signing key).
    pub account: AccountId,
    /// Signing keys for ledger transactions.
    pub keys: KeyPair,
    /// Local database: the source tables, plus the mutation log of every
    /// table the peer stores (shared ones included — their rows live in
    /// `shared`).
    db: Database,
    /// Shared-table bindings this peer participates in.
    bindings: BTreeMap<String, PeerBinding>,
    /// Per shared table: the stored copy and its undo rows.
    shared: BTreeMap<String, SharedTable>,
    /// Cached `bx` group indexes, one per `ProjectDistinct` binding
    /// (keyed by shared table id), advanced with every applied source
    /// delta — the O(group) hot path for group-lens translation.
    group_indexes: BTreeMap<String, GroupIndex>,
    /// Last applied version per shared table (mirror of contract state).
    pub applied_versions: BTreeMap<String, u64>,
    /// Next ledger nonce.
    pub next_nonce: u64,
    /// Live-telemetry handle (no-op unless a registry is installed via
    /// [`crate::System::set_recorder`]): feeds the `shard.heat` apply
    /// heat map from this peer's stored copies.
    telemetry: Recorder,
    /// `peer.shared_rows_resident.<name>`: rows held across every stored
    /// copy, plus the committed rows kept for undo.
    resident_rows: GaugeHandle,
}

impl PeerNode {
    /// Creates a peer with a deterministic key derived from `name` and
    /// `seed`, able to sign `key_capacity` transactions. The last two
    /// arguments carry no information: they are a compile fence, as
    /// [`PropagationMode`]'s docs describe — the frozen `benchmark/`
    /// passes a mode and a shard count, and every peer stores each
    /// shared table as one table.
    pub fn new(
        name: impl Into<String>,
        seed: &str,
        key_capacity: usize,
        _mode: PropagationMode,
        _shards_per_table: usize,
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
    /// rows at rest — plus one per committed row an uncommitted change
    /// keeps for undo.
    fn publish_resident_rows(&self) {
        if self.resident_rows.is_enabled() {
            let held = |t: &SharedTable| t.store.table().len() + t.undo.values().flatten().count();
            self.resident_rows
                .set(self.shared.values().map(held).sum::<usize>() as u64);
        }
    }

    /// The local database, read-only: its source tables and the mutation
    /// log. Every write goes through this peer's methods.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Drops log records below `upto` once durable storage holds them
    /// (see [`Database::truncate_log`]).
    pub(crate) fn truncate_log(&mut self, upto: u64) {
        self.db.truncate_log(upto);
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
            let idx = GroupIndex::build(source, view_key)?;
            self.group_indexes.insert(table_id.to_string(), idx);
        }
        let mut store = ShardMap::new(view);
        wire_shard_heat(&self.telemetry, table_id, &mut store);
        let hash = store.content_hash();
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

    /// `get_delta` through `share_id`'s lens, using the cached group
    /// index when the binding is a `ProjectDistinct`.
    fn get_delta_for_share(
        &self,
        share_id: &str,
        source_old: &Table,
        source_delta: &TableDelta,
    ) -> Result<TableDelta> {
        let lens = &self.binding(share_id)?.lens;
        Ok(match self.group_indexes.get(share_id) {
            Some(idx) => incremental::get_delta_indexed(lens, source_old, source_delta, idx)?,
            None => incremental::get_delta(lens, source_old, source_delta)?,
        })
    }

    /// `put_delta` through `share_id`'s lens, using the cached group
    /// index when the binding is a `ProjectDistinct`.
    fn put_delta_for_share(
        &self,
        share_id: &str,
        source: &Table,
        view_delta: &TableDelta,
    ) -> Result<TableDelta> {
        let lens = &self.binding(share_id)?.lens;
        Ok(match self.group_indexes.get(share_id) {
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

    /// Advances every cached group index bound to `source_table` past
    /// `delta`. Must run while the pre-delta source is still in `db`.
    fn advance_group_indexes(&mut self, source_table: &str, delta: &TableDelta) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        let source_old = self.db.table(source_table)?;
        for (id, binding) in &self.bindings {
            if binding.source_table == source_table {
                if let Some(idx) = self.group_indexes.get_mut(id) {
                    idx.apply_source_delta(source_old, delta)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the cached group indexes of every `ProjectDistinct`
    /// binding on `source_table` from the current source contents — after
    /// a source delta the table refused, which the indexes had already
    /// advanced past.
    fn rebuild_group_indexes_for_source(&mut self, source_table: &str) -> Result<()> {
        for id in self.indexed_shares_of(source_table) {
            if let LensSpec::ProjectDistinct { view_key, .. } = &self.binding(&id)?.lens {
                let idx = GroupIndex::build(self.db.table(source_table)?, view_key)?;
                self.group_indexes.insert(id, idx);
            }
        }
        Ok(())
    }

    /// Applies an **uncommitted** delta to a shared table's stored copy
    /// and logs it — the one funnel of every store change the chain has
    /// not committed, so the committed rows it displaces are kept here.
    /// Returns the inverse. A rejected delta leaves the store untouched
    /// and unlogged. The WAL `post_hash` is the store's incremental
    /// content hash.
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

    /// Applies a delta to a **source** table, advancing the cached group
    /// indexes in step (O(delta)). Returns the inverse.
    fn apply_source_delta_db(
        &mut self,
        source_table: &str,
        delta: &TableDelta,
    ) -> Result<TableDelta> {
        self.advance_group_indexes(source_table, delta)?;
        self.db.apply_delta(source_table, delta).or_else(|e| {
            // The indexes advanced past a delta the table refused —
            // re-derive them before surfacing.
            self.rebuild_group_indexes_for_source(source_table)?;
            Err(e.into())
        })
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

    /// The stored (materialized) copy of a shared table, as the peer
    /// keeps it: keyed lookup, iteration and the content hash without
    /// copying anything.
    pub fn shared_store(&self, table_id: &str) -> Result<&ShardMap> {
        Ok(&self.shared(table_id)?.store)
    }

    /// A copy of the stored shared table.
    pub fn shared_table(&self, table_id: &str) -> Result<Table> {
        Ok(self.shared_store(table_id)?.table().clone())
    }

    /// A copy of a local table by name: a source table, or the stored
    /// copy of a shared one.
    pub fn read_table(&self, name: &str) -> Result<Table> {
        match self.shared.get(name) {
            Some(shared) => Ok(shared.store.table().clone()),
            None => Ok(self.db.table(name)?.clone()),
        }
    }

    /// Content hash of the stored shared copy, refolding only the paths
    /// touched since the last call.
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

    /// Fig. 5 step 1: the delta this peer would propagate for
    /// `table_id` — its pending delta. Every write goes through this
    /// peer's methods, which keep the stored copy in step with the
    /// source, so the stored copy already reflects it.
    pub fn prepare_update_delta(&self, table_id: &str) -> Result<TableDelta> {
        self.pending_delta(table_id)
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
    /// applies the view delta to the stored copy
    /// ([`ShardMap::apply_delta`]), verifies the announced hash against
    /// its incremental content hash, reflects the change into the source
    /// with the pre-computed `source_delta`, and refreshes sibling shares
    /// (their deltas stay pending for the step-6 cascade). The store is touched
    /// once: with no undo rows over it, it *is* the committed baseline.
    /// A rejected or hash-mismatched delta leaves the peer untouched.
    ///
    /// A peer with a pending change of `table_id` resolves through the
    /// whole-table merge instead: the remote view wins, and a residual
    /// local difference survives as a pending delta of a sibling share.
    pub fn apply_remote_delta(
        &mut self,
        table_id: &str,
        view_delta: &TableDelta,
        source_delta: &TableDelta,
        announced_hash: Hash256,
        version: u64,
    ) -> Result<()> {
        let source_table = self.binding(table_id)?.source_table.clone();
        if self.has_pending_change(table_id)? {
            return self.resolve_conflicting_remote(table_id, view_delta, announced_hash, version);
        }
        // Anchored on the pre-delta source.
        let derived = self.derive_sibling_deltas(&source_table, Some(table_id), source_delta)?;
        let shared = self.shared_mut(table_id)?;
        let inverse = shared.store.apply_delta(view_delta)?;
        if shared.store.content_hash() != announced_hash {
            // Corrupt or stale delta: restore the stored copy and refuse.
            shared.store.apply_delta(&inverse)?;
            return Err(CoreError::ConsistencyViolation(format!(
                "applying the `{table_id}` delta does not reproduce the hash the \
                 contract announced ({})",
                announced_hash.short()
            )));
        }
        // Nothing was pending, so any undo rows left are ones the store
        // had already returned to: the store is the baseline.
        shared.undo.clear();
        let op = WriteOp::Delta {
            delta: view_delta.clone(),
        };
        self.db.log_external(table_id, op, announced_hash);
        if !source_delta.is_empty() {
            self.apply_source_delta_db(&source_table, source_delta)?;
        }
        for (share_id, d) in derived {
            self.apply_view_delta(&share_id, &d)?;
        }
        self.applied_versions.insert(table_id.to_string(), version);
        self.publish_resident_rows();
        Ok(())
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
        let mut view_new = self.shared(table_id)?.committed()?;
        view_new.apply_delta(view_delta).map_err(|e| {
            CoreError::ConsistencyViolation(format!(
                "committed `{table_id}` delta does not apply to the committed baseline: {e}"
            ))
        })?;
        // Rows in key order, so the logged rewrite does not depend on the
        // order of earlier applies. Verified before any mutation: a
        // corrupt delta leaves the peer untouched.
        let rows = view_new.sorted_rows().into_iter().cloned().collect();
        let view_new = Table::from_rows(view_new.schema().clone(), rows)?;
        self.apply_remote_view(table_id, &view_new, announced_hash, version)
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
    /// the change into the source via `put`, replaces the stored copy
    /// (then the committed baseline) and re-derives every sibling share
    /// from the new source, so a residual local difference survives as a
    /// pending delta.
    ///
    /// All of it or none: the `put`, every sibling's `get` (a group lens
    /// refuses a source that breaks its functional dependency) and every
    /// group index run on the new source before anything is written, so
    /// a refused view leaves source, stores, undo rows, log and indexes
    /// as they were.
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
        let binding = self.binding(table_id)?;
        let source_table = binding.source_table.clone();
        let new_source = exec::put(&binding.lens, self.db.table(&source_table)?, new_view)?;
        let mut siblings = Vec::new();
        for share_id in self.sibling_shares(&source_table, Some(table_id)) {
            let view = exec::get(&self.binding(&share_id)?.lens, &new_source)?;
            siblings.push((share_id, view));
        }
        let mut indexes = Vec::new();
        for id in self.indexed_shares_of(&source_table) {
            if let LensSpec::ProjectDistinct { view_key, .. } = &self.binding(&id)?.lens {
                indexes.push((id, GroupIndex::build(&new_source, view_key)?));
            }
        }

        let src_rows: Vec<Row> = new_source.rows().cloned().collect();
        self.db
            .apply(&source_table, WriteOp::Replace { rows: src_rows })?;
        self.group_indexes.extend(indexes);
        let shared = self.shared_mut(table_id)?;
        shared.store.rebuild_from(new_view);
        shared.undo.clear();
        let post_hash = shared.store.content_hash();
        let rows: Vec<Row> = new_view.rows().cloned().collect();
        self.db
            .log_external(table_id, WriteOp::Replace { rows }, post_hash);
        self.applied_versions.insert(table_id.to_string(), version);
        for (share_id, view) in siblings {
            let stored_delta = diff_tables(self.shared_store(&share_id)?, &view);
            if !stored_delta.is_empty() {
                self.apply_view_delta(&share_id, &stored_delta)?;
            }
        }
        self.publish_resident_rows();
        Ok(())
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
        let source_schema = self.db.table(&binding.source_table)?.schema();
        let siblings: Vec<_> = self
            .bindings
            .iter()
            .filter(|(id, b)| *id != table_id && b.source_table == binding.source_table)
            .collect();
        // A lone binding has nothing to overlap; `join_share` already ran
        // its lens on this source, so skipping the analysis hides no error.
        if siblings.is_empty() {
            return Ok(Vec::new());
        }
        let base = analysis::analyze(&binding.lens, source_schema)?;
        let mut out = Vec::new();
        for (other_id, other_binding) in siblings {
            let other = analysis::analyze(&other_binding.lens, source_schema)?;
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

    /// The stored table of each share, by table id. With the database's
    /// own tables these are the `tables` section of a storage snapshot.
    pub(crate) fn stored_copies(&self) -> impl ExactSizeIterator<Item = (&String, &Table)> {
        self.shared
            .iter()
            .map(|(id, shared)| (id, shared.store.table()))
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
    /// into its stored copy, the recorded inverse becomes its undo rows
    /// (recovery then checks the baseline they imply against the
    /// contract), and the group indexes rebuild from ground truth.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_from_parts(
        name: &str,
        seed: &str,
        key_capacity: usize,
        db: Database,
        bindings: BTreeMap<String, PeerBinding>,
        baseline_inverses: &[(String, TableDelta)],
        applied_versions: BTreeMap<String, u64>,
        next_nonce: u64,
        keys_used: u64,
    ) -> Result<PeerNode> {
        let mode = PropagationMode::Delta;
        let mut peer = PeerNode::new(name, seed, key_capacity, mode, 1);
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
            let store = ShardMap::new(stored);
            let mut shared = SharedTable {
                store,
                undo: Undo::new(),
            };
            if let Some(inverse) = inverses.get(table_id.as_str()) {
                shared.note_undo(inverse);
            }
            peer.shared.insert(table_id.clone(), shared);
            if let LensSpec::ProjectDistinct { view_key, .. } = &binding.lens {
                let idx = GroupIndex::build(peer.db.table(&binding.source_table)?, view_key)?;
                peer.group_indexes.insert(table_id.clone(), idx);
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
    use proptest::prelude::*;

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

    /// D3 with a nullable mechanism: a row the patient share's lens
    /// inserts gets a NULL there instead of being refused.
    fn d3_nullable_mechanism() -> Table {
        use medledger_relational::{Column, ValueType};
        let column = |name: &str| match name {
            "patient_id" => Column::new(name, ValueType::Int),
            "mechanism_of_action" => Column::nullable(name, ValueType::Text),
            _ => Column::new(name, ValueType::Text),
        };
        let d3 = d3_table();
        let columns = d3.schema().column_names().into_iter().map(column).collect();
        let schema = Schema::new(columns, &["patient_id"]).expect("schema");
        Table::from_rows(schema, d3.rows().cloned().collect()).expect("D3")
    }

    /// The Doctor of Fig. 1 over `d3`, sharing it with the Patient and the
    /// Researcher.
    fn doctor_over(d3: Table) -> PeerNode {
        let mut doctor = PeerNode::new("Doctor", "peer-test", 16, PropagationMode::Delta, 1);
        doctor.add_source_table("D3", d3).expect("add D3");
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
        doctor_over(d3_table())
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
        let mut doctor = doctor_with_shares();
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
        assert_eq!(doctor.fingerprint(), before_fp);
        assert_eq!(
            doctor.shared_hash("D23&D32").expect("hash"),
            doctor.committed_hash("D23&D32").expect("hash")
        );
        assert!(!doctor.has_pending_change("D23&D32").expect("check"));
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
        let binding = doctor.binding("D13&D31").expect("binding");
        let source = doctor.db.table(&binding.source_table).expect("source");
        assert_eq!(
            doctor.shared_table("D13&D31").expect("view"),
            exec::get(&binding.lens, source).expect("regen")
        );
        assert!(!doctor.has_pending_change("D13&D31").expect("check"));
        doctor
            .check_share_integrity("D13&D31", announced)
            .expect("integrity");
    }

    #[test]
    fn failed_conflict_resolution_changes_nothing() {
        // A second Ibuprofen patient (190), committed; then patient 188
        // leaves D3 locally — a pending delete on the patient share.
        let mut doctor = doctor_over(d3_nullable_mechanism());
        let row = row![190i64, "Ibuprofen", "CliD3", "MeA1", "1x"];
        doctor
            .write_source("D3", WriteOp::Insert { row })
            .expect("190");
        let delta = doctor.prepare_update_delta("D13&D31").expect("prepare");
        doctor.commit_delta("D13&D31", &delta, 1).expect("commit");
        let key = vec![Value::Int(188)];
        doctor
            .write_source("D3", WriteOp::Delete { key })
            .expect("188");
        assert!(doctor.has_pending_change("D13&D31").expect("check"));

        // A committed remote update built on the committed baseline, which
        // still holds 188: the conflict path's whole-view `put` re-creates
        // 188 with a NULL mechanism beside 190's MeA1, so the Ibuprofen
        // group breaks the FD the research share's lens stands on.
        let view_delta = TableDelta {
            updates: vec![(
                vec![Value::Int(189)],
                row![189i64, "Wellbutrin", "CliD2", "remote-dose"],
            )],
            ..Default::default()
        };
        let mut view_new = committed_table(&doctor, "D13&D31");
        view_new.apply_delta(&view_delta).expect("view");
        let source_delta =
            (doctor.translate_remote_delta("D13&D31", &view_delta)).expect("translate");
        let state = |p: &PeerNode| {
            let shares = ["D13&D31", "D23&D32"];
            let stores: Vec<Table> = shares.map(|s| p.shared_table(s).expect("store")).into();
            let undo: Vec<Undo> = shares.map(|s| p.shared[s].undo.clone()).into();
            let indexes = format!("{:?}", p.group_indexes);
            let versions = p.applied_versions.clone();
            (
                p.fingerprint(),
                stores,
                undo,
                p.db.log().to_vec(),
                indexes,
                versions,
            )
        };
        let before = state(&doctor);
        let announced = view_new.content_hash();
        (doctor.apply_remote_delta("D13&D31", &view_delta, &source_delta, announced, 2))
            .expect_err("the FD violation is refused");
        assert_eq!(state(&doctor), before);
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

    /// A ward peer of 40 rows under one `select(True)` share named "ward".
    fn ward_peer(recorder: &Recorder) -> PeerNode {
        let mut ward = PeerNode::new("Ward", "gauge", 2, PropagationMode::Delta, 1);
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
        let registry = Registry::shared();
        let gauge = || registry.snapshot().gauge("peer.shared_rows_resident.Ward");
        let mut ward = ward_peer(&Recorder::new(&registry));
        assert_eq!(gauge(), Some(40));
        // An uncommitted insert is one more stored row and displaces
        // no committed row; an uncommitted update keeps the one it
        // displaced, however often the key is rewritten.
        let row = row![40i64, "Ibuprofen", "CliD", "MeA1", "2x"];
        ward.write_shared("ward", WriteOp::Insert { row })
            .expect("insert");
        assert_eq!(gauge(), Some(41));
        for dose in ["3x", "4x"] {
            let op = WriteOp::Update {
                key: vec![Value::Int(7)],
                assignments: vec![("dosage".into(), Value::text(dose))],
            };
            ward.write_shared("ward", op).expect("update");
            assert_eq!(gauge(), Some(41 + 1));
        }
        // Committed: the store is the only copy again.
        let delta = ward.prepare_update_delta("ward").expect("prepare");
        ward.commit_delta("ward", &delta, 1).expect("commit");
        assert_eq!(ward.shared_table("ward").expect("view").len(), 41);
        assert_eq!(gauge(), Some(41));
        ward.leave_share("ward").expect("leave");
        assert_eq!(gauge(), Some(0));
    }

    #[test]
    fn rollback_leaves_a_share_committed_in_the_meantime_alone() {
        // One wave, two members staged on one peer: the first commits,
        // the second is denied and rolls back afterwards. The rollback
        // must not bring back undo rows of the share that has committed.
        let mut ward = ward_peer(&Recorder::disabled());
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
        let mut ward = ward_peer(&Recorder::disabled());
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
                "with_undo={with_undo}"
            );
            let store = &mut ward.shared.get_mut("ward").expect("share").store;
            store.apply_delta(&repair).expect("repair");
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
        // The index advanced and is correct.
        let cached = &doctor.group_indexes["D23&D32"];
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

    /// Every `ProjectDistinct` share's cached index equals a rebuild over
    /// the current source, and every stored copy equals what its lens
    /// reads off the source.
    fn check_derived_state(peer: &PeerNode) -> std::result::Result<(), TestCaseError> {
        for (share, binding) in &peer.bindings {
            let source = peer.db.table(&binding.source_table).expect("source");
            let (store, view) = (peer.shared_table(share), exec::get(&binding.lens, source));
            let (store, view) = (store.expect("store"), view.expect("get"));
            prop_assert!(
                store == view,
                "`{share}` stores {store:?}, its lens reads {view:?}"
            );
            if let LensSpec::ProjectDistinct { view_key, .. } = &binding.lens {
                let rebuilt = GroupIndex::build(source, view_key).expect("build");
                let cached = &peer.group_indexes[share];
                let (cached, rebuilt) = (format!("{cached:?}"), format!("{rebuilt:?}"));
                prop_assert!(
                    cached == rebuilt,
                    "`{share}` index {cached} != rebuild {rebuilt}"
                );
            }
        }
        Ok(())
    }

    /// A committed remote update of one row (one group) of `share`, built
    /// on the committed baseline: `(view delta, announced hash)`. `None`
    /// when the baseline does not hold `key`.
    fn remote_update(
        peer: &PeerNode,
        share: &str,
        key: Value,
        value: &str,
    ) -> Option<(TableDelta, Hash256)> {
        let mut view = committed_table(peer, share);
        let column = if share == "D13&D31" { 3 } else { 1 };
        let mut row = view.get(std::slice::from_ref(&key))?.clone();
        *row.get_mut(column)? = Value::text(value);
        let delta = TableDelta {
            updates: vec![(vec![key], row)],
            ..Default::default()
        };
        view.apply_delta(&delta).ok()?;
        Some((delta, view.content_hash()))
    }

    /// One step of a random script over the Fig. 1 doctor, through the
    /// peer's own methods only; a step the peer refuses is skipped.
    fn run_step(
        peer: &mut PeerNode,
        staged: &mut Vec<Vec<(String, TableDelta)>>,
        step: (u8, u64, u64),
    ) {
        const MEDS: [&str; 3] = ["Ibuprofen", "Wellbutrin", "Metformin"];
        let (op, a, b) = step;
        let pid = Value::Int(186 + a as i64);
        let med = MEDS[b as usize % MEDS.len()];
        let share = ["D13&D31", "D23&D32"][a as usize % 2];
        let set = |column: &str, value: String| vec![(column.to_string(), Value::text(value))];
        let written = match op {
            0 => {
                // Join the group's mechanism, or (b = 3) break the FD.
                let group = peer.shared_store("D23&D32").expect("D32");
                let mech = match group.get(&[Value::text(med)]) {
                    Some(row) if b != 3 => row[1].clone(),
                    _ => Value::text(format!("MeA-{b}")),
                };
                let row = Row::new(vec![
                    pid,
                    Value::text(med),
                    Value::text("CliD"),
                    mech,
                    Value::text("1x"),
                ]);
                peer.write_source("D3", WriteOp::Insert { row })
            }
            1 => {
                let column = ["dosage", "clinical_data", "mechanism_of_action"][b as usize % 3];
                let op = WriteOp::Update {
                    key: vec![pid],
                    assignments: set(column, format!("v{b}")),
                };
                peer.write_source("D3", op)
            }
            2 => peer.write_source("D3", WriteOp::Delete { key: vec![pid] }),
            3 => {
                let op = WriteOp::Update {
                    key: vec![pid],
                    assignments: set("dosage", format!("s{b}")),
                };
                peer.write_shared("D13&D31", op)
            }
            4 => {
                let assignments = set("mechanism_of_action", format!("MeS-{a}"));
                let op = WriteOp::Update {
                    key: vec![Value::text(med)],
                    assignments,
                };
                peer.write_shared("D23&D32", op)
            }
            5 => {
                if let Some(inverses) = staged.pop() {
                    peer.rollback_writes(&inverses);
                }
                return;
            }
            6 => {
                let delta = peer.prepare_update_delta(share).expect("pending");
                if !delta.is_empty() {
                    let version = peer.applied_versions[share] + 1;
                    peer.commit_delta(share, &delta, version).expect("commit");
                    staged.clear();
                }
                return;
            }
            _ => {
                // A remote update, with or without a pending change of
                // `share` (the latter is the conflict path).
                let key = if share == "D13&D31" {
                    pid
                } else {
                    Value::text(med)
                };
                let Some((delta, announced)) = remote_update(peer, share, key, &format!("r{b}"))
                else {
                    return;
                };
                let Ok(source_delta) = peer.translate_remote_delta(share, &delta) else {
                    return;
                };
                let version = peer.applied_versions[share] + 1;
                if peer
                    .apply_remote_delta(share, &delta, &source_delta, announced, version)
                    .is_ok()
                {
                    staged.clear();
                }
                return;
            }
        };
        staged.extend(written.ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After every in-band step of a random script — source and
        /// shared writes, rollbacks, commits, remote applies with and
        /// without a pending change — the cached group indexes and the
        /// stored copies equal what a rebuild from the source gives.
        #[test]
        fn group_indexes_and_stores_track_random_scripts(
            script in proptest::collection::vec((0u8..8, 0u64..6, 0u64..4), 1..24),
        ) {
            let mut doctor = doctor_over(d3_nullable_mechanism());
            let mut staged = Vec::new();
            for &step in &script {
                run_step(&mut doctor, &mut staged, step);
                check_derived_state(&doctor)?;
            }
        }
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
