//! Key-range sharding of a table, aligned with the chunked content digest.
//!
//! [`Table::content_hash`] already partitions a table's rows into
//! key-addressed chunks (top bits of the key digest route a row to its
//! chunk). A [`ShardMap`] splits the *stored rows* along the same digest
//! ranges: shard `s` of `S` holds exactly the keys whose digests route to
//! it, and — because both chunk and shard counts are powers of two with
//! top-bit routing — every shard owns a **contiguous run of chunks** of
//! the content digest. Two consequences fall out:
//!
//! * **Routing**: a [`TableDelta`] splits into per-shard sub-deltas
//!   ([`TableDelta::split_by_shard`]); applying an update touches only
//!   the shards its rows land in, and disjoint shards can apply in
//!   parallel (each shard is its own little table plus digest state).
//! * **Hashing**: each shard's fragment table keeps its digest tree
//!   under the *map-wide* chunk layout, so the fold over the shard's
//!   chunk run is a subtree of the unsharded fold. The map-level
//!   [`ShardMap::content_hash`] folds the per-shard subroots —
//!   byte-identical to the unsharded [`Table::content_hash`] (both use
//!   the same digest tree and root formula) — and a touched shard
//!   refolds only the dirty paths of its subtree.
//!
//! The shard count is a deployment knob (power of two, `1` = unsharded
//! behavior); [`shard_of_key`] is deterministic in the key alone, so two
//! peers sharding the same table always agree on placement.
//!
//! ```
//! use medledger_relational::{row, shard::ShardMap, Column, Schema, Table, ValueType};
//!
//! let schema = Schema::new(
//!     vec![
//!         Column::new("patient_id", ValueType::Int),
//!         Column::new("dosage", ValueType::Text),
//!     ],
//!     &["patient_id"],
//! )
//! .unwrap();
//! let mut table = Table::new(schema);
//! for pid in 0..100i64 {
//!     table.insert(row![pid, "10 mg"]).unwrap();
//! }
//! let sharded = ShardMap::from_table(&table, 8);
//! // The folded per-shard root is byte-identical to the plain table hash.
//! assert_eq!(sharded.content_hash(), table.content_hash());
//! ```

use crate::delta::{KeyedRows, TableDelta};
use crate::digest::{
    chunk_count_for, chunk_digest, chunk_of_route, fold_content_root, key_route, schema_leaf,
    MAX_CHUNKS,
};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use medledger_crypto::Hash256;
use medledger_telemetry::HeatMapHandle;
use std::collections::BTreeMap;
use std::fmt;

/// Clamps a configured shard count to a valid value: a power of two in
/// `1 ..= 256` (the content digest's maximum chunk fan-out).
pub fn normalize_shard_count(n: usize) -> usize {
    n.max(1).next_power_of_two().min(MAX_CHUNKS)
}

/// The shard a key belongs to under a `shard_count`-way split: the top
/// bits of the key digest — the same routing value the content digest
/// uses for chunks, which is what aligns shard boundaries with chunk
/// boundaries. `shard_count` must be a normalized power of two.
pub fn shard_of_key(key: &[Value], shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    chunk_of_route(key_route(key), shard_count)
}

impl TableDelta {
    /// Partitions the delta into `shard_count` per-shard sub-deltas (index
    /// `s` holds exactly the rows routed to shard `s`; untouched shards
    /// get an empty delta). Each part keeps the canonical ordering, and
    /// applying all parts to their shards equals applying the whole delta
    /// to the whole table.
    pub fn split_by_shard(&self, schema: &Schema, shard_count: usize) -> Vec<TableDelta> {
        let mut out = vec![TableDelta::default(); shard_count.max(1)];
        for r in &self.inserts {
            out[shard_of_key(&schema.key_of(r), shard_count)]
                .inserts
                .push(r.clone());
        }
        for (k, r) in &self.updates {
            out[shard_of_key(k, shard_count)]
                .updates
                .push((k.clone(), r.clone()));
        }
        for k in &self.deletes {
            out[shard_of_key(k, shard_count)].deletes.push(k.clone());
        }
        out
    }
}

/// A planned application of one delta to a [`ShardMap`]: the per-shard
/// sub-deltas plus the chunk layout the map will use *after* the delta
/// (the layout depends on the total row count, which every shard must
/// agree on before applying in parallel).
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Sub-delta per shard, index-aligned with the map's shards.
    pub per_shard: Vec<TableDelta>,
    /// Chunk layout after the delta applies.
    pub chunk_count: usize,
    rows_after: usize,
}

impl ShardPlan {
    /// Shards whose sub-delta is non-empty (the ones an apply touches).
    pub fn touched(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(s, _)| s)
            .collect()
    }
}

/// One shard: a fragment [`Table`] holding the rows routed here.
///
/// The fragment's digest tree is kept under the *map-wide* chunk layout
/// ([`Shard::apply`] sets it), not the fragment's own, which is what makes
/// the fold over the shard's chunk run byte-identical to the same subtree
/// of the assembled table's fold.
#[derive(Clone)]
pub struct Shard {
    index: usize,
    shard_count: usize,
    table: Table,
    /// Σ [`Row::encoded_len`] over the fragment rows, adjusted by every
    /// applied delta.
    encoded_bytes: u64,
    /// Live heat-map feed: every successful [`Shard::apply`] attributes
    /// its row/byte cost to `(heat_label, index)`. No-op by default.
    heat: HeatMapHandle,
    /// Table name the heat cells are attributed to.
    heat_label: String,
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shard#{} ({} rows)", self.index, self.table.len())
    }
}

impl Shard {
    fn new(index: usize, shard_count: usize, schema: Schema) -> Self {
        Shard {
            index,
            shard_count,
            table: Table::new(schema),
            encoded_bytes: 0,
            heat: HeatMapHandle::disabled(),
            heat_label: String::new(),
        }
    }

    /// Applies this shard's sub-delta under the target layout, updating
    /// the fragment rows and their digest tree, and returns the inverse
    /// sub-delta. Validation and atomicity are [`Table::apply_delta`]'s;
    /// a failed apply leaves the shard's rows untouched.
    pub fn apply(&mut self, delta: &TableDelta, chunk_count: usize) -> Result<TableDelta> {
        self.table.set_layout(chunk_count);
        let inverse = self.table.apply_delta(delta)?;
        // The inverse holds exactly the rows this delta replaced or removed.
        let bytes_of = |rows: &[Row], updates: &[(Vec<Value>, Row)]| {
            let rows = rows.iter().chain(updates.iter().map(|(_, r)| r));
            rows.map(Row::encoded_len).sum::<usize>() as u64
        };
        self.encoded_bytes += bytes_of(&delta.inserts, &delta.updates);
        self.encoded_bytes -= bytes_of(&inverse.inserts, &inverse.updates);
        if self.heat.is_enabled() {
            self.heat.record(
                &self.heat_label,
                self.index as u64,
                delta.row_count() as u64,
                delta.encoded_size() as u64,
            );
        }
        Ok(inverse)
    }

    /// Recomputes this shard's dirty chunk digests and subtree root under
    /// `chunk_count` (the expensive half of a fold, callable inside a
    /// parallel per-shard job so the map-level fold only combines cached
    /// subroots). No-op when the layout is coarser than the shard split.
    pub fn warm(&self, chunk_count: usize) {
        if chunk_count >= self.shard_count {
            self.subroot(chunk_count);
        }
    }

    /// The fold over this shard's owned chunk run — the contiguous
    /// `chunk_count / shard_count` chunks its digest range covers (aligned
    /// layouts only: `chunk_count >= shard_count`).
    fn subroot(&self, chunk_count: usize) -> Hash256 {
        let run = chunk_count / self.shard_count;
        self.table
            .with_tree(chunk_count, |tree| tree.fold(self.index * run, run))
    }
}

/// A table split into key-range shards, hash-compatible with [`Table`].
///
/// Holds the same rows as the table it was built from, partitioned by
/// [`shard_of_key`]; [`ShardMap::content_hash`] equals the assembled
/// table's [`Table::content_hash`] byte for byte, and
/// [`ShardMap::apply_delta`] equals applying the same delta to the
/// assembled table (returning the same inverse, canonically ordered).
#[derive(Clone)]
pub struct ShardMap {
    schema: Schema,
    shard_count: usize,
    shards: Vec<Shard>,
    rows: usize,
    schema_leaf: Hash256,
}

impl fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardMap({} shards, {} rows, hash={})",
            self.shard_count,
            self.rows,
            self.content_hash().short()
        )
    }
}

impl ShardMap {
    /// Splits `table` into `shard_count` shards (count normalized via
    /// [`normalize_shard_count`]). The shards' digest trees build lazily
    /// on the first fold.
    pub fn from_table(table: &Table, shard_count: usize) -> Self {
        let shard_count = normalize_shard_count(shard_count);
        let schema = table.schema().clone();
        let mut shards: Vec<Shard> = (0..shard_count)
            .map(|i| Shard::new(i, shard_count, schema.clone()))
            .collect();
        for row in table.rows() {
            let shard = &mut shards[shard_of_key(&schema.key_of(row), shard_count)];
            shard
                .table
                .insert(row.clone())
                // lint: allow(unwrap) — `table`'s rows are schema-valid and
                // key-unique, and each goes to exactly one shard.
                .expect("source table rows are valid and key-unique");
            shard.encoded_bytes += row.encoded_len() as u64;
        }
        let schema_leaf = schema_leaf(&schema);
        ShardMap {
            schema,
            shard_count,
            shards,
            rows: table.len(),
            schema_leaf,
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff no shard holds a row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The current chunk layout (determined by the total row count).
    fn chunk_count(&self) -> usize {
        chunk_count_for(self.rows)
    }

    /// Mutable access to all shards (disjoint `&mut Shard`s are what a
    /// parallel apply hands to its workers).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Installs a live heat-map feed: every successful per-shard apply
    /// (serial via [`ShardMap::apply_delta`] or parallel via
    /// [`Shard::apply`] on checked-out shards) attributes its row count
    /// and canonical delta bytes to the `(table, shard)` cell. Survives
    /// [`ShardMap::rebuild_from`]; a disabled handle keeps the apply
    /// path free of telemetry work.
    pub fn set_telemetry(&mut self, table: &str, heat: HeatMapHandle) {
        for shard in &mut self.shards {
            shard.heat = heat.clone();
            shard.heat_label = table.to_string();
        }
    }

    /// Point lookup, routed to the owning shard.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.shards[shard_of_key(key, self.shard_count)]
            .table
            .get(key)
    }

    /// Every row, shard by shard (row order within a shard is unspecified).
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.shards.iter().flat_map(|s| s.table.rows())
    }

    /// Every row in primary-key order, whatever the shard split.
    pub fn sorted_rows(&self) -> Vec<&Row> {
        let mut rows: Vec<&Row> = self.rows().collect();
        rows.sort_by_cached_key(|r| self.schema.key_of(r));
        rows
    }

    /// Σ `row.encode().len()` over every row — a running total the
    /// per-shard applies keep, not a scan.
    pub fn encoded_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.encoded_bytes).sum()
    }

    /// Plans a delta application: splits the delta per shard and fixes
    /// the post-delta chunk layout every shard must apply under.
    pub fn plan(&self, delta: &TableDelta) -> ShardPlan {
        let rows_after = (self.rows + delta.inserts.len()).saturating_sub(delta.deletes.len());
        ShardPlan {
            per_shard: delta.split_by_shard(&self.schema, self.shard_count),
            chunk_count: chunk_count_for(rows_after),
            rows_after,
        }
    }

    /// Records that a planned apply ran on every shard (fixes the total
    /// row count the next fold's layout derives from). Callers driving
    /// shards in parallel call this after all sub-applies succeeded.
    pub fn commit_plan(&mut self, plan: &ShardPlan) {
        self.rows = plan.rows_after;
    }

    /// Applies a delta shard-by-shard (serially), touching only the
    /// shards the delta lands in. Returns the merged inverse, canonically
    /// ordered — identical to [`Table::apply_delta`] on the assembled
    /// table. If one shard rejects its sub-delta, already-applied shards
    /// are reverted, leaving the map untouched.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<TableDelta> {
        let plan = self.plan(delta);
        let mut applied: Vec<(usize, TableDelta)> = Vec::new();
        for (s, sub) in plan.per_shard.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            match self.shards[s].apply(sub, plan.chunk_count) {
                Ok(inv) => applied.push((s, inv)),
                Err(e) => {
                    for (t, inv) in applied.iter().rev() {
                        self.shards[*t]
                            .apply(inv, plan.chunk_count)
                            // lint: allow(unwrap) — the inverse of the
                            // sub-delta this shard just applied restores
                            // the rows it was validated against.
                            .expect("inverse of a just-applied sub-delta applies");
                    }
                    return Err(e);
                }
            }
        }
        self.commit_plan(&plan);
        Ok(TableDelta::merge_disjoint(
            applied.into_iter().map(|(_, inv)| inv),
            |r| self.schema.key_of(r),
        ))
    }

    /// The canonical content hash, folded from per-shard subtree roots —
    /// byte-identical to [`Table::content_hash`] of the assembled table.
    ///
    /// With the chunk layout at least as fine as the shard split (every
    /// table of ≳ `32 × shards` rows), each shard contributes the fold
    /// over its chunk run, and a shard touched since the last fold
    /// refolds only its dirty paths. Coarser layouts (tiny tables) merge
    /// leaf buckets across shards instead.
    pub fn content_hash(&self) -> Hash256 {
        let chunk_count = self.chunk_count();
        if chunk_count >= self.shard_count {
            let subroots: Vec<Hash256> =
                self.shards.iter().map(|s| s.subroot(chunk_count)).collect();
            // fold(subroots) == fold(all chunk digests): each subroot is
            // the fold of a contiguous, equal, power-of-two chunk run.
            return fold_content_root(&self.schema_leaf, &subroots);
        }
        // Fewer chunks than shards: each chunk's digest range spans a
        // group of shards; merge their buckets of it in key order.
        let group = self.shard_count / chunk_count;
        let digests: Vec<Hash256> = self
            .shards
            .chunks(group)
            .enumerate()
            .map(|(c, shards)| {
                let mut merged: BTreeMap<Vec<Value>, Hash256> = BTreeMap::new();
                for shard in shards {
                    shard.table.with_tree(chunk_count, |tree| {
                        merged.extend(tree.bucket(c).map(|(k, leaf)| (k.clone(), *leaf)))
                    });
                }
                chunk_digest(merged.values())
            })
            .collect();
        fold_content_root(&self.schema_leaf, &digests)
    }

    /// Reassembles the shards into one table (row order is unspecified;
    /// table equality and hashing are order-independent).
    pub fn assemble(&self) -> Table {
        if let [only] = self.shards.as_slice() {
            return only.table.clone();
        }
        let mut out = Table::new(self.schema.clone());
        for row in self.rows() {
            out.insert(row.clone())
                // lint: allow(unwrap) — shard rows are schema-valid, and a
                // key routes to one shard, so keys are unique across them.
                .expect("shard rows are valid and globally key-unique");
        }
        out
    }

    /// Discards all shard state and re-splits from `table` (a whole-table
    /// replace, e.g. a full-table conflict resolution). An installed
    /// heat-map feed carries over.
    pub fn rebuild_from(&mut self, table: &Table) {
        let heat = self
            .shards
            .first()
            .map(|s| (s.heat.clone(), s.heat_label.clone()));
        *self = ShardMap::from_table(table, self.shard_count);
        if let Some((heat, label)) = heat {
            if heat.is_enabled() {
                self.set_telemetry(&label, heat);
            }
        }
    }
}

impl KeyedRows for ShardMap {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn get(&self, key: &[Value]) -> Option<&Row> {
        ShardMap::get(self, key)
    }
    fn rows(&self) -> impl Iterator<Item = &Row> {
        ShardMap::rows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::diff_tables;
    use crate::digest::HashStats;
    use crate::row;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("dose", ValueType::Text),
            ],
            &["id"],
        )
        .expect("schema")
    }

    fn encoded_bytes_of(t: &Table) -> u64 {
        t.rows().map(|r| r.encode().len() as u64).sum()
    }

    fn table(n: i64) -> Table {
        let mut t = Table::new(schema());
        for i in 0..n {
            t.insert(row![i, format!("med-{i}"), "1x"]).expect("insert");
        }
        t
    }

    #[test]
    fn normalize_clamps_to_pow2_range() {
        assert_eq!(normalize_shard_count(0), 1);
        assert_eq!(normalize_shard_count(1), 1);
        assert_eq!(normalize_shard_count(3), 4);
        assert_eq!(normalize_shard_count(8), 8);
        assert_eq!(normalize_shard_count(1000), 256);
    }

    #[test]
    fn shard_routing_is_deterministic_and_total() {
        for shards in [1usize, 2, 8, 64] {
            for i in 0..200i64 {
                let key = vec![Value::Int(i)];
                let s = shard_of_key(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_key(&key, shards));
            }
        }
    }

    #[test]
    fn split_by_shard_partitions_and_covers() {
        let old = table(50);
        let mut new = table(50);
        new.delete(&[Value::Int(3)]).expect("delete");
        new.insert(row![60i64, "new", "2x"]).expect("insert");
        new.update(&[Value::Int(7)], &[("dose", Value::text("9x"))])
            .expect("update");
        let delta = diff_tables(&old, &new);
        let s = schema();
        for shards in [1usize, 2, 8] {
            let parts = delta.split_by_shard(&s, shards);
            assert_eq!(parts.len(), shards);
            let total: usize = parts.iter().map(TableDelta::row_count).sum();
            assert_eq!(total, delta.row_count());
            for (i, part) in parts.iter().enumerate() {
                for r in &part.inserts {
                    assert_eq!(shard_of_key(&s.key_of(r), shards), i);
                }
                for (k, _) in &part.updates {
                    assert_eq!(shard_of_key(k, shards), i);
                }
                for k in &part.deletes {
                    assert_eq!(shard_of_key(k, shards), i);
                }
            }
        }
    }

    #[test]
    fn fold_matches_table_hash_across_sizes_and_shards() {
        // Covers chunk_count < shards (tiny), == and > (large).
        for n in [0i64, 1, 5, 40, 200, 600] {
            let t = table(n);
            for shards in [1usize, 2, 8, 32] {
                let m = ShardMap::from_table(&t, shards);
                assert_eq!(m.content_hash(), t.content_hash(), "n={n} shards={shards}");
                assert_eq!(m.len(), t.len());
                assert_eq!(m.assemble(), t);
                assert_eq!(m.encoded_bytes(), encoded_bytes_of(&t));
                assert_eq!(m.sorted_rows(), t.sorted_rows());
            }
        }
    }

    #[test]
    fn apply_delta_tracks_table_and_inverse_reverts() {
        let old = table(120);
        let mut new = table(120);
        new.delete(&[Value::Int(10)]).expect("delete");
        new.delete(&[Value::Int(90)]).expect("delete");
        for i in 200..260i64 {
            new.insert(row![i, "grown", "3x"]).expect("insert");
        }
        new.update(&[Value::Int(55)], &[("dose", Value::text("7x"))])
            .expect("update");
        let delta = diff_tables(&old, &new);

        for shards in [1usize, 4, 16] {
            let mut m = ShardMap::from_table(&old, shards);
            // Warm the fold first so the apply path exercises the
            // incremental (dirty-subtree) code, including the chunk
            // layout growth 120 → 178 rows.
            assert_eq!(m.content_hash(), old.content_hash());
            let inv = m.apply_delta(&delta).expect("apply");
            assert_eq!(m.content_hash(), new.content_hash(), "shards={shards}");
            assert_eq!(m.get(&[Value::Int(55)]), new.get(&[Value::Int(55)]));
            assert!(m.get(&[Value::Int(10)]).is_none());
            assert_eq!(m.encoded_bytes(), encoded_bytes_of(&new));
            assert!(diff_tables(&m, &new).is_empty());

            // The inverse equals the one the assembled table produces.
            let mut plain = old.clone();
            let plain_inv = plain.apply_delta(&delta).expect("plain apply");
            assert_eq!(inv, plain_inv);

            m.apply_delta(&inv).expect("revert");
            assert_eq!(m.content_hash(), old.content_hash());
            assert_eq!(m.assemble(), old);
            assert_eq!(m.encoded_bytes(), encoded_bytes_of(&old));
        }
    }

    #[test]
    fn apply_delta_is_atomic_across_shards() {
        let t = table(64);
        let mut m = ShardMap::from_table(&t, 8);
        let before = m.content_hash();
        // Valid inserts plus one update of a missing key: some shard
        // rejects, and every other shard's sub-apply must roll back.
        let bad = TableDelta {
            inserts: (300..320i64).map(|i| row![i, "x", "y"]).collect(),
            updates: vec![(vec![Value::Int(999)], row![999i64, "nope", "z"])],
            deletes: vec![],
        };
        assert!(m.apply_delta(&bad).is_err());
        assert_eq!(m.content_hash(), before);
        assert_eq!(m.len(), 64);
        assert_eq!(m.assemble(), t);
        assert_eq!(m.encoded_bytes(), encoded_bytes_of(&t));
    }

    #[test]
    fn warm_precomputes_subroots_without_changing_the_fold() {
        let t = table(300);
        let mut m = ShardMap::from_table(&t, 8);
        let expected = t.content_hash();
        let cc = m.chunk_count();
        for s in m.shards_mut() {
            s.warm(cc);
        }
        assert_eq!(m.content_hash(), expected);
    }

    #[test]
    fn parallel_style_shard_apply_matches_serial() {
        // Drive the same plan through shards_mut() the way a worker pool
        // does (sub-apply + warm per shard, then commit + fold).
        let old = table(256);
        let mut new = old.clone();
        for i in (0..256i64).step_by(5) {
            new.update(&[Value::Int(i)], &[("dose", Value::text(format!("r{i}")))])
                .expect("update");
        }
        let delta = diff_tables(&old, &new);

        let mut serial = ShardMap::from_table(&old, 8);
        serial.apply_delta(&delta).expect("serial");

        let mut manual = ShardMap::from_table(&old, 8);
        let plan = manual.plan(&delta);
        for (shard, sub) in manual.shards_mut().iter_mut().zip(&plan.per_shard) {
            if !sub.is_empty() {
                shard.apply(sub, plan.chunk_count).expect("sub-apply");
            }
            shard.warm(plan.chunk_count);
        }
        manual.commit_plan(&plan);
        assert_eq!(manual.content_hash(), serial.content_hash());
        assert_eq!(manual.content_hash(), new.content_hash());
    }

    #[test]
    fn shard_folds_refold_dirty_paths_and_never_rebuild_on_relayout() {
        let stats = |m: &ShardMap| -> Vec<HashStats> {
            m.shards.iter().map(|s| s.table.hash_stats()).collect()
        };
        for shards in [1usize, 4] {
            let old = table(1024);
            let mut m = ShardMap::from_table(&old, shards);
            assert_eq!(m.content_hash(), old.content_hash());
            let warm = stats(&m);

            // One changed row: one chunk digest, and at most the
            // log2(owned chunks) fold nodes of its shard's dirty path.
            let mut new = old.clone();
            new.update(&[Value::Int(7)], &[("dose", Value::text("x"))])
                .expect("update");
            m.apply_delta(&diff_tables(&old, &new)).expect("apply");
            assert_eq!(m.content_hash(), new.content_hash());
            let after = stats(&m);
            let sum = |f: fn(&HashStats) -> u64, v: &[HashStats]| v.iter().map(f).sum::<u64>();
            let chunks = sum(|s| s.chunk_recomputes, &after) - sum(|s| s.chunk_recomputes, &warm);
            let nodes = sum(|s| s.node_recomputes, &after) - sum(|s| s.node_recomputes, &warm);
            let owned = (m.chunk_count() / shards) as u64;
            assert_eq!(chunks, 1, "shards={shards}");
            assert!(
                nodes <= owned.trailing_zeros() as u64,
                "shards={shards}: {nodes} nodes"
            );

            // Crossing the 1 056-row threshold (32 → 64 chunks) re-buckets
            // every shard's leaves, touched or not, and rebuilds none.
            let mut grown = new.clone();
            for i in 2000..2040i64 {
                grown.insert(row![i, "grown", "1x"]).expect("insert");
            }
            m.apply_delta(&diff_tables(&new, &grown)).expect("grow");
            assert_eq!(m.chunk_count(), 64);
            assert_eq!(m.content_hash(), grown.content_hash(), "shards={shards}");
            for (before, now) in warm.iter().zip(stats(&m)) {
                assert_eq!(now.full_rebuilds, before.full_rebuilds, "shards={shards}");
            }
        }
    }
}
