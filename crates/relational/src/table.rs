//! Keyed in-memory tables.

use crate::delta::TableDelta;
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use medledger_crypto::{merkle, sha256_concat, Hash256};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

/// Domain tag for row-chunk digests (distinct from Merkle leaf/node tags).
pub(crate) const CHUNK_TAG: &[u8] = &[0x02];

/// Rows per chunk the incremental digest aims for; the chunk count grows
/// in power-of-two steps up to [`MAX_CHUNKS`] as the table grows.
const CHUNK_TARGET: usize = 32;

/// Upper bound on the chunk fan-out.
pub(crate) const MAX_CHUNKS: usize = 256;

/// Number of row chunks the content hash uses for a table of `n` rows.
///
/// Deterministic in `n` (and therefore in table *content*), so two tables
/// with the same rows always chunk — and hash — identically.
pub(crate) fn chunk_count_for(n: usize) -> usize {
    (n / CHUNK_TARGET)
        .max(1)
        .next_power_of_two()
        .min(MAX_CHUNKS)
}

/// Chunk index of a key digest under a `count`-chunk layout (`count` a
/// power of two ≤ 256): the **top** `log2(count)` bits of the digest's
/// first byte. Top-bit routing makes a chunk a *contiguous* digest range,
/// so a power-of-two group of consecutive chunks is itself a digest range
/// — the alignment [`crate::shard`] relies on to give every shard a
/// contiguous run of chunks (and therefore a cacheable Merkle subtree).
pub(crate) fn chunk_of_digest(key_digest: &Hash256, count: usize) -> usize {
    debug_assert!(count.is_power_of_two() && count <= 256);
    (key_digest.as_bytes()[0] as usize * count) >> 8
}

/// Canonical digest of a primary key (the routing value for both chunk
/// and shard placement).
pub(crate) fn key_digest(key: &[Value]) -> Hash256 {
    let mut buf = Vec::with_capacity(16 * key.len());
    for v in key {
        v.encode_into(&mut buf);
    }
    medledger_crypto::sha256(&buf)
}

/// The canonical byte encoding of a schema, as covered by
/// [`Table::content_hash`].
pub(crate) fn schema_digest_bytes(schema: &Schema) -> Vec<u8> {
    let mut schema_bytes = Vec::new();
    for c in schema.columns() {
        schema_bytes.extend_from_slice(c.name.as_bytes());
        schema_bytes.push(0);
        schema_bytes.extend_from_slice(c.ty.to_string().as_bytes());
        schema_bytes.push(if c.nullable { 1 } else { 0 });
    }
    for &k in schema.key_indexes() {
        schema_bytes.extend_from_slice(&(k as u64).to_be_bytes());
    }
    schema_bytes
}

/// Digest of one chunk's leaf hashes, in canonical key order.
pub(crate) fn chunk_digest<'a>(leaves: impl Iterator<Item = &'a Hash256>) -> Hash256 {
    let mut parts: Vec<&[u8]> = vec![CHUNK_TAG];
    let collected: Vec<&Hash256> = leaves.collect();
    parts.extend(collected.iter().map(|h| h.as_bytes() as &[u8]));
    sha256_concat(&parts)
}

/// Folds a schema digest and an ordered, power-of-two list of chunk
/// digests into the canonical table content root. This is *the* root
/// formula — [`Table::content_hash`] and the sharded
/// [`crate::shard::ShardMap::content_hash`] both funnel through it, which
/// is what keeps the two byte-identical.
pub(crate) fn fold_content_root(schema_leaf: &Hash256, chunk_digests: &[Hash256]) -> Hash256 {
    merkle::node_hash(schema_leaf, &merkle::fold_nodes(chunk_digests))
}

/// Counters of incremental-hash work, exposed via [`Table::hash_stats`].
///
/// The WAL-heavy durable path recomputes the content hash once per log
/// record; these counters make the cost observable (and testable): after
/// one changed row, `chunk_recomputes` should rise by 1 and
/// `node_recomputes` by at most `log2(chunks)` — not by the whole
/// digest fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Times the cache was rebuilt from all rows (cold cache, fan-out
    /// growth, deserialization).
    pub full_rebuilds: u64,
    /// Chunk digests computed (each walks one chunk's leaf hashes).
    pub chunk_recomputes: u64,
    /// Internal fold-tree nodes hashed above the chunk level.
    pub node_recomputes: u64,
}

/// The incremental content-hash cache: per-row leaf digests grouped into
/// key-addressed chunks, plus cached chunk digests, the cached internal
/// levels of the chunk fold tree, and the cached root.
///
/// Mutations update only the touched rows' leaf digests and mark their
/// chunk — and the fold-tree path above it — dirty;
/// [`Table::content_hash`] then recomputes the dirty chunk digests and
/// only the `log2(chunks)` fold nodes on the dirty paths instead of
/// re-folding every chunk digest. The cache is an acceleration structure
/// only: when it desynchronizes (e.g. after deserialization), it is
/// rebuilt from the rows, so the hash value never depends on cache state.
#[derive(Debug, Default, Clone)]
struct HashCache {
    /// Per-chunk leaf digests (key → leaf hash), ordered by key.
    chunks: Vec<BTreeMap<Vec<Value>, Hash256>>,
    /// Cached digest per chunk; `None` = dirty.
    digests: Vec<Option<Hash256>>,
    /// Cached fold-tree levels above the chunks: `levels[0]` holds the
    /// pairwise hashes of the chunk digests (`chunks.len() / 2` nodes),
    /// each next level halves again, down to a single node. `None` =
    /// dirty. Empty when there is only one chunk.
    levels: Vec<Vec<Option<Hash256>>>,
    /// Cached root over schema digest + chunk digests.
    root: Option<Hash256>,
    /// Cached schema digest.
    schema_digest: Option<Hash256>,
    /// Rows accounted for (consistency check against the table).
    rows: usize,
    /// False until the cache has been (re)built from the rows.
    valid: bool,
    /// Work counters (survive invalidation).
    stats: HashStats,
}

impl HashCache {
    fn invalidate(&mut self) {
        let stats = self.stats;
        *self = HashCache::default();
        self.stats = stats;
    }

    /// Chunk index for a key under the current fan-out.
    fn chunk_of(key_digest: &Hash256, count: usize) -> usize {
        chunk_of_digest(key_digest, count)
    }

    /// Marks chunk `c` and the fold-tree path above it dirty.
    fn mark_dirty(&mut self, c: usize) {
        self.digests[c] = None;
        for (l, level) in self.levels.iter_mut().enumerate() {
            level[c >> (l + 1)] = None;
        }
        self.root = None;
    }
}

/// A table: schema + rows + a primary-key index.
///
/// Invariants maintained by every operation:
/// * every row satisfies the schema (arity, types, nullability),
/// * primary keys are unique,
/// * the index maps each key to its row position.
///
/// Row order is not semantically meaningful; [`Table::content_hash`] and
/// [`Table::sorted_rows`] use a canonical key order so two tables with the
/// same rows always hash identically — the property peers rely on to check
/// the paper's "all peers hold the newest shared data" condition. The
/// ordered index makes [`Table::sorted_rows`] a plain index walk (no
/// per-call sort), and the content hash is maintained *incrementally*:
/// each mutation refreshes only the changed rows' chunk of the digest, so
/// hashing cost after `k` changed rows is `O(k · n/chunks + chunks)`, not
/// a full re-encode of the table.
#[derive(Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    #[serde(skip)]
    index: BTreeMap<Vec<Value>, usize>,
    #[serde(skip)]
    cache: Mutex<HashCache>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            index: self.index.clone(),
            cache: Mutex::new(self.cache.lock().expect("cache lock").clone()),
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            index: BTreeMap::new(),
            cache: Mutex::new(HashCache::default()),
        }
    }

    /// Creates a table from rows, validating each.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut t = Table::new(schema);
        for r in rows {
            t.insert(r)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over rows in physical (unspecified) order.
    pub fn rows(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Rows sorted by primary key (canonical order).
    ///
    /// Served straight from the ordered key index — no per-call sort. The
    /// sort fallback only runs when the index is stale (a deserialized
    /// table before [`Table::rebuild_index`]).
    pub fn sorted_rows(&self) -> Vec<&Row> {
        if self.index.len() == self.rows.len() {
            self.index.values().map(|&pos| &self.rows[pos]).collect()
        } else {
            let mut out: Vec<&Row> = self.rows.iter().collect();
            out.sort_by_key(|a| self.schema.key_of(a));
            out
        }
    }

    // ----- cache bookkeeping ------------------------------------------

    /// Records an inserted/replaced row in the hash cache. `new_len` is
    /// the row count after the mutation.
    fn note_upsert(&mut self, key: &[Value], row: &Row, new_len: usize) {
        let cache = self.cache.get_mut().expect("cache lock");
        if !cache.valid {
            return;
        }
        if chunk_count_for(new_len) != cache.chunks.len() {
            cache.invalidate();
            return;
        }
        let leaf = merkle::leaf_hash(&row.encode());
        let c = HashCache::chunk_of(&key_digest(key), cache.chunks.len());
        cache.chunks[c].insert(key.to_vec(), leaf);
        cache.mark_dirty(c);
        cache.rows = new_len;
    }

    /// Records a deleted row in the hash cache. `new_len` is the row
    /// count after the mutation.
    fn note_delete(&mut self, key: &[Value], new_len: usize) {
        let cache = self.cache.get_mut().expect("cache lock");
        if !cache.valid {
            return;
        }
        if chunk_count_for(new_len) != cache.chunks.len() {
            cache.invalidate();
            return;
        }
        let c = HashCache::chunk_of(&key_digest(key), cache.chunks.len());
        cache.chunks[c].remove(key);
        cache.mark_dirty(c);
        cache.rows = new_len;
    }

    fn schema_digest_bytes(&self) -> Vec<u8> {
        schema_digest_bytes(&self.schema)
    }

    // ----- mutations ---------------------------------------------------

    /// Inserts a row; errors on schema violation or duplicate key.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        if self.index.contains_key(&key) {
            return Err(RelationalError::DuplicateKey {
                key: format_key(&key),
            });
        }
        let new_len = self.rows.len() + 1;
        self.note_upsert(&key, &row, new_len);
        self.index.insert(key, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Inserts or replaces the row with the same key. Returns `true` if a
    /// row was replaced.
    pub fn upsert(&mut self, row: Row) -> Result<bool> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        if let Some(&pos) = self.index.get(&key) {
            self.note_upsert(&key, &row, self.rows.len());
            self.rows[pos] = row;
            Ok(true)
        } else {
            let new_len = self.rows.len() + 1;
            self.note_upsert(&key, &row, new_len);
            self.index.insert(key, self.rows.len());
            self.rows.push(row);
            Ok(false)
        }
    }

    /// Looks up a row by primary key.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.index.get(key).map(|&pos| &self.rows[pos])
    }

    /// True iff a row with this key exists.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.index.contains_key(key)
    }

    /// Updates named columns of the row with `key`. Key columns cannot be
    /// reassigned through this method (delete + insert instead).
    pub fn update(&mut self, key: &[Value], assignments: &[(&str, Value)]) -> Result<()> {
        let pos = *self
            .index
            .get(key)
            .ok_or_else(|| RelationalError::KeyNotFound {
                key: format_key(key),
            })?;
        // Validate before mutating so failed updates leave the row intact.
        let mut candidate = self.rows[pos].clone();
        for (col, val) in assignments {
            let idx = self.schema.index_of(col)?;
            if self.schema.key_indexes().contains(&idx) {
                return Err(RelationalError::InvalidKey {
                    reason: format!("cannot assign key column `{col}` in update"),
                });
            }
            *candidate.get_mut(idx).expect("index valid") = val.clone();
        }
        self.schema.check_row(&candidate)?;
        self.note_upsert(key, &candidate, self.rows.len());
        self.rows[pos] = candidate;
        Ok(())
    }

    /// Deletes the row with `key`; errors if absent.
    pub fn delete(&mut self, key: &[Value]) -> Result<Row> {
        let pos = self
            .index
            .remove(key)
            .ok_or_else(|| RelationalError::KeyNotFound {
                key: format_key(key),
            })?;
        let removed = self.rows.swap_remove(pos);
        // Fix the index entry of the row that moved into `pos`.
        if pos < self.rows.len() {
            let moved_key = self.schema.key_of(&self.rows[pos]);
            self.index.insert(moved_key, pos);
        }
        self.note_delete(key, self.rows.len());
        Ok(removed)
    }

    /// Removes all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
        self.cache.get_mut().expect("cache lock").invalidate();
    }

    /// Applies a row-level delta atomically: every entry is validated
    /// against the current state first (schema, key presence/absence,
    /// key/row agreement, cross-set disjointness), then all changes are
    /// applied. Returns the **inverse** delta, which applied to the result
    /// restores the original table — the basis for cheap transactional
    /// rollback without whole-table snapshots.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<TableDelta> {
        // Validate everything against the current state first.
        let mut touched: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut disjoint = |key: &[Value]| -> Result<()> {
            if !touched.insert(key.to_vec()) {
                return Err(RelationalError::InvalidKey {
                    reason: format!("delta touches key {} more than once", format_key(key)),
                });
            }
            Ok(())
        };
        let mut insert_keys = Vec::with_capacity(delta.inserts.len());
        for row in &delta.inserts {
            self.schema.check_row(row)?;
            let key = self.schema.key_of(row);
            if self.index.contains_key(&key) {
                return Err(RelationalError::DuplicateKey {
                    key: format_key(&key),
                });
            }
            disjoint(&key)?;
            insert_keys.push(key);
        }
        for (key, row) in &delta.updates {
            self.schema.check_row(row)?;
            if self.schema.key_of(row) != *key {
                return Err(RelationalError::InvalidKey {
                    reason: format!(
                        "delta update row key {} disagrees with declared key {}",
                        format_key(&self.schema.key_of(row)),
                        format_key(key)
                    ),
                });
            }
            if !self.index.contains_key(key) {
                return Err(RelationalError::KeyNotFound {
                    key: format_key(key),
                });
            }
            disjoint(key)?;
        }
        for key in &delta.deletes {
            if !self.index.contains_key(key) {
                return Err(RelationalError::KeyNotFound {
                    key: format_key(key),
                });
            }
            disjoint(key)?;
        }

        // Apply (infallible after validation) and record the inverse.
        let mut inverse = TableDelta::default();
        for (key, row) in &delta.updates {
            let pos = self.index[key];
            inverse.updates.push((key.clone(), self.rows[pos].clone()));
            self.note_upsert(key, row, self.rows.len());
            self.rows[pos] = row.clone();
        }
        for key in &delta.deletes {
            let removed = self.delete(key).expect("validated");
            inverse.inserts.push(removed);
        }
        for (row, key) in delta.inserts.iter().zip(insert_keys) {
            let new_len = self.rows.len() + 1;
            self.note_upsert(&key, row, new_len);
            self.index.insert(key.clone(), self.rows.len());
            self.rows.push(row.clone());
            inverse.deletes.push(key);
        }
        inverse.sort_canonical(|r| self.schema.key_of(r));
        Ok(inverse)
    }

    // ----- relational operators ---------------------------------------

    /// Key-preserving projection onto `attrs` with primary key `view_key`.
    ///
    /// Errors if the projection would collapse distinct keys (i.e.
    /// `view_key` is not a candidate key of the projected data).
    pub fn project(&self, attrs: &[&str], view_key: &[&str]) -> Result<Table> {
        let schema = self.schema.project(attrs, view_key)?;
        let idxs: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.index_of(a))
            .collect::<Result<_>>()?;
        let mut out = Table::new(schema);
        for row in &self.rows {
            out.insert(row.project(&idxs))?;
        }
        Ok(out)
    }

    /// Duplicate-eliminating projection (the D3 → D32 shape in the paper:
    /// many patient rows collapse to one row per medication).
    ///
    /// Requires the functional dependency `view_key → attrs` to hold on the
    /// source rows; two source rows agreeing on `view_key` but differing on
    /// any projected attribute is an [`RelationalError::FdViolation`].
    pub fn project_distinct(&self, attrs: &[&str], view_key: &[&str]) -> Result<Table> {
        let schema = self.schema.project(attrs, view_key)?;
        let idxs: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.index_of(a))
            .collect::<Result<_>>()?;
        let mut out = Table::new(schema.clone());
        for row in &self.rows {
            let projected = row.project(&idxs);
            let key = schema.key_of(&projected);
            match out.get(&key) {
                None => out.insert(projected)?,
                Some(existing) => {
                    if *existing != projected {
                        return Err(RelationalError::FdViolation {
                            reason: format!(
                                "rows with key {} disagree on projected attributes: {:?} vs {:?}",
                                format_key(&key),
                                existing,
                                projected
                            ),
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Selection: rows satisfying `pred`, same schema and key.
    pub fn select(&self, pred: &Predicate) -> Result<Table> {
        let mut out = Table::new(self.schema.clone());
        for row in &self.rows {
            if pred.eval(&self.schema, row)? {
                out.insert(row.clone())?;
            }
        }
        Ok(out)
    }

    /// Renames one column.
    pub fn rename(&self, from: &str, to: &str) -> Result<Table> {
        let schema = self.schema.rename(from, to)?;
        let mut out = Table::new(schema);
        for row in &self.rows {
            out.insert(row.clone())?;
        }
        Ok(out)
    }

    // ----- hashing -----------------------------------------------------

    /// Canonical content hash: a Merkle root over the schema digest and
    /// key-addressed row-chunk digests. Equal table contents ⇒ equal
    /// hashes, regardless of insertion order.
    ///
    /// The hash is served from the incremental cache: after `k` changed
    /// rows only the touched chunks and the `O(k · log2(chunks))` fold
    /// nodes on their dirty paths are rehashed — clean chunk digests and
    /// clean fold subtrees are reused as-is. A cold cache (fresh
    /// deserialization) triggers one full rebuild.
    pub fn content_hash(&self) -> Hash256 {
        let mut cache = self.cache.lock().expect("cache lock");
        let want_chunks = chunk_count_for(self.rows.len());
        if !cache.valid || cache.rows != self.rows.len() || cache.chunks.len() != want_chunks {
            // Full rebuild from the rows.
            cache.chunks = vec![BTreeMap::new(); want_chunks];
            for row in &self.rows {
                let key = self.schema.key_of(row);
                let c = HashCache::chunk_of(&key_digest(&key), want_chunks);
                cache.chunks[c].insert(key, merkle::leaf_hash(&row.encode()));
            }
            cache.digests = vec![None; want_chunks];
            cache.levels = {
                let mut levels = Vec::new();
                let mut width = want_chunks / 2;
                while width >= 1 {
                    levels.push(vec![None; width]);
                    if width == 1 {
                        break;
                    }
                    width /= 2;
                }
                levels
            };
            cache.root = None;
            cache.schema_digest = None;
            cache.rows = self.rows.len();
            cache.valid = true;
            cache.stats.full_rebuilds += 1;
        }
        if let Some(root) = cache.root {
            return root;
        }
        if cache.schema_digest.is_none() {
            cache.schema_digest = Some(merkle::leaf_hash(&self.schema_digest_bytes()));
        }
        // Recompute dirty chunk digests only.
        for c in 0..cache.chunks.len() {
            if cache.digests[c].is_none() {
                cache.digests[c] = Some(chunk_digest(cache.chunks[c].values()));
                cache.stats.chunk_recomputes += 1;
            }
        }
        // Refold only the dirty paths of the chunk tree; clean subtrees
        // are served from the cached levels. The resulting top node is by
        // construction identical to `merkle::fold_nodes(digests)`.
        for l in 0..cache.levels.len() {
            for i in 0..cache.levels[l].len() {
                if cache.levels[l][i].is_some() {
                    continue;
                }
                let (left, right) = if l == 0 {
                    (
                        cache.digests[2 * i].expect("just flushed"),
                        cache.digests[2 * i + 1].expect("just flushed"),
                    )
                } else {
                    (
                        cache.levels[l - 1][2 * i].expect("lower level folded"),
                        cache.levels[l - 1][2 * i + 1].expect("lower level folded"),
                    )
                };
                cache.levels[l][i] = Some(merkle::node_hash(&left, &right));
                cache.stats.node_recomputes += 1;
            }
        }
        let top = match cache.levels.last() {
            Some(level) => level[0].expect("top folded"),
            None => cache.digests[0].expect("just flushed"),
        };
        let root = merkle::node_hash(&cache.schema_digest.expect("just set"), &top);
        cache.root = Some(root);
        root
    }

    /// Snapshot of the incremental-hash work counters (see [`HashStats`]).
    pub fn hash_stats(&self) -> HashStats {
        self.cache.lock().expect("cache lock").stats
    }

    /// Rebuilds the primary-key index (needed after deserialization); also
    /// discards the incremental hash cache so the next
    /// [`Table::content_hash`] rebuilds it from the rows.
    pub fn rebuild_index(&mut self) -> Result<()> {
        self.index.clear();
        for (pos, row) in self.rows.iter().enumerate() {
            let key = self.schema.key_of(row);
            if self.index.insert(key.clone(), pos).is_some() {
                return Err(RelationalError::DuplicateKey {
                    key: format_key(&key),
                });
            }
        }
        self.cache.get_mut().expect("cache lock").invalidate();
        Ok(())
    }

    /// Renders the table as an aligned ASCII grid (used by the report
    /// binary to regenerate the paper's Fig. 1 layout).
    pub fn to_pretty(&self) -> String {
        let names = self.schema.column_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .sorted_rows()
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl PartialEq for Table {
    /// Tables are equal iff schema and row *sets* agree (order ignored).
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.rows.len() != other.rows.len() {
            return false;
        }
        self.sorted_rows() == other.sorted_rows()
    }
}

impl Eq for Table {}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Table{} {} rows, hash={}",
            self.schema,
            self.rows.len(),
            self.content_hash().short()
        )
    }
}

fn format_key(key: &[Value]) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn patients_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("dosage", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema")
    }

    fn patients() -> Table {
        Table::from_rows(
            patients_schema(),
            vec![
                row![188i64, "Ibuprofen", "one tablet every 4h"],
                row![189i64, "Wellbutrin", "100 mg twice daily"],
            ],
        )
        .expect("table")
    }

    #[test]
    fn insert_get_len() {
        let t = patients();
        assert_eq!(t.len(), 2);
        let r = t.get(&[Value::Int(188)]).expect("row");
        assert_eq!(r[1], Value::text("Ibuprofen"));
        assert!(t.contains_key(&[Value::Int(189)]));
        assert!(!t.contains_key(&[Value::Int(999)]));
    }

    #[test]
    fn insert_rejects_duplicate_key() {
        let mut t = patients();
        let err = t.insert(row![188i64, "X", "d"]).unwrap_err();
        assert!(matches!(err, RelationalError::DuplicateKey { .. }));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_rejects_schema_violations() {
        let mut t = patients();
        assert!(t.insert(row![1i64, 2i64, "d"]).is_err());
        assert!(t.insert(row![1i64, "m"]).is_err());
    }

    #[test]
    fn upsert_replaces_or_inserts() {
        let mut t = patients();
        assert!(t
            .upsert(row![188i64, "Ibuprofen", "two tablets"])
            .expect("upsert"));
        assert_eq!(
            t.get(&[Value::Int(188)]).expect("row")[2],
            Value::text("two tablets")
        );
        assert!(!t.upsert(row![190i64, "Aspirin", "x"]).expect("upsert"));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn update_assigns_columns() {
        let mut t = patients();
        t.update(&[Value::Int(188)], &[("dosage", Value::text("stop"))])
            .expect("update");
        assert_eq!(
            t.get(&[Value::Int(188)]).expect("row")[2],
            Value::text("stop")
        );
    }

    #[test]
    fn update_rejects_key_assignment_and_missing_key() {
        let mut t = patients();
        assert!(t
            .update(&[Value::Int(188)], &[("patient_id", Value::Int(5))])
            .is_err());
        assert!(matches!(
            t.update(&[Value::Int(5)], &[("dosage", Value::text("x"))])
                .unwrap_err(),
            RelationalError::KeyNotFound { .. }
        ));
    }

    #[test]
    fn update_is_atomic_on_type_error() {
        let mut t = patients();
        let before = t.get(&[Value::Int(188)]).expect("row").clone();
        let err = t
            .update(
                &[Value::Int(188)],
                &[
                    ("dosage", Value::text("ok")),
                    ("medication_name", Value::Int(3)),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RelationalError::TypeMismatch { .. }));
        assert_eq!(t.get(&[Value::Int(188)]).expect("row"), &before);
    }

    #[test]
    fn delete_maintains_index() {
        let mut t = patients();
        t.insert(row![190i64, "Aspirin", "x"]).expect("insert");
        let removed = t.delete(&[Value::Int(188)]).expect("delete");
        assert_eq!(removed[1], Value::text("Ibuprofen"));
        assert_eq!(t.len(), 2);
        // The swapped row must still be findable.
        assert!(t.get(&[Value::Int(190)]).is_some());
        assert!(t.get(&[Value::Int(189)]).is_some());
        assert!(t.delete(&[Value::Int(188)]).is_err());
    }

    #[test]
    fn content_hash_ignores_insertion_order() {
        let a = patients();
        let mut b = Table::new(patients_schema());
        b.insert(row![189i64, "Wellbutrin", "100 mg twice daily"])
            .expect("insert");
        b.insert(row![188i64, "Ibuprofen", "one tablet every 4h"])
            .expect("insert");
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a, b);
    }

    #[test]
    fn content_hash_detects_any_change() {
        let base = patients().content_hash();
        let mut t = patients();
        t.update(&[Value::Int(188)], &[("dosage", Value::text("changed"))])
            .expect("update");
        assert_ne!(t.content_hash(), base);

        let mut t2 = patients();
        t2.delete(&[Value::Int(189)]).expect("delete");
        assert_ne!(t2.content_hash(), base);
    }

    #[test]
    fn content_hash_covers_schema() {
        let t1 = Table::new(patients_schema());
        let s2 = Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("dose", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema");
        let t2 = Table::new(s2);
        assert_ne!(t1.content_hash(), t2.content_hash());
    }

    #[test]
    fn incremental_hash_matches_fresh_rebuild() {
        // Interleave hashing with mutations; the warm incremental cache
        // must always agree with a cold rebuild of the same contents.
        let mut t = Table::new(patients_schema());
        for i in 0..200i64 {
            t.insert(row![i, format!("med-{i}"), "d"]).expect("insert");
            if i % 37 == 0 {
                let _ = t.content_hash();
            }
        }
        t.update(&[Value::Int(13)], &[("dosage", Value::text("x"))])
            .expect("update");
        t.delete(&[Value::Int(77)]).expect("delete");
        let warm = t.content_hash();

        let mut cold =
            Table::from_rows(patients_schema(), t.rows().cloned().collect()).expect("rebuild");
        assert_eq!(warm, cold.content_hash());
        // And after an explicit cache reset.
        cold.rebuild_index().expect("rebuild index");
        assert_eq!(warm, cold.content_hash());
    }

    #[test]
    fn dirty_path_refold_touches_log_many_nodes() {
        // Large table: enough rows for a multi-level chunk fold tree.
        let rows = CHUNK_TARGET as i64 * 16; // 16 chunks → 4 fold levels
        let mut t = Table::new(patients_schema());
        for i in 0..rows {
            t.insert(row![i, "m", "d"]).expect("insert");
        }
        let _ = t.content_hash(); // warm the cache
        let warm = t.hash_stats();
        let chunks = chunk_count_for(t.len());
        assert!(chunks >= 16, "test premise: multi-level tree");

        // One changed row must recompute exactly one chunk digest and at
        // most log2(chunks) fold nodes — not the whole digest fold.
        t.update(&[Value::Int(7)], &[("dosage", Value::text("x"))])
            .expect("update");
        let before = t.content_hash();
        let after = t.hash_stats();
        assert_eq!(after.full_rebuilds, warm.full_rebuilds, "no rebuild");
        assert_eq!(
            after.chunk_recomputes - warm.chunk_recomputes,
            1,
            "single chunk rehashed"
        );
        let log2_chunks = chunks.trailing_zeros() as u64;
        assert!(
            after.node_recomputes - warm.node_recomputes <= log2_chunks,
            "refolded {} nodes, dirty path is only {log2_chunks} deep",
            after.node_recomputes - warm.node_recomputes,
        );

        // Served-from-cache repeat does no hashing work at all.
        let again = t.content_hash();
        assert_eq!(again, before);
        assert_eq!(t.hash_stats(), after);

        // And the dirty-path refold agrees with a cold full rebuild.
        let cold = Table::from_rows(patients_schema(), t.rows().cloned().collect())
            .expect("rebuild")
            .content_hash();
        assert_eq!(before, cold);
    }

    #[test]
    fn hash_survives_chunk_count_growth() {
        // Push the table across chunk-fanout boundaries and verify the
        // hash stays content-determined.
        let mut t = Table::new(patients_schema());
        for i in 0..(CHUNK_TARGET as i64 * 4 + 5) {
            t.insert(row![i, "m", "d"]).expect("insert");
            let incr = t.content_hash();
            let fresh = Table::from_rows(patients_schema(), t.rows().cloned().collect())
                .expect("rebuild")
                .content_hash();
            assert_eq!(incr, fresh, "at {i} rows");
        }
    }

    #[test]
    fn project_key_preserving() {
        let t = patients();
        let p = t
            .project(&["patient_id", "dosage"], &["patient_id"])
            .expect("project");
        assert_eq!(p.len(), 2);
        assert_eq!(p.schema().column_names(), vec!["patient_id", "dosage"]);
    }

    #[test]
    fn project_detects_key_collapse() {
        // Projecting onto a non-key column with duplicates must fail.
        let mut t = patients();
        t.insert(row![190i64, "Ibuprofen", "x"]).expect("insert");
        let err = t
            .project(&["medication_name"], &["medication_name"])
            .unwrap_err();
        assert!(matches!(err, RelationalError::DuplicateKey { .. }));
    }

    #[test]
    fn project_distinct_dedups_under_fd() {
        let mut t = patients();
        t.insert(row![190i64, "Ibuprofen", "one tablet every 4h"])
            .expect("insert");
        // dosage is functionally determined by medication here.
        let p = t
            .project_distinct(&["medication_name", "dosage"], &["medication_name"])
            .expect("distinct");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn project_distinct_rejects_fd_violation() {
        let mut t = patients();
        t.insert(row![190i64, "Ibuprofen", "DIFFERENT dosage"])
            .expect("insert");
        let err = t
            .project_distinct(&["medication_name", "dosage"], &["medication_name"])
            .unwrap_err();
        assert!(matches!(err, RelationalError::FdViolation { .. }));
    }

    #[test]
    fn select_filters_rows() {
        let t = patients();
        let s = t
            .select(&Predicate::eq("patient_id", Value::Int(188)))
            .expect("select");
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows().next().expect("row")[1], Value::text("Ibuprofen"));
    }

    #[test]
    fn rename_column() {
        let t = patients();
        let r = t.rename("dosage", "dose").expect("rename");
        assert!(r.schema().has_column("dose"));
        assert!(!r.schema().has_column("dosage"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn rebuild_index_after_manual_rows() {
        let mut t = patients();
        t.rebuild_index().expect("rebuild");
        assert!(t.get(&[Value::Int(188)]).is_some());
    }

    #[test]
    fn pretty_renders_all_cells() {
        let s = patients().to_pretty();
        assert!(s.contains("patient_id"));
        assert!(s.contains("Ibuprofen"));
        assert!(s.contains("100 mg twice daily"));
    }

    #[test]
    fn sorted_rows_in_key_order() {
        let mut t = Table::new(patients_schema());
        t.insert(row![189i64, "W", "d"]).expect("insert");
        t.insert(row![188i64, "I", "d"]).expect("insert");
        let sorted = t.sorted_rows();
        assert_eq!(sorted[0][0], Value::Int(188));
        assert_eq!(sorted[1][0], Value::Int(189));
    }
}
