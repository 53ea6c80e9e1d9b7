//! Keyed in-memory tables.

use crate::delta::TableDelta;
use crate::digest::{chunk_count_for, ChunkTree};
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use medledger_crypto::Hash256;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Mutex, MutexGuard};

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
/// each mutation refreshes only the changed row's leaf and dirties its
/// chunk's path in the digest tree, so hashing cost after `k` changed
/// rows is `O(k · n/chunks + k · log2 chunks)`, not a full re-encode of
/// the table.
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    index: BTreeMap<Vec<Value>, usize>,
    tree: Mutex<ChunkTree>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            index: self.index.clone(),
            tree: Mutex::new(self.tree().clone()),
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
            tree: Mutex::new(ChunkTree::default()),
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
    /// Served straight from the ordered key index — no per-call sort.
    pub fn sorted_rows(&self) -> Vec<&Row> {
        self.index.values().map(|&pos| &self.rows[pos]).collect()
    }

    // ----- digest bookkeeping -----------------------------------------

    fn tree(&self) -> MutexGuard<'_, ChunkTree> {
        // lint: allow(unwrap) — poisoned only by a panic while held, and
        // the tree code under it indexes only vectors it sized itself.
        self.tree.lock().expect("digest tree lock")
    }

    fn tree_mut(&mut self) -> &mut ChunkTree {
        // lint: allow(unwrap) — as for `tree`.
        self.tree.get_mut().expect("digest tree lock")
    }

    /// Records `key`'s new row (`None`: its deletion) in the digest tree.
    fn touch(&mut self, key: &[Value], row: Option<&Row>) {
        self.tree_mut().touch(key, row);
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
        self.touch(&key, Some(&row));
        self.index.insert(key, self.rows.len());
        self.rows.push(row);
        Ok(())
    }

    /// Inserts or replaces the row with the same key. Returns `true` if a
    /// row was replaced.
    pub fn upsert(&mut self, row: Row) -> Result<bool> {
        self.schema.check_row(&row)?;
        let key = self.schema.key_of(&row);
        self.touch(&key, Some(&row));
        if let Some(&pos) = self.index.get(&key) {
            self.rows[pos] = row;
            Ok(true)
        } else {
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
        let candidate = self.schema.assign(&self.rows[pos], assignments)?;
        self.touch(key, Some(&candidate));
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
        self.touch(key, None);
        Ok(removed)
    }

    /// Removes all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
        self.tree_mut().reset(0);
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
            self.touch(key, Some(row));
            self.rows[pos] = row.clone();
        }
        for key in &delta.deletes {
            inverse.inserts.push(self.delete(key)?);
        }
        for (row, key) in delta.inserts.iter().zip(insert_keys) {
            self.touch(&key, Some(row));
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
    /// The hash is served from the incremental digest tree: after `k`
    /// changed rows only the touched chunks and the `O(k · log2(chunks))`
    /// fold nodes on their dirty paths are rehashed — clean chunk digests
    /// and clean fold subtrees are reused as-is. Crossing a layout
    /// threshold re-buckets the cached leaves; a cold tree (fresh table or
    /// deserialization) triggers one full rebuild.
    pub fn content_hash(&self) -> Hash256 {
        let layout = chunk_count_for(self.rows.len());
        let mut tree = self.tree();
        if tree.is_cold() {
            let rows = self.rows.iter().map(|r| (self.schema.key_of(r), r));
            tree.build(layout, rows);
        } else {
            tree.set_layout(layout);
        }
        tree.root(&self.schema)
    }

    /// Snapshot of the incremental-hash work counters.
    #[cfg(test)]
    fn hash_stats(&self) -> crate::digest::HashStats {
        self.tree().stats()
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
    use crate::digest::CHUNK_TARGET;
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

        let cold =
            Table::from_rows(patients_schema(), t.rows().cloned().collect()).expect("rebuild");
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
