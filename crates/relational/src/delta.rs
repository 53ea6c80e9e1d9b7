//! Row-level table deltas.
//!
//! The paper's update protocol is fine-grained (per-attribute permissions,
//! Fig. 3), and the propagation pipeline moves *row-level deltas* instead
//! of whole tables: peers compute a [`TableDelta`] between two versions of
//! a shared table, ship only the changed rows, and apply them with
//! [`crate::Table::apply_delta`]. [`changed_attrs`] / [`changed_attrs_from_delta`]
//! compute the attribute set the sharing contract checks write permission
//! on.

use crate::database::WriteOp;
use crate::error::RelationalError;
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A key-aligned difference between two versions of a table.
///
/// The three row sets are disjoint by key and canonically ordered, so two
/// peers diffing the same pair of tables produce byte-identical deltas.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct TableDelta {
    /// Rows present in `new` but not `old` (by key).
    pub inserts: Vec<Row>,
    /// Rows present in both but with differing non-key cells:
    /// `(key, new_row)`.
    pub updates: Vec<(Vec<Value>, Row)>,
    /// Keys present in `old` but not `new`.
    pub deletes: Vec<Vec<Value>>,
}

impl TableDelta {
    /// True iff the delta is empty (tables agree).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.updates.is_empty() && self.deletes.is_empty()
    }

    /// Total number of changed rows.
    pub fn row_count(&self) -> usize {
        self.inserts.len() + self.updates.len() + self.deletes.len()
    }

    /// Canonical wire size of the delta in bytes: what a peer actually
    /// ships over the data plane (the canonical row/key encodings plus a
    /// one-byte op tag each).
    pub fn encoded_size(&self) -> usize {
        let key_len = |k: &[Value]| k.iter().map(Value::encoded_len).sum::<usize>();
        let mut bytes = 8; // length header
        for r in &self.inserts {
            bytes += 1 + r.encoded_len();
        }
        for (k, r) in &self.updates {
            bytes += 1 + key_len(k) + r.encoded_len();
        }
        for k in &self.deletes {
            bytes += 1 + key_len(k);
        }
        bytes
    }

    /// Restores canonical ordering (used after building a delta from
    /// unordered parts).
    pub fn sort_canonical(&mut self, key_of: impl Fn(&Row) -> Vec<Value>) {
        self.inserts.sort_by_key(|r| key_of(r));
        self.updates.sort_by(|a, b| a.0.cmp(&b.0));
        self.deletes.sort();
    }

    /// The keys this delta touches (inserted, updated, deleted), given the
    /// schema's key extractor for insert rows.
    pub fn touched_keys(&self, key_of: impl Fn(&Row) -> Vec<Value>) -> BTreeSet<Vec<Value>> {
        let mut out: BTreeSet<Vec<Value>> = BTreeSet::new();
        for r in &self.inserts {
            out.insert(key_of(r));
        }
        for (k, _) in &self.updates {
            out.insert(k.clone());
        }
        for k in &self.deletes {
            out.insert(k.clone());
        }
        out
    }

    /// Sequential composition: the delta equivalent to applying `self`
    /// first and `then` second.
    ///
    /// `then` must be valid relative to the state *after* `self` applied
    /// (exactly the contract [`crate::Table::apply_delta`] enforces for a
    /// chain of applications); the result is valid relative to the state
    /// `self` applied to. This is the cross-peer generalization of the
    /// per-peer pending-row merge: later writes win per key, with
    /// insert/update/delete reclassified against the *original* base so
    /// the composed delta still applies in one shot:
    ///
    /// * insert then update → insert (the base never held the key),
    /// * insert then delete → nothing,
    /// * delete then insert → update (the base still holds the key),
    /// * update then delete → delete.
    pub fn compose(&self, then: &TableDelta, key_of: impl Fn(&Row) -> Vec<Value>) -> TableDelta {
        /// Per-key effect relative to the original base table.
        enum Op {
            Ins(Row),
            Upd(Row),
            Del,
        }
        let mut map: BTreeMap<Vec<Value>, Op> = BTreeMap::new();
        for r in &self.inserts {
            map.insert(key_of(r), Op::Ins(r.clone()));
        }
        for (k, r) in &self.updates {
            map.insert(k.clone(), Op::Upd(r.clone()));
        }
        for k in &self.deletes {
            map.insert(k.clone(), Op::Del);
        }
        for r in &then.inserts {
            let key = key_of(r);
            match map.get(&key) {
                // The base held the key (self deleted it): re-creating it
                // is an update of the base.
                Some(Op::Del) => {
                    map.insert(key, Op::Upd(r.clone()));
                }
                _ => {
                    map.insert(key, Op::Ins(r.clone()));
                }
            }
        }
        for (k, r) in &then.updates {
            match map.get(k) {
                // The key never existed in the base: it stays an insert.
                Some(Op::Ins(_)) => {
                    map.insert(k.clone(), Op::Ins(r.clone()));
                }
                _ => {
                    map.insert(k.clone(), Op::Upd(r.clone()));
                }
            }
        }
        for k in &then.deletes {
            match map.get(k) {
                // Inserted by self, deleted by then: a no-op on the base.
                Some(Op::Ins(_)) => {
                    map.remove(k);
                }
                _ => {
                    map.insert(k.clone(), Op::Del);
                }
            }
        }
        let mut out = TableDelta::default();
        for (key, op) in map {
            match op {
                Op::Ins(r) => out.inserts.push(r),
                Op::Upd(r) => out.updates.push((key, r)),
                Op::Del => out.deletes.push(key),
            }
        }
        // The map iterates in key order, so the parts are already sorted
        // canonically.
        out
    }

    /// Merges deltas whose touched key sets are pairwise disjoint (e.g.
    /// per-shard splits or per-shard inverses) back into one canonically
    /// ordered delta. The disjointness is the caller's invariant; under
    /// it, applying the merge equals applying the parts in any order.
    pub fn merge_disjoint(
        parts: impl IntoIterator<Item = TableDelta>,
        key_of: impl Fn(&Row) -> Vec<Value>,
    ) -> TableDelta {
        let mut out = TableDelta::default();
        for part in parts {
            out.inserts.extend(part.inserts);
            out.updates.extend(part.updates);
            out.deletes.extend(part.deletes);
        }
        out.sort_canonical(key_of);
        out
    }
}

/// Keyed read access to one version of a table: all the delta helpers
/// below need of the side a delta is computed against. [`Table`]
/// implements it, and so does [`crate::ShardMap`], so a peer's sharded
/// store answers them without being assembled first.
pub trait KeyedRows {
    /// The rows' schema.
    fn schema(&self) -> &Schema;
    /// The row with primary key `key`, if present.
    fn get(&self, key: &[Value]) -> Option<&Row>;
    /// Every row, in unspecified order.
    fn rows(&self) -> impl Iterator<Item = &Row>;
}

impl KeyedRows for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }
    fn get(&self, key: &[Value]) -> Option<&Row> {
        Table::get(self, key)
    }
    fn rows(&self) -> impl Iterator<Item = &Row> {
        Table::rows(self)
    }
}

/// Computes the key-aligned delta from `old` to `new`.
///
/// Both tables must share a schema; the caller guarantees this (they are
/// two versions of the same shared table).
pub fn diff_tables(old: &impl KeyedRows, new: &impl KeyedRows) -> TableDelta {
    let mut delta = TableDelta::default();
    for nrow in new.rows() {
        let key = new.schema().key_of(nrow);
        match old.get(&key) {
            None => delta.inserts.push(nrow.clone()),
            Some(orow) => {
                if orow != nrow {
                    delta.updates.push((key, nrow.clone()));
                }
            }
        }
    }
    for orow in old.rows() {
        let key = old.schema().key_of(orow);
        if new.get(&key).is_none() {
            delta.deletes.push(key);
        }
    }
    // Canonical order for determinism.
    let schema = new.schema().clone();
    delta.sort_canonical(|r| schema.key_of(r));
    delta
}

/// The set of attribute names whose values differ between `old` and `new`.
///
/// * For updated rows, only the columns that actually changed count.
/// * Inserted and deleted rows count as touching **every** column (their
///   whole contents appear/disappear).
pub fn changed_attrs(old: &impl KeyedRows, new: &impl KeyedRows) -> BTreeSet<String> {
    let delta = diff_tables(old, new);
    changed_attrs_from_delta(old, &delta)
}

/// The changed-attribute set of a delta relative to the table it applies
/// to, with the same semantics as [`changed_attrs`] — but computed in
/// O(delta) instead of O(table).
pub fn changed_attrs_from_delta(old: &impl KeyedRows, delta: &TableDelta) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let schema = old.schema();
    if !delta.inserts.is_empty() || !delta.deletes.is_empty() {
        for c in schema.columns() {
            out.insert(c.name.clone());
        }
        return out;
    }
    for (key, nrow) in &delta.updates {
        if let Some(orow) = old.get(key) {
            for (i, col) in schema.columns().iter().enumerate() {
                if orow[i] != nrow[i] {
                    out.insert(col.name.clone());
                }
            }
        }
    }
    out
}

/// Expresses a single [`WriteOp`] against `table` as a [`TableDelta`],
/// validating it against the current contents — the entry point of the
/// delta pipeline: a staged write becomes a one-row delta in O(1) lookups
/// instead of a full-table diff.
pub fn delta_from_write_op(table: &impl KeyedRows, op: &WriteOp) -> Result<TableDelta> {
    let schema = table.schema();
    let mut delta = TableDelta::default();
    match op {
        WriteOp::Insert { row } => {
            schema.check_row(row)?;
            let key = schema.key_of(row);
            if table.get(&key).is_some() {
                return Err(RelationalError::DuplicateKey {
                    key: format!("{key:?}"),
                });
            }
            delta.inserts.push(row.clone());
        }
        WriteOp::Upsert { row } => {
            schema.check_row(row)?;
            let key = schema.key_of(row);
            if table.get(&key).is_some() {
                delta.updates.push((key, row.clone()));
            } else {
                delta.inserts.push(row.clone());
            }
        }
        WriteOp::Update { key, assignments } => {
            let current = table.get(key).ok_or_else(|| RelationalError::KeyNotFound {
                key: format!("{key:?}"),
            })?;
            let mut candidate = current.clone();
            for (col, val) in assignments {
                let idx = schema.index_of(col)?;
                if schema.key_indexes().contains(&idx) {
                    return Err(RelationalError::InvalidKey {
                        reason: format!("cannot assign key column `{col}` in update"),
                    });
                }
                *candidate.get_mut(idx).expect("index valid") = val.clone();
            }
            schema.check_row(&candidate)?;
            delta.updates.push((key.clone(), candidate));
        }
        WriteOp::Delete { key } => {
            if table.get(key).is_none() {
                return Err(RelationalError::KeyNotFound {
                    key: format!("{key:?}"),
                });
            }
            delta.deletes.push(key.clone());
        }
        WriteOp::Replace { rows } => {
            let fresh = Table::from_rows(schema.clone(), rows.clone())?;
            delta = diff_tables(table, &fresh);
        }
        WriteOp::Delta { delta: d } => {
            delta = d.clone();
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, Schema};
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

    fn base() -> Table {
        Table::from_rows(
            schema(),
            vec![
                row![1i64, "Ibuprofen", "1x"],
                row![2i64, "Wellbutrin", "2x"],
            ],
        )
        .expect("table")
    }

    #[test]
    fn identical_tables_empty_delta() {
        let t = base();
        let d = diff_tables(&t, &t.clone());
        assert!(d.is_empty());
        assert_eq!(d.row_count(), 0);
        assert!(changed_attrs(&t, &t.clone()).is_empty());
    }

    #[test]
    fn detects_update_and_changed_attr() {
        let old = base();
        let mut new = base();
        new.update(&[Value::Int(1)], &[("dose", Value::text("3x"))])
            .expect("update");
        let d = diff_tables(&old, &new);
        assert_eq!(d.updates.len(), 1);
        assert!(d.inserts.is_empty() && d.deletes.is_empty());
        let attrs = changed_attrs(&old, &new);
        assert_eq!(
            attrs.into_iter().collect::<Vec<_>>(),
            vec!["dose".to_string()]
        );
    }

    #[test]
    fn detects_insert_delete_and_all_attrs() {
        let old = base();
        let mut new = base();
        new.insert(row![3i64, "Aspirin", "1x"]).expect("insert");
        let d = diff_tables(&old, &new);
        assert_eq!(d.inserts.len(), 1);
        assert_eq!(changed_attrs(&old, &new).len(), 3);

        let mut gone = base();
        gone.delete(&[Value::Int(2)]).expect("delete");
        let d2 = diff_tables(&old, &gone);
        assert_eq!(d2.deletes, vec![vec![Value::Int(2)]]);
        assert_eq!(changed_attrs(&old, &gone).len(), 3);
    }

    #[test]
    fn mixed_delta_is_canonically_ordered() {
        let old = base();
        let mut new = base();
        new.delete(&[Value::Int(1)]).expect("delete");
        new.insert(row![5i64, "E", "e"]).expect("insert");
        new.insert(row![4i64, "D", "d"]).expect("insert");
        new.update(&[Value::Int(2)], &[("dose", Value::text("9x"))])
            .expect("update");
        let d = diff_tables(&old, &new);
        assert_eq!(d.inserts.len(), 2);
        assert_eq!(d.inserts[0][0], Value::Int(4));
        assert_eq!(d.inserts[1][0], Value::Int(5));
        assert_eq!(d.updates.len(), 1);
        assert_eq!(d.deletes.len(), 1);
        assert_eq!(d.row_count(), 4);
    }

    #[test]
    fn apply_delta_reproduces_target_and_inverse_reverts() -> Result<()> {
        let old = base();
        let mut new = base();
        new.delete(&[Value::Int(1)])?;
        new.insert(row![4i64, "D", "d"])?;
        new.update(&[Value::Int(2)], &[("dose", Value::text("9x"))])?;
        let d = diff_tables(&old, &new);

        let mut replayed = old.clone();
        let inverse = replayed.apply_delta(&d)?;
        assert_eq!(replayed.content_hash(), new.content_hash());
        assert_eq!(replayed, new);

        replayed.apply_delta(&inverse)?;
        assert_eq!(replayed.content_hash(), old.content_hash());
        assert_eq!(replayed, old);
        Ok(())
    }

    #[test]
    fn apply_delta_is_atomic_on_invalid_delta() {
        let mut t = base();
        let before = t.clone();
        // Update of a missing key must not partially apply the rest.
        let d = TableDelta {
            inserts: vec![row![9i64, "N", "n"]],
            updates: vec![(vec![Value::Int(77)], row![77i64, "X", "x"])],
            deletes: vec![],
        };
        assert!(t.apply_delta(&d).is_err());
        assert_eq!(t, before);
        assert_eq!(t.content_hash(), before.content_hash());
    }

    #[test]
    fn delta_from_write_op_matches_apply_semantics() -> Result<()> {
        let t = base();
        for op in [
            WriteOp::Insert {
                row: row![3i64, "Aspirin", "1x"],
            },
            WriteOp::Upsert {
                row: row![1i64, "Ibuprofen", "5x"],
            },
            WriteOp::Update {
                key: vec![Value::Int(2)],
                assignments: vec![("dose".into(), Value::text("7x"))],
            },
            WriteOp::Delete {
                key: vec![Value::Int(1)],
            },
            WriteOp::Replace {
                rows: vec![row![9i64, "N", "n"]],
            },
        ] {
            // Applying the derived delta must equal applying the op.
            let delta = delta_from_write_op(&t, &op)?;
            let mut via_delta = t.clone();
            via_delta.apply_delta(&delta)?;
            let mut db = crate::Database::new("x");
            db.put_table("t", t.clone())?;
            db.apply("t", op)?;
            assert_eq!(&via_delta, db.table("t")?);
            assert_eq!(via_delta.content_hash(), db.table("t")?.content_hash());
        }
        // Invalid ops are rejected up front.
        assert!(delta_from_write_op(
            &t,
            &WriteOp::Delete {
                key: vec![Value::Int(42)]
            }
        )
        .is_err());
        Ok(())
    }

    /// Exhaustive pairwise composition check: for every pair of small
    /// deltas (valid in sequence), applying the composition must equal
    /// applying the two in order, and the inverse of the composition must
    /// restore the base.
    #[test]
    fn compose_equals_sequential_application() -> Result<()> {
        let base = base();
        let schema = schema();
        // A set of first deltas covering insert/update/delete.
        let firsts = vec![
            TableDelta {
                inserts: vec![row![3i64, "Aspirin", "1x"]],
                ..Default::default()
            },
            TableDelta {
                updates: vec![(vec![Value::Int(1)], row![1i64, "Ibuprofen", "5x"])],
                ..Default::default()
            },
            TableDelta {
                deletes: vec![vec![Value::Int(2)]],
                ..Default::default()
            },
            TableDelta {
                inserts: vec![row![4i64, "D", "d"]],
                updates: vec![(vec![Value::Int(1)], row![1i64, "Ibuprofen", "7x"])],
                deletes: vec![vec![Value::Int(2)]],
            },
        ];
        for first in &firsts {
            let mut mid = base.clone();
            mid.apply_delta(first)?;
            // Second deltas derived from the mid state, hitting every
            // reclassification case: update-after-insert, delete-after-
            // insert, insert-after-delete, delete-after-update.
            let mut seconds = vec![TableDelta::default()];
            if mid.contains_key(&[Value::Int(3)]) {
                seconds.push(TableDelta {
                    updates: vec![(vec![Value::Int(3)], row![3i64, "Aspirin", "9x"])],
                    deletes: vec![],
                    inserts: vec![],
                });
                seconds.push(TableDelta {
                    deletes: vec![vec![Value::Int(3)]],
                    ..Default::default()
                });
            }
            if !mid.contains_key(&[Value::Int(2)]) {
                seconds.push(TableDelta {
                    inserts: vec![row![2i64, "Wellbutrin", "back"]],
                    ..Default::default()
                });
            }
            if mid.contains_key(&[Value::Int(1)]) {
                seconds.push(TableDelta {
                    deletes: vec![vec![Value::Int(1)]],
                    ..Default::default()
                });
            }
            for second in &seconds {
                let mut sequential = mid.clone();
                sequential.apply_delta(second)?;
                let composed = first.compose(second, |r| schema.key_of(r));
                let mut one_shot = base.clone();
                let inverse = one_shot.apply_delta(&composed)?;
                assert_eq!(one_shot, sequential);
                assert_eq!(one_shot.content_hash(), sequential.content_hash());
                // Inverse of the composed delta restores the base.
                one_shot.apply_delta(&inverse)?;
                assert_eq!(one_shot, base);
            }
        }
        Ok(())
    }

    #[test]
    fn touched_keys_covers_all_parts() {
        let s = schema();
        let d = TableDelta {
            inserts: vec![row![4i64, "D", "d"]],
            updates: vec![(vec![Value::Int(1)], row![1i64, "Ibuprofen", "7x"])],
            deletes: vec![vec![Value::Int(2)]],
        };
        let keys = d.touched_keys(|r| s.key_of(r));
        assert_eq!(keys.len(), 3);
        assert!(keys.contains(&vec![Value::Int(4)]));
        assert!(keys.contains(&vec![Value::Int(1)]));
        assert!(keys.contains(&vec![Value::Int(2)]));
    }

    #[test]
    fn encoded_size_tracks_row_count_not_table_size() {
        let old = base();
        let mut new = base();
        new.update(&[Value::Int(1)], &[("dose", Value::text("3x"))])
            .expect("update");
        let d = diff_tables(&old, &new);
        let small = d.encoded_size();
        assert!(small > 8);
        // A two-row delta is roughly twice the one-row delta, regardless
        // of how many untouched rows the tables hold.
        let mut new2 = new.clone();
        new2.update(&[Value::Int(2)], &[("dose", Value::text("4x"))])
            .expect("update");
        let d2 = diff_tables(&old, &new2);
        assert!(d2.encoded_size() > small && d2.encoded_size() < small * 3);
    }
}
