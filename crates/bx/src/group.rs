//! Source-side group index for the `ProjectDistinct` lens.
//!
//! `ProjectDistinct` collapses all source rows sharing a *group key* (the
//! view key, e.g. `medication_name`) into one view row. Translating a
//! group row's change therefore needs **all source rows of the group** —
//! the one piece of information a row-keyed table cannot answer without a
//! scan. A [`GroupIndex`] materializes exactly that mapping
//! (`group key → source row keys`), making the lens's incremental
//! `get_delta` / `put_delta` O(rows of the touched groups) instead of a
//! full recompute.
//!
//! Callers that keep a source table alive across many deltas can build
//! the index once ([`GroupIndex::build`]) and advance it alongside every
//! applied delta ([`GroupIndex::apply_source_delta`]); the incremental
//! executor also builds a partial, touched-groups-only index on the fly
//! when no cached index is supplied, which still avoids materializing and
//! diffing whole views.

use crate::error::BxError;
use crate::Result;
use medledger_relational::{Table, TableDelta, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A `group key → source row keys` index over one source table, for one
/// group-attribute list (the `ProjectDistinct` view key).
#[derive(Clone, Debug, Default)]
pub struct GroupIndex {
    group_attrs: Vec<String>,
    groups: BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>>,
}

impl GroupIndex {
    /// Builds the full index in one scan of `source`.
    pub fn build(source: &Table, group_attrs: &[String]) -> Result<Self> {
        Self::build_filtered(source, group_attrs, None)
    }

    /// Builds a partial index holding only the groups in `touched` — what
    /// one delta translation needs, in one scan without row clones beyond
    /// the touched groups' keys.
    pub fn build_partial(
        source: &Table,
        group_attrs: &[String],
        touched: &BTreeSet<Vec<Value>>,
    ) -> Result<Self> {
        Self::build_filtered(source, group_attrs, Some(touched))
    }

    fn build_filtered(
        source: &Table,
        group_attrs: &[String],
        touched: Option<&BTreeSet<Vec<Value>>>,
    ) -> Result<Self> {
        let idxs = group_attr_indexes(source, group_attrs)?;
        let schema = source.schema();
        let mut groups: BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> = BTreeMap::new();
        for row in source.rows() {
            let group: Vec<Value> = idxs.iter().map(|&i| row[i].clone()).collect();
            if let Some(filter) = touched {
                if !filter.contains(&group) {
                    continue;
                }
            }
            groups.entry(group).or_default().insert(schema.key_of(row));
        }
        Ok(GroupIndex {
            group_attrs: group_attrs.to_vec(),
            groups,
        })
    }

    /// The source row keys of one group (`None` if the group is absent).
    pub fn rows_of(&self, group: &[Value]) -> Option<&BTreeSet<Vec<Value>>> {
        self.groups.get(group)
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// True iff no groups are indexed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Advances the index past a delta of the source, given the source
    /// *before* the delta (needed to locate the old groups of updated and
    /// deleted rows). Cost is O(delta rows).
    pub fn apply_source_delta(&mut self, source_old: &Table, delta: &TableDelta) -> Result<()> {
        let idxs = group_attr_indexes(source_old, &self.group_attrs.clone())?;
        let schema = source_old.schema();
        let group_of = |row: &medledger_relational::Row| -> Vec<Value> {
            idxs.iter().map(|&i| row[i].clone()).collect()
        };
        for row in &delta.inserts {
            self.groups
                .entry(group_of(row))
                .or_default()
                .insert(schema.key_of(row));
        }
        for (key, new_row) in &delta.updates {
            let old_row = source_old.get(key).ok_or_else(|| BxError::InvalidDelta {
                reason: format!("delta references key {key:?} absent from the table"),
            })?;
            let old_group = group_of(old_row);
            let new_group = group_of(new_row);
            if old_group != new_group {
                self.remove_member(&old_group, key);
                self.groups
                    .entry(new_group)
                    .or_default()
                    .insert(key.clone());
            }
        }
        for key in &delta.deletes {
            let old_row = source_old.get(key).ok_or_else(|| BxError::InvalidDelta {
                reason: format!("delta references key {key:?} absent from the table"),
            })?;
            self.remove_member(&group_of(old_row), key);
        }
        Ok(())
    }

    fn remove_member(&mut self, group: &[Value], key: &[Value]) {
        if let Some(members) = self.groups.get_mut(group) {
            members.remove(key);
            if members.is_empty() {
                self.groups.remove(group);
            }
        }
    }
}

/// Resolves the group attributes to column indexes of `source`.
pub(crate) fn group_attr_indexes(source: &Table, group_attrs: &[String]) -> Result<Vec<usize>> {
    group_attrs
        .iter()
        .map(|a| source.schema().index_of(a).map_err(BxError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_relational::{diff_tables, row, Column, Schema, ValueType};

    fn src() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("mechanism_of_action", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema");
        Table::from_rows(
            schema,
            vec![
                row![1i64, "Ibuprofen", "MeA1"],
                row![2i64, "Wellbutrin", "MeA2"],
                row![3i64, "Ibuprofen", "MeA1"],
            ],
        )
        .expect("table")
    }

    fn attrs() -> Vec<String> {
        vec!["medication_name".to_string()]
    }

    #[test]
    fn build_groups_rows_by_key() {
        let idx = GroupIndex::build(&src(), &attrs()).expect("build");
        assert_eq!(idx.group_count(), 2);
        let ibu = idx.rows_of(&[Value::text("Ibuprofen")]).expect("group");
        assert_eq!(ibu.len(), 2);
        assert!(ibu.contains(&vec![Value::Int(1)]));
        assert!(ibu.contains(&vec![Value::Int(3)]));
        assert!(idx.rows_of(&[Value::text("Aspirin")]).is_none());
    }

    #[test]
    fn partial_build_restricts_to_touched_groups() {
        let touched: BTreeSet<Vec<Value>> = [vec![Value::text("Wellbutrin")]].into();
        let idx = GroupIndex::build_partial(&src(), &attrs(), &touched).expect("build");
        assert_eq!(idx.group_count(), 1);
        assert!(idx.rows_of(&[Value::text("Ibuprofen")]).is_none());
    }

    #[test]
    fn apply_source_delta_tracks_membership_moves() {
        let old = src();
        let mut new = old.clone();
        new.insert(row![4i64, "Ibuprofen", "MeA1"]).expect("insert");
        new.delete(&[Value::Int(2)]).expect("delete");
        // Patient 3 switches medication groups.
        new.update(
            &[Value::Int(3)],
            &[
                ("medication_name", Value::text("Aspirin")),
                ("mechanism_of_action", Value::text("MeA9")),
            ],
        )
        .expect("update");
        let delta = diff_tables(&old, &new);

        let mut idx = GroupIndex::build(&old, &attrs()).expect("build");
        idx.apply_source_delta(&old, &delta).expect("advance");
        let rebuilt = GroupIndex::build(&new, &attrs()).expect("rebuild");
        assert_eq!(idx.groups, rebuilt.groups);
    }

    #[test]
    fn apply_source_delta_rejects_stale_delta() {
        let old = src();
        let mut idx = GroupIndex::build(&old, &attrs()).expect("build");
        let stale = TableDelta {
            deletes: vec![vec![Value::Int(99)]],
            ..Default::default()
        };
        assert!(idx.apply_source_delta(&old, &stale).is_err());
    }
}
