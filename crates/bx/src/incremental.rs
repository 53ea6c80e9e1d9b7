//! Incremental lens execution: pushing row-level deltas through lenses.
//!
//! The full-table operations in [`crate::exec`] recompute the entire view
//! (`get`) or the entire source (`put`) on every propagation. This module
//! provides the delta forms the propagation pipeline runs on its hot path:
//!
//! * [`get_delta`] — translate a *source* delta into the corresponding
//!   *view* delta (forward direction, Fig. 5 step 1 / step 6),
//! * [`put_delta`] — translate a *view* delta into the corresponding
//!   *source* delta (backward direction, Fig. 5 steps 5 / 11),
//!
//! each semantically equivalent to running the full transformation on the
//! delta-applied table and diffing — the equivalence the tests in this
//! module assert for every combinator.
//!
//! Incrementality per combinator:
//!
//! * `Project`, `Select`, `Rename` — fully incremental: cost is
//!   O(delta rows), with per-row key lookups into the unchanged table.
//! * `Compose` — partially incremental: the delta is pushed through both
//!   stages row-by-row, but the intermediate view must be materialized
//!   once (an O(table) `get` of the first stage) to anchor the second
//!   stage's lookups.
//! * `ProjectDistinct` — incremental via the source-side **group index**
//!   ([`crate::group::GroupIndex`], `group key → source row keys`):
//!   translating a group row's change touches only that group's source
//!   rows. With a cached index ([`get_delta_indexed`] /
//!   [`put_delta_indexed`]) the cost is O(rows of the touched groups);
//!   without one, a partial touched-groups-only index is built in a
//!   single scan — no view materialization, no full diff.

use crate::error::BxError;
use crate::exec::{self, get};
use crate::group::{group_attr_indexes, GroupIndex};
use crate::spec::LensSpec;
use crate::Result;
use medledger_relational::{Predicate, RelationalError, Row, Table, TableDelta, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Translates a delta of the **source** into the delta of the **view**.
///
/// `source_old` is the source *before* `source_delta` is applied; the
/// result is the view-side delta such that
/// `get(source_old) + result == get(source_old + source_delta)`.
pub fn get_delta(
    spec: &LensSpec,
    source_old: &Table,
    source_delta: &TableDelta,
) -> Result<TableDelta> {
    if source_delta.is_empty() {
        return Ok(TableDelta::default());
    }
    match spec {
        LensSpec::Project {
            attrs, view_key, ..
        } => get_delta_project(source_old, source_delta, attrs, view_key),
        LensSpec::Select { pred } => get_delta_select(source_old, source_delta, pred),
        LensSpec::Rename { .. } => Ok(source_delta.clone()),
        LensSpec::Compose { first, second } => {
            let mid_delta = get_delta(first, source_old, source_delta)?;
            if mid_delta.is_empty() {
                return Ok(TableDelta::default());
            }
            let mid_old = get(first, source_old)?;
            get_delta(second, &mid_old, &mid_delta)
        }
        LensSpec::ProjectDistinct { attrs, view_key } => {
            get_delta_project_distinct(source_old, source_delta, attrs, view_key, None)
        }
    }
}

/// [`get_delta`] with a caller-maintained [`GroupIndex`] over the source
/// (keyed by the `ProjectDistinct` view key). The index makes the
/// group-membership lookups O(group) instead of a source scan; for every
/// other combinator the index is ignored.
pub fn get_delta_indexed(
    spec: &LensSpec,
    source_old: &Table,
    source_delta: &TableDelta,
    index: &GroupIndex,
) -> Result<TableDelta> {
    match spec {
        LensSpec::ProjectDistinct { attrs, view_key } if !source_delta.is_empty() => {
            get_delta_project_distinct(source_old, source_delta, attrs, view_key, Some(index))
        }
        _ => get_delta(spec, source_old, source_delta),
    }
}

/// Translates a delta of the **view** into the delta of the **source**.
///
/// `source` is the source *before* the update; the result is the
/// source-side delta such that
/// `source + result == put(source, get(source) + view_delta)`.
/// Untranslatable view changes error exactly as the full
/// [`crate::exec::put`] would — this is what makes the pipeline's
/// pre-flight check equivalent to trying the full `put` on every peer.
pub fn put_delta(spec: &LensSpec, source: &Table, view_delta: &TableDelta) -> Result<TableDelta> {
    if view_delta.is_empty() {
        return Ok(TableDelta::default());
    }
    match spec {
        LensSpec::Project {
            attrs,
            view_key,
            defaults,
        } => put_delta_project(source, view_delta, attrs, view_key, defaults),
        LensSpec::Select { pred } => put_delta_select(source, view_delta, pred),
        LensSpec::Rename { from, to } => put_delta_rename(source, view_delta, from, to),
        LensSpec::Compose { first, second } => {
            let mid = get(first, source)?;
            let mid_delta = put_delta(second, &mid, view_delta)?;
            put_delta(first, source, &mid_delta)
        }
        LensSpec::ProjectDistinct { attrs, view_key } => {
            put_delta_project_distinct(source, view_delta, attrs, view_key, None)
        }
    }
}

/// [`put_delta`] with a caller-maintained [`GroupIndex`] over the source
/// (keyed by the `ProjectDistinct` view key); see [`get_delta_indexed`].
pub fn put_delta_indexed(
    spec: &LensSpec,
    source: &Table,
    view_delta: &TableDelta,
    index: &GroupIndex,
) -> Result<TableDelta> {
    match spec {
        LensSpec::ProjectDistinct { attrs, view_key } if !view_delta.is_empty() => {
            put_delta_project_distinct(source, view_delta, attrs, view_key, Some(index))
        }
        _ => put_delta(spec, source, view_delta),
    }
}

// ----------------------------------------------------------------------
// get_delta combinators
// ----------------------------------------------------------------------

fn get_delta_project(
    source_old: &Table,
    source_delta: &TableDelta,
    attrs: &[String],
    view_key: &[String],
) -> Result<TableDelta> {
    exec::check_project_key(source_old, view_key)?;
    let idxs: Vec<usize> = attrs
        .iter()
        .map(|a| source_old.schema().index_of(a).map_err(BxError::from))
        .collect::<Result<_>>()?;
    let mut out = TableDelta::default();
    for row in &source_delta.inserts {
        out.inserts.push(row.project(&idxs));
    }
    for (key, new_row) in &source_delta.updates {
        let old_row = lookup(source_old, key)?;
        let projected_new = new_row.project(&idxs);
        if old_row.project(&idxs) != projected_new {
            out.updates.push((key.clone(), projected_new));
        }
    }
    out.deletes = source_delta.deletes.clone();
    let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
    let view_schema = source_old.schema().project(&a, &k)?;
    out.sort_canonical(|r| view_schema.key_of(r));
    Ok(out)
}

fn get_delta_select(
    source_old: &Table,
    source_delta: &TableDelta,
    pred: &Predicate,
) -> Result<TableDelta> {
    let schema = source_old.schema();
    let mut out = TableDelta::default();
    for row in &source_delta.inserts {
        if pred.eval(schema, row)? {
            out.inserts.push(row.clone());
        }
    }
    for (key, new_row) in &source_delta.updates {
        let old_row = lookup(source_old, key)?;
        let was_visible = pred.eval(schema, old_row)?;
        let is_visible = pred.eval(schema, new_row)?;
        match (was_visible, is_visible) {
            (true, true) => out.updates.push((key.clone(), new_row.clone())),
            (true, false) => out.deletes.push(key.clone()),
            (false, true) => out.inserts.push(new_row.clone()),
            (false, false) => {}
        }
    }
    for key in &source_delta.deletes {
        let old_row = lookup(source_old, key)?;
        if pred.eval(schema, old_row)? {
            out.deletes.push(key.clone());
        }
    }
    let schema = schema.clone();
    out.sort_canonical(|r| schema.key_of(r));
    Ok(out)
}

/// `ProjectDistinct` forward direction via the group index: only the
/// groups the source delta touches are re-projected. Equivalent to the
/// retired full-recompute fallback (apply, full `get` twice, diff) —
/// including the functional-dependency check, evaluated on the touched
/// groups' post-delta rows.
fn get_delta_project_distinct(
    source_old: &Table,
    source_delta: &TableDelta,
    attrs: &[String],
    view_key: &[String],
    index: Option<&GroupIndex>,
) -> Result<TableDelta> {
    let src_schema = source_old.schema();
    let group_idx = group_attr_indexes(source_old, view_key)?;
    let attr_idx = group_attr_indexes(source_old, attrs)?;
    let view_schema = {
        let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
        src_schema.project(&a, &k).map_err(BxError::from)?
    };
    let group_of =
        |row: &Row| -> Vec<Value> { group_idx.iter().map(|&i| row[i].clone()).collect() };
    let proj_of = |row: &Row| -> Row { row.project(&attr_idx) };
    let old_row = |key: &[Value]| -> Result<&Row> { lookup(source_old, key) };

    // The groups whose membership or values the delta can change.
    let mut touched: BTreeSet<Vec<Value>> = BTreeSet::new();
    for row in &source_delta.inserts {
        let key = src_schema.key_of(row);
        if source_old.contains_key(&key) {
            return Err(BxError::InvalidDelta {
                reason: format!("insert of key {key:?} already present in the table"),
            });
        }
        touched.insert(group_of(row));
    }
    for (key, new_row) in &source_delta.updates {
        touched.insert(group_of(old_row(key)?));
        touched.insert(group_of(new_row));
    }
    for key in &source_delta.deletes {
        touched.insert(group_of(old_row(key)?));
    }

    // Membership of the touched groups: the cached index, or a partial
    // one built in a single scan.
    let partial;
    let members = match index {
        Some(idx) => idx,
        None => {
            partial = GroupIndex::build_partial(source_old, view_key, &touched)?;
            &partial
        }
    };

    // Keys the delta removes from / rewrites in their old group.
    let mut displaced: BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for (key, _) in &source_delta.updates {
        displaced
            .entry(group_of(old_row(key)?))
            .or_default()
            .insert(key.clone());
    }
    for key in &source_delta.deletes {
        displaced
            .entry(group_of(old_row(key)?))
            .or_default()
            .insert(key.clone());
    }

    let mut out = TableDelta::default();
    for group in &touched {
        let old_members = members.rows_of(group);
        let old_proj: Option<Row> = match old_members {
            Some(m) => Some(proj_of(old_row(m.iter().next().expect("non-empty group"))?)),
            None => None,
        };
        // Rows of this group after the delta: untouched old members keep
        // the old projection; inserted and updated-in rows contribute
        // their new projections.
        let untouched_remaining = match old_members {
            Some(m) => {
                let gone = displaced.get(group).map(BTreeSet::len).unwrap_or(0);
                m.len() - gone
            }
            None => 0,
        };
        let mut new_proj: Option<Row> = if untouched_remaining > 0 {
            old_proj.clone()
        } else {
            None
        };
        let check_fd = |candidate: Row, new_proj: &mut Option<Row>| -> Result<()> {
            match new_proj {
                None => {
                    *new_proj = Some(candidate);
                    Ok(())
                }
                Some(existing) if *existing == candidate => Ok(()),
                Some(existing) => Err(BxError::Relational(RelationalError::FdViolation {
                    reason: format!(
                        "rows with key {group:?} disagree on projected attributes: \
                         {existing:?} vs {candidate:?}"
                    ),
                })),
            }
        };
        for row in &source_delta.inserts {
            if group_of(row) == *group {
                check_fd(proj_of(row), &mut new_proj)?;
            }
        }
        for (_, new_row) in &source_delta.updates {
            if group_of(new_row) == *group {
                check_fd(proj_of(new_row), &mut new_proj)?;
            }
        }
        match (old_proj, new_proj) {
            (Some(_), None) => out.deletes.push(group.clone()),
            (Some(old), Some(new)) => {
                if old != new {
                    out.updates.push((group.clone(), new));
                }
            }
            (None, Some(new)) => out.inserts.push(new),
            (None, None) => {}
        }
    }
    out.sort_canonical(|r| view_schema.key_of(r));
    Ok(out)
}

// ----------------------------------------------------------------------
// put_delta combinators
// ----------------------------------------------------------------------

fn put_delta_project(
    source: &Table,
    view_delta: &TableDelta,
    attrs: &[String],
    view_key: &[String],
    defaults: &BTreeMap<String, Value>,
) -> Result<TableDelta> {
    exec::check_project_key(source, view_key)?;
    let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
    let view_schema = source.schema().project(&a, &k)?;
    let src_schema = source.schema();
    let view_pos: BTreeMap<&str, usize> = attrs
        .iter()
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();

    let mut out = TableDelta::default();
    for vrow in &view_delta.inserts {
        view_schema.check_row(vrow).map_err(invalid_view)?;
        let key = view_schema.key_of(vrow);
        if source.contains_key(&key) {
            return Err(BxError::InvalidDelta {
                reason: format!("view insert {vrow:?} duplicates an existing source key"),
            });
        }
        // Dropped columns come from defaults or NULL (if nullable);
        // otherwise the insert is untranslatable — same rule as full put.
        let mut cells = Vec::with_capacity(src_schema.arity());
        for col in src_schema.columns() {
            if let Some(&vp) = view_pos.get(col.name.as_str()) {
                cells.push(vrow[vp].clone());
            } else if let Some(d) = defaults.get(&col.name) {
                cells.push(d.clone());
            } else if col.nullable {
                cells.push(Value::Null);
            } else {
                return Err(BxError::Untranslatable {
                    reason: format!(
                        "insert of view row {vrow:?} needs a value for dropped \
                         non-nullable column `{}` (declare a default)",
                        col.name
                    ),
                });
            }
        }
        out.inserts.push(Row::new(cells));
    }
    for (key, vrow) in &view_delta.updates {
        view_schema.check_row(vrow).map_err(invalid_view)?;
        if view_schema.key_of(vrow) != *key {
            return Err(BxError::InvalidDelta {
                reason: format!("view update row {vrow:?} disagrees with its declared key"),
            });
        }
        let srow = lookup(source, key)?;
        let merged: Vec<Value> = src_schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, col)| match view_pos.get(col.name.as_str()) {
                Some(&vp) => vrow[vp].clone(),
                None => srow[i].clone(),
            })
            .collect();
        let merged = Row::new(merged);
        if merged != *srow {
            out.updates.push((key.clone(), merged));
        }
    }
    for key in &view_delta.deletes {
        lookup(source, key)?;
        out.deletes.push(key.clone());
    }
    let schema = src_schema.clone();
    out.sort_canonical(|r| schema.key_of(r));
    Ok(out)
}

fn put_delta_select(
    source: &Table,
    view_delta: &TableDelta,
    pred: &Predicate,
) -> Result<TableDelta> {
    let schema = source.schema();
    let mut out = TableDelta::default();
    for vrow in &view_delta.inserts {
        schema.check_row(vrow).map_err(invalid_view)?;
        if !pred.eval(schema, vrow)? {
            return Err(BxError::InvalidView {
                reason: format!("view row {vrow:?} does not satisfy select predicate {pred}"),
            });
        }
        let key = schema.key_of(vrow);
        if let Some(existing) = source.get(&key) {
            if pred.eval(schema, existing)? {
                return Err(BxError::InvalidDelta {
                    reason: format!("view insert {vrow:?} duplicates a visible view row"),
                });
            }
            // Same conflict the full put reports: the insert collides
            // with a source row the predicate hides.
            return Err(BxError::Untranslatable {
                reason: format!(
                    "view row {vrow:?} collides with a source row hidden by the predicate"
                ),
            });
        }
        out.inserts.push(vrow.clone());
    }
    for (key, vrow) in &view_delta.updates {
        schema.check_row(vrow).map_err(invalid_view)?;
        if !pred.eval(schema, vrow)? {
            return Err(BxError::InvalidView {
                reason: format!("view row {vrow:?} does not satisfy select predicate {pred}"),
            });
        }
        let old = lookup(source, key)?;
        if !pred.eval(schema, old)? {
            return Err(BxError::InvalidDelta {
                reason: "view update targets a source row the predicate hides".to_string(),
            });
        }
        if vrow != old {
            out.updates.push((key.clone(), vrow.clone()));
        }
    }
    for key in &view_delta.deletes {
        let old = lookup(source, key)?;
        if !pred.eval(schema, old)? {
            return Err(BxError::InvalidDelta {
                reason: "view delete targets a source row the predicate hides".to_string(),
            });
        }
        out.deletes.push(key.clone());
    }
    let schema = schema.clone();
    out.sort_canonical(|r| schema.key_of(r));
    Ok(out)
}

fn put_delta_rename(
    source: &Table,
    view_delta: &TableDelta,
    from: &str,
    to: &str,
) -> Result<TableDelta> {
    // The view schema is the source schema with `from` renamed to `to`;
    // cell order and key positions are unchanged, so rows pass through.
    let expected = source.schema().rename(from, to)?;
    let mut out = TableDelta::default();
    for vrow in &view_delta.inserts {
        expected.check_row(vrow).map_err(invalid_view)?;
        if source.contains_key(&expected.key_of(vrow)) {
            return Err(BxError::InvalidDelta {
                reason: format!("view insert {vrow:?} duplicates an existing source key"),
            });
        }
        out.inserts.push(vrow.clone());
    }
    for (key, vrow) in &view_delta.updates {
        expected.check_row(vrow).map_err(invalid_view)?;
        let old = lookup(source, key)?;
        if vrow != old {
            out.updates.push((key.clone(), vrow.clone()));
        }
    }
    for key in &view_delta.deletes {
        lookup(source, key)?;
        out.deletes.push(key.clone());
    }
    let schema = source.schema().clone();
    out.sort_canonical(|r| schema.key_of(r));
    Ok(out)
}

/// `ProjectDistinct` backward direction via the group index: a view-row
/// change fans out to exactly its group's source rows (the Fig. 5
/// one-edit-rewrites-every-patient-row semantics), a group delete drops
/// them, and an insert of a brand new group stays untranslatable — all
/// with the same error classification as the retired full-recompute
/// fallback.
fn put_delta_project_distinct(
    source: &Table,
    view_delta: &TableDelta,
    attrs: &[String],
    view_key: &[String],
    index: Option<&GroupIndex>,
) -> Result<TableDelta> {
    let src_schema = source.schema();
    let attr_idx = group_attr_indexes(source, attrs)?;
    let view_schema = {
        let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
        src_schema.project(&a, &k).map_err(BxError::from)?
    };

    let mut touched: BTreeSet<Vec<Value>> = BTreeSet::new();
    for vrow in &view_delta.inserts {
        view_schema.check_row(vrow).map_err(invalid_view)?;
        touched.insert(view_schema.key_of(vrow));
    }
    for (group, vrow) in &view_delta.updates {
        view_schema.check_row(vrow).map_err(invalid_view)?;
        if view_schema.key_of(vrow) != *group {
            return Err(BxError::InvalidDelta {
                reason: format!("view update row {vrow:?} disagrees with its declared key"),
            });
        }
        touched.insert(group.clone());
    }
    for group in &view_delta.deletes {
        touched.insert(group.clone());
    }

    let partial;
    let members = match index {
        Some(idx) => idx,
        None => {
            partial = GroupIndex::build_partial(source, view_key, &touched)?;
            &partial
        }
    };
    let members_of = |group: &[Value]| -> Result<&BTreeSet<Vec<Value>>> {
        members.rows_of(group).ok_or_else(|| BxError::InvalidDelta {
            reason: format!("delta references group key {group:?} absent from the view"),
        })
    };

    let mut out = TableDelta::default();
    if let Some(vrow) = view_delta.inserts.first() {
        let group = view_schema.key_of(vrow);
        if members.rows_of(&group).is_some() {
            return Err(BxError::InvalidDelta {
                reason: format!("view insert {vrow:?} duplicates an existing view row"),
            });
        }
        return Err(BxError::Untranslatable {
            reason: format!(
                "view insert {vrow:?} introduces group key not present in the source; \
                 no source rows exist to carry it"
            ),
        });
    }
    for (group, vrow) in &view_delta.updates {
        for key in members_of(group)? {
            let srow = lookup(source, key)?;
            let mut cells: Vec<Value> = srow.iter().cloned().collect();
            // attrs[i] sits at position i of the view row.
            for (view_pos, &src_i) in attr_idx.iter().enumerate() {
                cells[src_i] = vrow[view_pos].clone();
            }
            let merged = Row::new(cells);
            if merged != *srow {
                out.updates.push((key.clone(), merged));
            }
        }
    }
    for group in &view_delta.deletes {
        for key in members_of(group)? {
            out.deletes.push(key.clone());
        }
    }
    let schema = src_schema.clone();
    out.sort_canonical(|r| schema.key_of(r));
    Ok(out)
}

// ----------------------------------------------------------------------

fn lookup<'t>(table: &'t Table, key: &[Value]) -> Result<&'t Row> {
    table.get(key).ok_or_else(|| BxError::InvalidDelta {
        reason: format!("delta references key {key:?} absent from the table"),
    })
}

fn invalid_view(e: medledger_relational::RelationalError) -> BxError {
    BxError::InvalidView {
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::put;
    use medledger_relational::{row, Column, Schema, ValueType};

    /// The paper's D3 (doctor) shape, grown to several rows.
    fn d3() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("clinical_data", ValueType::Text),
                Column::new("mechanism_of_action", ValueType::Text),
                Column::new("dosage", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema");
        Table::from_rows(
            schema,
            vec![
                row![188i64, "Ibuprofen", "CliD1", "MeA1", "one tablet every 4h"],
                row![189i64, "Wellbutrin", "CliD2", "MeA2", "100 mg twice daily"],
                row![190i64, "Ibuprofen", "CliD3", "MeA1", "two tablets"],
            ],
        )
        .expect("table")
    }

    fn project_lens() -> LensSpec {
        LensSpec::project_with_defaults(
            &["patient_id", "medication_name", "clinical_data", "dosage"],
            &["patient_id"],
            &[("mechanism_of_action", Value::text("unknown"))],
        )
    }

    fn select_lens() -> LensSpec {
        LensSpec::select(Predicate::eq("medication_name", Value::text("Ibuprofen")))
    }

    fn distinct_lens() -> LensSpec {
        LensSpec::project_distinct(
            &["medication_name", "mechanism_of_action"],
            &["medication_name"],
        )
    }

    /// `get_delta` must agree with: apply delta to source, full get, diff.
    fn assert_get_equiv(spec: &LensSpec, source_old: &Table, source_delta: &TableDelta) {
        let mut source_new = source_old.clone();
        source_new.apply_delta(source_delta).expect("delta applies");
        let view_old = get(spec, source_old).expect("get old");
        let view_new_full = get(spec, &source_new).expect("get new");
        let view_delta = get_delta(spec, source_old, source_delta).expect("get_delta");
        let mut view_new_incr = view_old.clone();
        view_new_incr.apply_delta(&view_delta).expect("view delta");
        assert_eq!(view_new_incr, view_new_full, "spec {spec}");
        assert_eq!(
            view_new_incr.content_hash(),
            view_new_full.content_hash(),
            "spec {spec}"
        );
    }

    /// `put_delta` must agree with: apply delta to view, full put, diff.
    fn assert_put_equiv(spec: &LensSpec, source: &Table, view_delta: &TableDelta) {
        let view_old = get(spec, source).expect("get");
        let mut view_new = view_old.clone();
        view_new.apply_delta(view_delta).expect("view delta");
        let source_new_full = put(spec, source, &view_new).expect("full put");
        let source_delta = put_delta(spec, source, view_delta).expect("put_delta");
        let mut source_new_incr = source.clone();
        source_new_incr
            .apply_delta(&source_delta)
            .expect("source delta");
        assert_eq!(source_new_incr, source_new_full, "spec {spec}");
        assert_eq!(
            source_new_incr.content_hash(),
            source_new_full.content_hash(),
            "spec {spec}"
        );
    }

    fn update_delta(key: i64, row: Row) -> TableDelta {
        TableDelta {
            updates: vec![(vec![Value::Int(key)], row)],
            ..Default::default()
        }
    }

    #[test]
    fn project_get_delta_equivalence() {
        let src = d3();
        // Update touching projected attrs.
        assert_get_equiv(
            &project_lens(),
            &src,
            &update_delta(188, row![188i64, "Ibuprofen", "CliD1", "MeA1", "halved"]),
        );
        // Update touching only a dropped attr: empty view delta.
        let hidden = update_delta(
            188,
            row![
                188i64,
                "Ibuprofen",
                "CliD1",
                "MeA1-x",
                "one tablet every 4h"
            ],
        );
        let d = get_delta(&project_lens(), &src, &hidden).expect("get_delta");
        assert!(d.is_empty());
        assert_get_equiv(&project_lens(), &src, &hidden);
        // Insert + delete.
        assert_get_equiv(
            &project_lens(),
            &src,
            &TableDelta {
                inserts: vec![row![191i64, "Aspirin", "CliD4", "MeA3", "x"]],
                deletes: vec![vec![Value::Int(189)]],
                ..Default::default()
            },
        );
    }

    #[test]
    fn project_put_delta_equivalence() {
        let src = d3();
        // View-side dosage edit.
        assert_put_equiv(
            &project_lens(),
            &src,
            &update_delta(188, row![188i64, "Ibuprofen", "CliD1", "halved"]),
        );
        // View-side insert fills the dropped column from the default.
        assert_put_equiv(
            &project_lens(),
            &src,
            &TableDelta {
                inserts: vec![row![191i64, "Aspirin", "CliD4", "x"]],
                ..Default::default()
            },
        );
        // View-side delete.
        assert_put_equiv(
            &project_lens(),
            &src,
            &TableDelta {
                deletes: vec![vec![Value::Int(189)]],
                ..Default::default()
            },
        );
    }

    #[test]
    fn project_put_delta_insert_without_default_is_untranslatable() {
        let lens = LensSpec::project(
            &["patient_id", "medication_name", "clinical_data", "dosage"],
            &["patient_id"],
        );
        let err = put_delta(
            &lens,
            &d3(),
            &TableDelta {
                inserts: vec![row![191i64, "Aspirin", "CliD4", "x"]],
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BxError::Untranslatable { .. }));
    }

    #[test]
    fn select_get_delta_covers_all_visibility_transitions() {
        let src = d3();
        let lens = select_lens();
        // stays visible (update), becomes hidden (delete), becomes
        // visible (insert), stays hidden (no-op) — plus raw insert/delete.
        for delta in [
            update_delta(188, row![188i64, "Ibuprofen", "CliD1", "MeA1", "halved"]),
            update_delta(
                188,
                row![188i64, "Advil", "CliD1", "MeA1", "one tablet every 4h"],
            ),
            update_delta(
                189,
                row![189i64, "Ibuprofen", "CliD2", "MeA2", "100 mg twice daily"],
            ),
            update_delta(
                189,
                row![189i64, "Zoloft", "CliD2", "MeA2", "100 mg twice daily"],
            ),
            TableDelta {
                inserts: vec![row![191i64, "Ibuprofen", "c", "m", "d"]],
                deletes: vec![vec![Value::Int(190)]],
                ..Default::default()
            },
        ] {
            assert_get_equiv(&lens, &src, &delta);
        }
    }

    #[test]
    fn select_put_delta_equivalence_and_guards() {
        let src = d3();
        let lens = select_lens();
        assert_put_equiv(
            &lens,
            &src,
            &update_delta(188, row![188i64, "Ibuprofen", "CliD1", "MeA1", "stop"]),
        );
        assert_put_equiv(
            &lens,
            &src,
            &TableDelta {
                inserts: vec![row![191i64, "Ibuprofen", "c", "m", "d"]],
                deletes: vec![vec![Value::Int(190)]],
                ..Default::default()
            },
        );
        // Predicate-violating update is rejected, like the full put.
        let err = put_delta(
            &lens,
            &src,
            &update_delta(188, row![188i64, "Wellbutrin", "CliD1", "MeA1", "stop"]),
        )
        .unwrap_err();
        assert!(matches!(err, BxError::InvalidView { .. }));
        // Insert colliding with a hidden source row is untranslatable.
        let err = put_delta(
            &lens,
            &src,
            &TableDelta {
                inserts: vec![row![189i64, "Ibuprofen", "c", "m", "d"]],
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BxError::Untranslatable { .. }));
    }

    #[test]
    fn rename_delta_round_trips() {
        let src = d3();
        let lens = LensSpec::rename("dosage", "dose");
        let delta = update_delta(188, row![188i64, "Ibuprofen", "CliD1", "MeA1", "halved"]);
        assert_get_equiv(&lens, &src, &delta);
        assert_put_equiv(&lens, &src, &delta);
    }

    #[test]
    fn project_distinct_falls_back_but_stays_equivalent() {
        let src = d3();
        let lens = distinct_lens();
        // A mechanism edit fans out to both Ibuprofen rows.
        assert_put_equiv(
            &lens,
            &src,
            &TableDelta {
                updates: vec![(
                    vec![Value::text("Ibuprofen")],
                    row!["Ibuprofen", "MeA1-new"],
                )],
                ..Default::default()
            },
        );
        // Group delete drops all member rows.
        assert_put_equiv(
            &lens,
            &src,
            &TableDelta {
                deletes: vec![vec![Value::text("Ibuprofen")]],
                ..Default::default()
            },
        );
        // Forward direction: a source edit must rewrite *every* group
        // member to keep the FD; the group's view row changes once.
        assert_get_equiv(
            &lens,
            &src,
            &TableDelta {
                updates: vec![
                    (
                        vec![Value::Int(188)],
                        row![
                            188i64,
                            "Ibuprofen",
                            "CliD1",
                            "MeA1-new",
                            "one tablet every 4h"
                        ],
                    ),
                    (
                        vec![Value::Int(190)],
                        row![190i64, "Ibuprofen", "CliD3", "MeA1-new", "two tablets"],
                    ),
                ],
                ..Default::default()
            },
        );
    }

    /// The indexed variants must agree with the plain ones (which build a
    /// partial index per call), and both with the full get/put — across
    /// inserts, deletes, group moves and group-value edits.
    #[test]
    fn project_distinct_indexed_matches_plain_and_full() {
        let src = d3();
        let lens = distinct_lens();
        let source_deltas = [
            // New member joins an existing group.
            TableDelta {
                inserts: vec![row![191i64, "Ibuprofen", "CliD4", "MeA1", "x"]],
                ..Default::default()
            },
            // New group appears.
            TableDelta {
                inserts: vec![row![191i64, "Aspirin", "CliD4", "MeA3", "x"]],
                ..Default::default()
            },
            // Last member of a group leaves → group delete.
            TableDelta {
                deletes: vec![vec![Value::Int(189)]],
                ..Default::default()
            },
            // A member switches groups, taking the old group with it.
            update_delta(
                189,
                row![189i64, "Ibuprofen", "CliD2", "MeA1", "100 mg twice daily"],
            ),
            // Whole-group value rewrite (both members move together).
            TableDelta {
                updates: vec![
                    (
                        vec![Value::Int(188)],
                        row![
                            188i64,
                            "Ibuprofen",
                            "CliD1",
                            "MeA1-new",
                            "one tablet every 4h"
                        ],
                    ),
                    (
                        vec![Value::Int(190)],
                        row![190i64, "Ibuprofen", "CliD3", "MeA1-new", "two tablets"],
                    ),
                ],
                ..Default::default()
            },
            // An edit outside the lens footprint: empty view delta.
            update_delta(
                188,
                row![
                    188i64,
                    "Ibuprofen",
                    "CliD1-x",
                    "MeA1",
                    "one tablet every 4h"
                ],
            ),
        ];
        let index = GroupIndex::build(&src, &["medication_name".to_string()]).expect("index");
        for sd in &source_deltas {
            assert_get_equiv(&lens, &src, sd);
            let plain = get_delta(&lens, &src, sd).expect("plain");
            let indexed = get_delta_indexed(&lens, &src, sd, &index).expect("indexed");
            assert_eq!(plain, indexed);
        }

        let view_deltas = [
            TableDelta {
                updates: vec![(
                    vec![Value::text("Ibuprofen")],
                    row!["Ibuprofen", "MeA1-new"],
                )],
                ..Default::default()
            },
            TableDelta {
                deletes: vec![vec![Value::text("Wellbutrin")]],
                ..Default::default()
            },
        ];
        for vd in &view_deltas {
            assert_put_equiv(&lens, &src, vd);
            let plain = put_delta(&lens, &src, vd).expect("plain");
            let indexed = put_delta_indexed(&lens, &src, vd, &index).expect("indexed");
            assert_eq!(plain, indexed);
        }
    }

    /// A source delta breaking the functional dependency must error, just
    /// like the full `get` would on the post-delta table.
    #[test]
    fn project_distinct_get_delta_rejects_fd_violation() {
        let src = d3();
        // Patient 190 joins the Ibuprofen group with a *different*
        // mechanism: the group's rows now disagree.
        let bad = update_delta(
            190,
            row![190i64, "Ibuprofen", "CliD3", "MeA-clash", "two tablets"],
        );
        let err = get_delta(&distinct_lens(), &src, &bad).unwrap_err();
        assert!(matches!(
            err,
            BxError::Relational(medledger_relational::RelationalError::FdViolation { .. })
        ));
        // Sanity: the full path errors on the same input.
        let mut applied = src.clone();
        applied.apply_delta(&bad).expect("delta applies");
        assert!(get(&distinct_lens(), &applied).is_err());
    }

    #[test]
    fn project_distinct_put_delta_rejects_stale_group() {
        let err = put_delta(
            &distinct_lens(),
            &d3(),
            &TableDelta {
                deletes: vec![vec![Value::text("Nonexistent")]],
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BxError::InvalidDelta { .. }));
    }

    #[test]
    fn project_distinct_put_delta_rejects_new_group_insert() {
        let err = put_delta(
            &distinct_lens(),
            &d3(),
            &TableDelta {
                inserts: vec![row!["Aspirin", "MeA9"]],
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, BxError::Untranslatable { .. }));
    }

    #[test]
    fn compose_delta_equivalence() {
        let src = d3();
        let lens = LensSpec::select(Predicate::eq("medication_name", Value::text("Ibuprofen")))
            .compose(LensSpec::rename("dosage", "dose"))
            .compose(LensSpec::project(
                &["patient_id", "medication_name", "dose"],
                &["patient_id"],
            ));
        assert_get_equiv(
            &lens,
            &src,
            &update_delta(188, row![188i64, "Ibuprofen", "CliD1", "MeA1", "halved"]),
        );
        assert_put_equiv(
            &lens,
            &src,
            &update_delta(188, row![188i64, "Ibuprofen", "halved"]),
        );
        // A source delete flows through all three stages.
        assert_get_equiv(
            &lens,
            &src,
            &TableDelta {
                deletes: vec![vec![Value::Int(190)]],
                ..Default::default()
            },
        );
    }

    #[test]
    fn stale_delta_is_rejected() {
        let src = d3();
        let err = get_delta(
            &project_lens(),
            &src,
            &update_delta(999, row![999i64, "X", "c", "m", "d"]),
        )
        .unwrap_err();
        assert!(matches!(err, BxError::InvalidDelta { .. }));
        let err = put_delta(
            &project_lens(),
            &src,
            &update_delta(999, row![999i64, "X", "c", "d"]),
        )
        .unwrap_err();
        assert!(matches!(err, BxError::InvalidDelta { .. }));
    }

    #[test]
    fn empty_deltas_short_circuit() {
        let src = d3();
        for lens in [project_lens(), select_lens(), distinct_lens()] {
            assert!(get_delta(&lens, &src, &TableDelta::default())
                .expect("get_delta")
                .is_empty());
            assert!(put_delta(&lens, &src, &TableDelta::default())
                .expect("put_delta")
                .is_empty());
        }
    }
}
