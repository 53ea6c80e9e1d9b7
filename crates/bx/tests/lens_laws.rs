//! Property-based tests of lens well-behavedness (experiment E10).
//!
//! Strategy: generate random source tables over a fixed medical-ish schema,
//! random lenses from the combinator family, and random *translatable*
//! view edits; assert GetPut and PutGet hold on every combination.
//!
//! The second half referees the delta pipeline on random lens *trees*
//! (depth ≤ 3, every combinator) and random deltas, untranslatable and
//! stale ones included: `put_delta` / `get_delta` must agree with the full
//! `exec::put` / `exec::get` on the delta-applied table, and exactly —
//! errors included — with a reference `Compose` arm that materialises the
//! whole middle view.

use medledger_bx::exec::{get, put};
use medledger_bx::laws::{check_getput, check_putget, check_well_behaved};
use medledger_bx::{analysis, get_delta, put_delta, BxError, LensSpec};
use medledger_relational::{
    CmpOp, Column, Predicate, Row, Schema, Table, TableDelta, Value, ValueType,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Source schema: id (key), med, mech, dose, addr — a compressed version
/// of the paper's full-record schema.
fn source_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("med", ValueType::Text),
            Column::new("mech", ValueType::Text),
            Column::new("dose", ValueType::Text),
            Column::new("addr", ValueType::Text),
        ],
        &["id"],
    )
    .expect("schema")
}

/// Medication names come from a small pool so the `med → mech` functional
/// dependency can be enforced by construction: mech is derived from med.
fn arb_source(max_rows: usize) -> impl Strategy<Value = Table> {
    let row = (0i64..50, 0usize..6, 0usize..4, 0usize..4).prop_map(|(id, med, dose, addr)| {
        Row::new(vec![
            Value::Int(id),
            Value::text(format!("med{med}")),
            Value::text(format!("mech-of-med{med}")), // FD med → mech holds
            Value::text(format!("dose{dose}")),
            Value::text(format!("addr{addr}")),
        ])
    });
    proptest::collection::vec(row, 0..max_rows).prop_map(|rows| {
        let mut t = Table::new(source_schema());
        for r in rows {
            // Duplicate ids collapse via upsert: keys stay unique.
            t.upsert(r).expect("schema-valid row");
        }
        t
    })
}

/// A pool of well-formed lenses over the source schema.
fn arb_lens() -> impl Strategy<Value = LensSpec> {
    prop_oneof![
        Just(LensSpec::project(&["id", "med", "dose"], &["id"])),
        Just(LensSpec::project(&["id", "mech", "addr"], &["id"])),
        Just(LensSpec::project(
            &["id", "med", "mech", "dose", "addr"],
            &["id"]
        )),
        Just(LensSpec::project_distinct(&["med", "mech"], &["med"])),
        (0usize..6)
            .prop_map(|m| LensSpec::select(Predicate::eq("med", Value::text(format!("med{m}"))))),
        Just(LensSpec::rename("dose", "dosage")),
        Just(
            LensSpec::rename("med", "medication")
                .compose(LensSpec::project(&["id", "medication", "dose"], &["id"]))
        ),
        (0usize..6).prop_map(|m| LensSpec::select(Predicate::eq(
            "med",
            Value::text(format!("med{m}"))
        ))
        .compose(LensSpec::project(&["id", "med", "dose"], &["id"]))),
    ]
}

/// A random translatable edit applied to a view: update a non-key text
/// column of some row, or delete some row. (Inserts are exercised in the
/// unit tests because translatability depends on the lens.) The edited
/// column is the `column`-th (modulo their count) of the free columns
/// the view has.
fn edit_view(view: &Table, pick: usize, del: bool, column: usize) -> Table {
    let mut v = view.clone();
    if v.is_empty() {
        return v;
    }
    let rows: Vec<Row> = v.rows().cloned().collect();
    let target = &rows[pick % rows.len()];
    let key = v.schema().key_of(target);
    if del {
        v.delete(&key).expect("row exists");
        return v;
    }
    // Find a non-key mutable column. Careful: for select lenses the
    // predicate column must not be edited (that would be untranslatable,
    // rightly rejected); we only touch "dose"-like free columns.
    let free: Vec<&str> = ["dose", "dosage", "addr", "mech"]
        .into_iter()
        .filter(|c| v.schema().has_column(c) && !v.schema().key_names().contains(c))
        .collect();
    if let Some(free) = free.get(column % free.len().max(1)) {
        v.update(&key, &[(free, Value::text("EDITED"))])
            .expect("update valid");
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GetPut: put(s, get(s)) == s for every lens and source.
    #[test]
    fn getput_holds(src in arb_source(24), lens in arb_lens()) {
        check_getput(&lens, &src).expect("GetPut must hold");
    }

    /// PutGet: get(put(s, v')) == v' for every translatable edit.
    #[test]
    fn putget_holds(
        src in arb_source(24),
        lens in arb_lens(),
        pick in 0usize..32,
        del in any::<bool>(),
    ) {
        let view = get(&lens, &src).expect("get");
        let edited = edit_view(&view, pick, del, 0);
        check_putget(&lens, &src, &edited).expect("PutGet must hold");
    }

    /// put is "minimal" on identity: the updated source equals the old
    /// source byte-for-byte (content hash), not merely logically.
    #[test]
    fn identity_put_preserves_hash(src in arb_source(24), lens in arb_lens()) {
        let view = get(&lens, &src).expect("get");
        let back = put(&lens, &src, &view).expect("put");
        prop_assert_eq!(back.content_hash(), src.content_hash());
    }

    /// Double put is idempotent: put(put(s,v'),v') == put(s,v').
    #[test]
    fn put_is_idempotent(
        src in arb_source(24),
        lens in arb_lens(),
        pick in 0usize..32,
        del in any::<bool>(),
    ) {
        let view = get(&lens, &src).expect("get");
        let edited = edit_view(&view, pick, del, 0);
        let s1 = put(&lens, &src, &edited).expect("first put");
        let s2 = put(&lens, &s1, &edited).expect("second put");
        prop_assert_eq!(s1.content_hash(), s2.content_hash());
    }

    /// Deltas round-trip: applying the view delta through put changes
    /// exactly the footprint attributes (never attributes outside it).
    #[test]
    fn put_touches_only_footprint_attrs(
        src in arb_source(24),
        lens in arb_lens(),
        pick in 0usize..32,
    ) {
        let view = get(&lens, &src).expect("get");
        // Any free column, not only the first: a footprint that misses a
        // passed-through column must show.
        let edited = edit_view(&view, pick, false, pick);
        let new_src = put(&lens, &src, &edited).expect("put");
        let changed = medledger_bx::changed_attrs(&src, &new_src);
        let analysis = medledger_bx::analysis::analyze(&lens, src.schema())
            .expect("analysis");
        for attr in &changed {
            prop_assert!(
                analysis.footprint.contains(attr),
                "changed attr {} outside lens footprint {:?}",
                attr,
                analysis.footprint
            );
        }
    }
}

// ----------------------------------------------------------------------
// Random lens trees: the delta pipeline against the full path
// ----------------------------------------------------------------------

/// A splitmix64 stream: a tree and its delta are drawn from one seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The source columns, each its own origin.
const SOURCE_ORIGINS: [&str; 5] = ["id", "med", "mech", "dose", "addr"];

/// A value of source column `origin`, from a domain a little wider than
/// `arb_source`'s: fresh keys, new medications and a mechanism that
/// breaks the `med → mech` dependency all occur.
fn value_of(origin: &str, d: &mut Draw) -> Value {
    match origin {
        "id" => Value::Int(d.below(60) as i64),
        "med" => Value::text(format!("med{}", d.below(7))),
        "mech" => Value::text(format!("mech-of-med{}", d.below(7))),
        "dose" => Value::text(format!("dose{}", d.below(5))),
        _ => Value::text(format!("addr{}", d.below(5))),
    }
}

/// The view a tree has built so far: its columns with the source column
/// each one's values come from, and its one key column.
struct Shape {
    cols: Vec<(String, &'static str)>,
    key: String,
    renames: usize,
}

/// A well-formed lens tree of height ≤ 3 over `source_schema()`.
fn random_tree(d: &mut Draw) -> LensSpec {
    let mut shape = Shape {
        cols: SOURCE_ORIGINS.iter().map(|c| (c.to_string(), *c)).collect(),
        key: "id".to_string(),
        renames: 0,
    };
    tree(&mut shape, 3, d)
}

fn tree(shape: &mut Shape, height: u32, d: &mut Draw) -> LensSpec {
    if height > 1 && d.below(3) > 0 {
        let first = tree(shape, height - 1, d);
        return first.compose(tree(shape, height - 1, d));
    }
    let has_group = shape.cols.iter().any(|(_, o)| *o == "med" || *o == "mech");
    match d.below(9) {
        0..=2 => random_select(shape, d),
        3..=5 => random_project(shape, d),
        6 | 7 => random_rename(shape, d),
        _ if has_group => random_distinct(shape, d),
        _ => random_select(shape, d),
    }
}

fn random_select(shape: &Shape, d: &mut Draw) -> LensSpec {
    let (name, origin) = d.pick(&shape.cols).clone();
    let atom = |d: &mut Draw| Predicate::eq(name.clone(), value_of(origin, d));
    LensSpec::select(match d.below(4) {
        0 => atom(d),
        1 => atom(d).or(atom(d)),
        2 => atom(d).not(),
        _ => Predicate::cmp(name.clone(), CmpOp::Lt, value_of(origin, d)),
    })
}

/// Keeps the key and a random subset of the other columns; each dropped
/// column gets an insert default or none.
fn random_project(shape: &mut Shape, d: &mut Draw) -> LensSpec {
    let (mut attrs, mut kept, mut defaults) = (Vec::new(), Vec::new(), Vec::new());
    for (name, origin) in &shape.cols {
        if *name == shape.key || d.below(2) == 0 {
            attrs.push(name.as_str());
            kept.push((name.clone(), *origin));
        } else if d.below(2) == 0 {
            defaults.push((name.as_str(), value_of(origin, d)));
        }
    }
    let lens = LensSpec::project_with_defaults(&attrs, &[shape.key.as_str()], &defaults);
    shape.cols = kept;
    lens
}

fn random_rename(shape: &mut Shape, d: &mut Draw) -> LensSpec {
    let i = d.below(shape.cols.len());
    shape.renames += 1;
    let to = format!("{}_{}", shape.cols[i].1, shape.renames);
    let from = std::mem::replace(&mut shape.cols[i].0, to.clone());
    if shape.key == from {
        shape.key = to.clone();
    }
    LensSpec::rename(from, to)
}

/// Groups by medication or by mechanism: `arb_source` makes each
/// determine the other, so the functional dependency holds either way.
fn random_distinct(shape: &mut Shape, d: &mut Draw) -> LensSpec {
    let mut kept: Vec<(String, &'static str)> = shape
        .cols
        .iter()
        .filter(|(_, o)| *o == "med" || *o == "mech")
        .cloned()
        .collect();
    if kept.len() == 2 && d.below(2) == 0 {
        kept.remove(d.below(2));
    }
    let key = d.pick(&kept).0.clone();
    let attrs: Vec<&str> = kept.iter().map(|(n, _)| n.as_str()).collect();
    let lens = LensSpec::project_distinct(&attrs, &[key.as_str()]);
    shape.cols = kept;
    shape.key = key;
    lens
}

/// One or two operations on distinct keys of `table`, whose columns carry
/// values of the source columns `origins`: a cell update, a delete, an
/// insert (of a fresh key, of a key a select hides, or of a key already
/// present), an update or delete of a key the table lacks, and — with
/// `wrong_arity` — an insert of a row one cell short or long.
fn random_delta(table: &Table, origins: &[&str], wrong_arity: bool, d: &mut Draw) -> TableDelta {
    let schema = table.schema();
    let key_at = schema.key_indexes()[0];
    let rows = table.sorted_rows();
    let random_cells =
        |d: &mut Draw| -> Vec<Value> { origins.iter().map(|o| value_of(o, d)).collect() };
    let mut delta = TableDelta::default();
    let mut used = BTreeSet::new();
    for _ in 0..1 + d.below(2) {
        match d.below(7) {
            0 | 1 if !rows.is_empty() => {
                let row = *d.pick(&rows);
                let mut cells: Vec<Value> = row.iter().cloned().collect();
                let at = d.below(cells.len());
                if at != key_at {
                    cells[at] = value_of(origins[at], d);
                }
                let key = schema.key_of(row);
                if used.insert(key.clone()) {
                    delta.updates.push((key, Row::new(cells)));
                }
            }
            2 if !rows.is_empty() => {
                let row = *d.pick(&rows);
                let key = schema.key_of(row);
                if used.insert(key.clone()) {
                    delta.deletes.push(key);
                }
            }
            3 => {
                let row = Row::new(random_cells(d));
                let key = schema.key_of(&row);
                if table.contains_key(&key) || !used.insert(key.clone()) {
                    continue;
                }
                if d.below(2) == 0 {
                    delta.deletes.push(key);
                } else {
                    delta.updates.push((key, row));
                }
            }
            4 if wrong_arity => {
                let mut cells = random_cells(d);
                if d.below(2) == 0 {
                    cells.pop();
                } else {
                    cells.push(Value::text("extra"));
                }
                delta.inserts.push(Row::new(cells));
            }
            _ => {
                let row = Row::new(random_cells(d));
                if used.insert(schema.key_of(&row)) {
                    delta.inserts.push(row);
                }
            }
        }
    }
    delta
}

/// The source column behind each column of `lens`'s view.
fn view_origins(lens: &LensSpec) -> Vec<&'static str> {
    let analysis =
        analysis::analyze(lens, &source_schema()).expect("generated trees are well formed");
    analysis
        .view_schema
        .column_names()
        .iter()
        .map(|c| {
            let origin = &analysis.attr_origin[*c];
            *SOURCE_ORIGINS
                .iter()
                .find(|o| *o == origin)
                .expect("a source column")
        })
        .collect()
}

/// `put_delta` with a `Compose` arm that materialises the whole middle
/// view: the reference a restricted middle must match exactly.
fn materialised_put_delta(
    spec: &LensSpec,
    source: &Table,
    view_delta: &TableDelta,
) -> Result<TableDelta, BxError> {
    match spec {
        LensSpec::Compose { first, second } if !view_delta.is_empty() => {
            let mid = get(first, source)?;
            let mid_delta = materialised_put_delta(second, &mid, view_delta)?;
            materialised_put_delta(first, source, &mid_delta)
        }
        _ => put_delta(spec, source, view_delta),
    }
}

/// `get_delta` with a `Compose` arm that materialises the whole middle
/// view.
fn materialised_get_delta(
    spec: &LensSpec,
    source: &Table,
    source_delta: &TableDelta,
) -> Result<TableDelta, BxError> {
    match spec {
        LensSpec::Compose { first, second } if !source_delta.is_empty() => {
            let mid_delta = materialised_get_delta(first, source, source_delta)?;
            if mid_delta.is_empty() {
                return Ok(TableDelta::default());
            }
            let mid = get(first, source)?;
            materialised_get_delta(second, &mid, &mid_delta)
        }
        _ => get_delta(spec, source, source_delta),
    }
}

/// Two failures agree when they are the same `BxError` variant. Only a
/// one-row delta is held to it: with two bad rows the delta and full
/// paths may meet them in either order.
fn same_failure(delta: &TableDelta, a: &BxError, b: &BxError) -> bool {
    delta.row_count() > 1 || std::mem::discriminant(a) == std::mem::discriminant(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// put_delta ≡ exec::put then diff, on random trees and view deltas;
    /// and GetPut / PutGet wherever the edit translates.
    #[test]
    fn put_delta_matches_full_put_on_random_trees(src in arb_source(24), seed in any::<u64>()) {
        let mut d = Draw(seed);
        let lens = random_tree(&mut d);
        let view = get(&lens, &src).expect("generated trees are well formed");
        let view_delta = random_delta(&view, &view_origins(&lens), true, &mut d);
        let incremental = put_delta(&lens, &src, &view_delta);
        prop_assert_eq!(&incremental, &materialised_put_delta(&lens, &src, &view_delta));

        let mut edited = view.clone();
        if edited.apply_delta(&view_delta).is_err() {
            // Stale keys, duplicate keys and wrong arity: no view to put.
            prop_assert!(incremental.is_err(), "{}: stale {:?} translated", lens, view_delta);
            return Ok(());
        }
        match (incremental, put(&lens, &src, &edited)) {
            (Ok(delta), Ok(full)) => {
                let mut applied = src.clone();
                prop_assert!(applied.apply_delta(&delta).is_ok(), "{}: {:?} does not apply", lens, delta);
                prop_assert_eq!(&applied, &full);
                prop_assert_eq!(applied.content_hash(), full.content_hash());
                check_well_behaved(&lens, &src, &edited)
                    .map_err(|e| TestCaseError::fail(format!("{lens}: {e}")))?;
            }
            (Err(a), Err(b)) => prop_assert!(
                same_failure(&view_delta, &a, &b),
                "{}: put_delta failed with {:?}, put with {:?}", lens, a, b
            ),
            (a, b) => {
                return Err(TestCaseError::fail(format!("{lens}: put_delta {a:?}, put {b:?}")));
            }
        }
    }

    /// get_delta ≡ exec::get then diff, on random trees and source deltas.
    #[test]
    fn get_delta_matches_full_get_on_random_trees(src in arb_source(24), seed in any::<u64>()) {
        let mut d = Draw(seed);
        let lens = random_tree(&mut d);
        let view = get(&lens, &src).expect("generated trees are well formed");
        let source_delta = random_delta(&src, &SOURCE_ORIGINS, false, &mut d);
        let incremental = get_delta(&lens, &src, &source_delta);
        prop_assert_eq!(&incremental, &materialised_get_delta(&lens, &src, &source_delta));

        let mut changed = src.clone();
        if changed.apply_delta(&source_delta).is_err() {
            return Ok(());
        }
        match (incremental, get(&lens, &changed)) {
            (Ok(delta), Ok(full)) => {
                let mut applied = view.clone();
                prop_assert!(applied.apply_delta(&delta).is_ok(), "{}: {:?} does not apply", lens, delta);
                prop_assert_eq!(&applied, &full);
                prop_assert_eq!(applied.content_hash(), full.content_hash());
            }
            (Err(a), Err(b)) => prop_assert!(
                same_failure(&source_delta, &a, &b),
                "{}: get_delta failed with {:?}, get with {:?}", lens, a, b
            ),
            (a, b) => {
                return Err(TestCaseError::fail(format!("{lens}: get_delta {a:?}, get {b:?}")));
            }
        }
    }
}
