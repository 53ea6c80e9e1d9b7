//! Property-based tests of the relational substrate's invariants.

use medledger_relational::{
    Column, Predicate, Row, Schema, ShardMap, Table, TableDelta, Value, ValueType,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("dose", ValueType::Int),
        ],
        &["id"],
    )
    .expect("schema")
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (0i64..100, 0usize..8, 0i64..50).prop_map(|(id, name, dose)| {
            Row::new(vec![
                Value::Int(id),
                Value::text(format!("name{name}")),
                Value::Int(dose),
            ])
        }),
        0..max,
    )
}

fn table_from(rows: Vec<Row>) -> Table {
    let mut t = Table::new(schema());
    for r in rows {
        t.upsert(r).expect("valid row");
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Content hash is insertion-order independent.
    #[test]
    fn content_hash_order_independent(rows in arb_rows(24), seed in 0u64..1000) {
        let t1 = table_from(rows);
        // Shuffle t1's final (key-unique) rows deterministically and
        // rebuild; upsert order must not matter for identical row sets.
        let mut shuffled: Vec<Row> = t1.rows().cloned().collect();
        shuffled.sort_by_key(|r| {
            medledger_crypto::sha256(&[r.encode(), seed.to_be_bytes().to_vec()].concat())
        });
        let t2 = table_from(shuffled);
        prop_assert_eq!(t1.content_hash(), t2.content_hash());
        prop_assert_eq!(t1, t2);
    }

    /// Insert-then-delete returns to the original content hash.
    #[test]
    fn insert_delete_round_trip(rows in arb_rows(24)) {
        let mut t = table_from(rows);
        let before = t.content_hash();
        let fresh_id = 10_000i64;
        t.insert(Row::new(vec![
            Value::Int(fresh_id),
            Value::text("temp"),
            Value::Int(1),
        ]))
        .expect("insert");
        prop_assert_ne!(t.content_hash(), before);
        t.delete(&[Value::Int(fresh_id)]).expect("delete");
        prop_assert_eq!(t.content_hash(), before);
    }

    /// The primary-key index stays exact through arbitrary upserts and
    /// deletes: every row is findable, no phantom keys.
    #[test]
    fn index_integrity(ops in proptest::collection::vec((0i64..30, any::<bool>()), 0..60)) {
        let mut t = Table::new(schema());
        let mut model: std::collections::BTreeMap<i64, ()> = Default::default();
        for (id, insert) in ops {
            if insert {
                t.upsert(Row::new(vec![
                    Value::Int(id),
                    Value::text("x"),
                    Value::Int(0),
                ]))
                .expect("upsert");
                model.insert(id, ());
            } else if model.remove(&id).is_some() {
                t.delete(&[Value::Int(id)]).expect("delete tracked key");
            } else {
                prop_assert!(t.delete(&[Value::Int(id)]).is_err());
            }
        }
        prop_assert_eq!(t.len(), model.len());
        for id in model.keys() {
            prop_assert!(t.get(&[Value::Int(*id)]).is_some());
        }
    }

    /// σ distributes over content: select(p) ∪ select(¬p) == table.
    #[test]
    fn select_partitions(rows in arb_rows(24), pivot in 0i64..50) {
        let t = table_from(rows);
        let p = Predicate::cmp("dose", medledger_relational::CmpOp::Lt, Value::Int(pivot));
        let yes = t.select(&p).expect("select");
        let no = t.select(&p.clone().not()).expect("select");
        prop_assert_eq!(yes.len() + no.len(), t.len());
        // Rebuilding from both halves gives back the same table.
        let mut rebuilt = Table::new(schema());
        for r in yes.rows().chain(no.rows()) {
            rebuilt.insert(r.clone()).expect("insert");
        }
        prop_assert_eq!(rebuilt.content_hash(), t.content_hash());
    }

    /// Projection keyed by the table key preserves row count, and
    /// re-projecting is idempotent.
    #[test]
    fn projection_idempotent(rows in arb_rows(24)) {
        let t = table_from(rows);
        let p1 = t.project(&["id", "name"], &["id"]).expect("project");
        prop_assert_eq!(p1.len(), t.len());
        let p2 = p1.project(&["id", "name"], &["id"]).expect("project");
        prop_assert_eq!(p1.content_hash(), p2.content_hash());
    }

    /// Row encodings are injective over generated rows.
    #[test]
    fn row_encoding_injective(rows in arb_rows(24)) {
        let t = table_from(rows);
        let mut seen = std::collections::BTreeSet::new();
        for r in t.rows() {
            prop_assert!(seen.insert(r.encode()), "encoding collision for {r:?}");
        }
    }
}

/// Rows the threshold referee keeps at most: past the 544-row layout
/// threshold, so a sequence can cross 64, 96, 160, 288 and 544 both ways.
const REFEREE_MAX_ROWS: usize = 600;

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn referee_row(id: i64, salt: u64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::text(format!("name{}", mix(salt ^ id as u64) % 13)),
        Value::Int((mix(salt.wrapping_add(id as u64)) % 50) as i64),
    ])
}

/// One step of a referee sequence as a delta against `model`. `kind`
/// 0 and 1 grow by `amount`, 2 shrinks by half as much (so sequences
/// drift up to the cap and cross back down), 3 mixes updates, deletes
/// and inserts; 4 builds a delta every copy must reject: fresh inserts
/// plus an update of a key no copy holds. Returns the delta and whether
/// it must apply.
fn referee_step(
    model: &BTreeMap<i64, Row>,
    next_id: &mut i64,
    (kind, amount, seed): (u8, usize, u64),
) -> (TableDelta, bool) {
    let mut delta = TableDelta::default();
    let mut picked: Vec<i64> = model.keys().copied().collect();
    picked.sort_by_key(|id| mix(seed ^ *id as u64));
    let room = REFEREE_MAX_ROWS - model.len();
    let mut insert = |delta: &mut TableDelta, n: usize| {
        for _ in 0..n {
            delta.inserts.push(referee_row(*next_id, seed));
            *next_id += 1;
        }
    };
    match kind {
        0 => insert(&mut delta, amount.min(room)),
        1 => {
            delta.deletes = picked
                .iter()
                .take(amount)
                .map(|&id| vec![Value::Int(id)])
                .collect()
        }
        3 => {
            let (updates, rest) = picked.split_at(picked.len().min(amount / 4));
            for &id in updates {
                delta
                    .updates
                    .push((vec![Value::Int(id)], referee_row(id, seed ^ 1)));
            }
            delta.deletes = rest
                .iter()
                .take(amount / 8)
                .map(|&id| vec![Value::Int(id)])
                .collect();
            insert(&mut delta, (amount / 8).min(room));
        }
        _ => {
            insert(&mut delta, (amount / 2).min(room));
            delta
                .updates
                .push((vec![Value::Int(-1)], referee_row(-1, seed)));
            return (delta, false);
        }
    }
    delta.sort_canonical(|r| vec![r[0].clone()]);
    (delta, true)
}

/// Drives `map` the way a peer's remote apply does: plan, one job per
/// touched shard (sub-apply, then warm), and either commit the plan or,
/// when a shard rejected its sub-delta, revert the shards that applied,
/// newest first, under the plan's layout.
fn apply_planned(map: &mut ShardMap, delta: &TableDelta) -> bool {
    let plan = map.plan(delta);
    let mut applied = Vec::new();
    let mut rejected = false;
    for (s, (shard, sub)) in map.shards_mut().iter_mut().zip(&plan.per_shard).enumerate() {
        if sub.is_empty() {
            continue;
        }
        match shard.apply(sub, plan.chunk_count) {
            Ok(inverse) => {
                shard.warm(plan.chunk_count);
                applied.push((s, inverse));
            }
            Err(_) => rejected = true,
        }
    }
    if rejected {
        for (s, inverse) in applied.iter().rev() {
            map.shards_mut()[*s]
                .apply(inverse, plan.chunk_count)
                .expect("inverse of a just-applied sub-delta applies");
        }
        return false;
    }
    map.commit_plan(&plan);
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm incremental digests across layout thresholds, up and down: a
    /// `Table`, `ShardMap`s driven through `apply_delta` and the same
    /// maps driven shard by shard (rejected sub-deltas reverted) all hash
    /// like a cold table of the same rows after every step.
    #[test]
    fn warm_digests_match_cold_across_thresholds(
        steps in proptest::collection::vec((0u8..5, 0usize..260, any::<u64>()), 8..28)
    ) {
        let shard_counts = [1usize, 2, 4, 8];
        let mut model: BTreeMap<i64, Row> = BTreeMap::new();
        let mut next_id = 0i64;
        let mut table = Table::new(schema());
        let mut serial: Vec<ShardMap> =
            shard_counts.iter().map(|&s| ShardMap::from_table(&table, s)).collect();
        let mut planned = serial.clone();
        for step in steps {
            let (delta, valid) = referee_step(&model, &mut next_id, step);
            prop_assert_eq!(table.apply_delta(&delta).is_ok(), valid);
            for map in &mut serial {
                prop_assert_eq!(map.apply_delta(&delta).is_ok(), valid);
            }
            for map in &mut planned {
                prop_assert_eq!(apply_planned(map, &delta), valid);
            }
            if valid {
                for row in &delta.inserts {
                    model.insert(row[0].as_int().expect("int key"), row.clone());
                }
                for (key, row) in &delta.updates {
                    model.insert(key[0].as_int().expect("int key"), row.clone());
                }
                for key in &delta.deletes {
                    model.remove(&key[0].as_int().expect("int key"));
                }
            }
            let cold = Table::from_rows(schema(), model.values().cloned().collect())
                .expect("cold rebuild")
                .content_hash();
            prop_assert!(table.content_hash() == cold, "table at {} rows", model.len());
            for (map, shards) in serial.iter().zip(shard_counts) {
                prop_assert!(map.content_hash() == cold, "apply_delta, {shards} shards, {} rows", model.len());
            }
            for (map, shards) in planned.iter().zip(shard_counts) {
                prop_assert!(map.content_hash() == cold, "planned, {shards} shards, {} rows", model.len());
            }
        }
    }
}
