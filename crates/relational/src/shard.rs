//! A peer's stored copy of a shared table.
//!
//! A [`ShardMap`] is one [`Table`] plus the running total of its rows'
//! encoded bytes (the fan-out's full-table payload figure, kept without
//! a scan). Its content hash is the table's own incremental digest.
//!
//! The name and the shard-count argument of [`ShardMap::from_table`] are
//! a compile fence, as `PropagationMode` is: the frozen `benchmark/`
//! crate calls `from_table(&view, shards)`, `apply_delta` and
//! `content_hash`, and must stay byte-identical. The count is accepted
//! and ignored; the stored rows are never split.
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
//! let stored = ShardMap::from_table(&table, 8);
//! // The stored copy hashes exactly as the table it was built from.
//! assert_eq!(stored.content_hash(), table.content_hash());
//! ```

use crate::delta::{KeyedRows, TableDelta};
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use medledger_crypto::Hash256;
use std::fmt;

/// Σ [`Row::encoded_len`] over `rows`.
fn encoded_len_of<'a>(rows: impl Iterator<Item = &'a Row>) -> u64 {
    rows.map(Row::encoded_len).sum::<usize>() as u64
}

/// A shared table's stored copy: one [`Table`] and its encoded-byte
/// total.
#[derive(Clone)]
pub struct ShardMap {
    table: Table,
    /// Σ [`Row::encoded_len`] over the rows, adjusted by every applied
    /// delta.
    encoded_bytes: u64,
}

impl fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardMap({} rows, hash={})",
            self.table.len(),
            self.content_hash().short()
        )
    }
}

impl ShardMap {
    /// Stores `table`, its digest as warm as it comes.
    pub fn new(table: Table) -> Self {
        ShardMap {
            encoded_bytes: encoded_len_of(table.rows()),
            table,
        }
    }

    /// Stores a copy of `table`. The shard count is ignored: it is the
    /// compile fence the module docs describe.
    pub fn from_table(table: &Table, _shard_count: usize) -> Self {
        ShardMap::new(table.clone())
    }

    /// The stored table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Σ `row.encode().len()` over every row — a running total the
    /// applies keep, not a scan.
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes
    }

    /// Applies a delta to the stored table and returns its inverse,
    /// canonically ordered. Validation and atomicity are
    /// [`Table::apply_delta`]'s: a rejected delta leaves the copy
    /// untouched.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<TableDelta> {
        let inverse = self.table.apply_delta(delta)?;
        // The inverse holds exactly the rows this delta replaced or removed.
        let bytes_of = |d: &TableDelta| {
            encoded_len_of(d.inserts.iter().chain(d.updates.iter().map(|(_, r)| r)))
        };
        self.encoded_bytes += bytes_of(delta);
        self.encoded_bytes -= bytes_of(&inverse);
        Ok(inverse)
    }

    /// The canonical content hash: the stored table's
    /// [`Table::content_hash`], refolding only the paths touched since
    /// the last call.
    pub fn content_hash(&self) -> Hash256 {
        self.table.content_hash()
    }
}

impl KeyedRows for ShardMap {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }
    fn get(&self, key: &[Value]) -> Option<&Row> {
        self.table.get(key)
    }
    fn rows(&self) -> impl Iterator<Item = &Row> {
        self.table.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::diff_tables;
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

        let mut m = ShardMap::from_table(&old, 1);
        // Warm the fold first so the apply path exercises the
        // incremental (dirty-path) code, including the chunk layout
        // growth 120 → 178 rows.
        assert_eq!(m.content_hash(), old.content_hash());
        let inv = m.apply_delta(&delta).expect("apply");
        assert_eq!(m.content_hash(), new.content_hash());
        assert_eq!(m.table().get(&[Value::Int(55)]), new.get(&[Value::Int(55)]));
        assert!(m.table().get(&[Value::Int(10)]).is_none());
        assert_eq!(m.encoded_bytes(), encoded_bytes_of(&new));
        assert!(diff_tables(&m, &new).is_empty());

        // The inverse equals the one the plain table produces.
        let mut plain = old.clone();
        let plain_inv = plain.apply_delta(&delta).expect("plain apply");
        assert_eq!(inv, plain_inv);

        m.apply_delta(&inv).expect("revert");
        assert_eq!(m.content_hash(), old.content_hash());
        assert_eq!(m.table(), &old);
        assert_eq!(m.encoded_bytes(), encoded_bytes_of(&old));
    }
}
