//! A peer's local database: named tables plus a write log.

use crate::delta::TableDelta;
use crate::error::RelationalError;
use crate::row::Row;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use medledger_crypto::{sha256_concat, Hash256};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One logged mutation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WriteOp {
    /// Insert a full row.
    Insert {
        /// The inserted row.
        row: Row,
    },
    /// Assign named columns of the row with `key`.
    Update {
        /// Primary key of the target row.
        key: Vec<Value>,
        /// `(column, new value)` pairs.
        assignments: Vec<(String, Value)>,
    },
    /// Insert-or-replace a full row.
    Upsert {
        /// The new row.
        row: Row,
    },
    /// Delete the row with `key`.
    Delete {
        /// Primary key of the target row.
        key: Vec<Value>,
    },
    /// Replace the entire table contents (a whole view taking the place
    /// of a stored copy: the conflict path of a remote apply).
    Replace {
        /// The new rows.
        rows: Vec<Row>,
    },
    /// Apply a row-level delta (the delta-propagation hot path): one
    /// logged mutation covering all changed rows, applied through
    /// [`Table::apply_delta`] so cost is O(changed rows).
    Delta {
        /// The changed rows.
        delta: TableDelta,
    },
}

impl WriteOp {
    /// Human-readable operation kind (for audit output).
    pub fn kind(&self) -> &'static str {
        match self {
            WriteOp::Insert { .. } => "insert",
            WriteOp::Update { .. } => "update",
            WriteOp::Upsert { .. } => "upsert",
            WriteOp::Delete { .. } => "delete",
            WriteOp::Replace { .. } => "replace",
            WriteOp::Delta { .. } => "delta",
        }
    }
}

/// One entry of the local write-ahead log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Monotonic sequence number within this database.
    pub seq: u64,
    /// Target table.
    pub table: String,
    /// The mutation.
    pub op: WriteOp,
    /// Table content hash *after* the mutation.
    pub post_hash: Hash256,
}

/// A named collection of tables with a mutation log.
///
/// All mutations flow through [`Database::apply`] so they are logged.
/// The log and the version counters may also cover tables stored
/// elsewhere ([`Database::log_external`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Database {
    /// Owner label (peer name); used in error messages and audits.
    pub owner: String,
    tables: BTreeMap<String, Table>,
    log: Vec<LogRecord>,
    /// Per-table mutation counter: bumped by every write path (including
    /// whole-table swaps), so callers caching
    /// state derived from a table (e.g. a peer's group indexes) can
    /// detect that the table moved under them.
    #[serde(default)]
    versions: BTreeMap<String, u64>,
    /// Sequence number of the oldest record still in `log`: records below
    /// it were handed to durable storage and dropped via
    /// [`Database::truncate_log`]. Sequence numbers stay monotonic across
    /// truncation.
    #[serde(default)]
    base_seq: u64,
}

impl Database {
    /// Creates an empty database owned by `owner`.
    pub fn new(owner: impl Into<String>) -> Self {
        Database {
            owner: owner.into(),
            tables: BTreeMap::new(),
            log: Vec::new(),
            versions: BTreeMap::new(),
            base_seq: 0,
        }
    }

    /// Sequence number the next logged mutation will carry
    /// (`base_seq + log length`).
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.log.len() as u64
    }

    /// Counts one mutation of `name`. Every write path below calls it; a
    /// caller storing a table itself calls it where this database would
    /// have (table creation and drop).
    pub fn bump_version(&mut self, name: &str) {
        *self.versions.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Monotonic mutation counter of one table (0 for unknown tables).
    /// Any write path — logged applies, table creation or replacement —
    /// advances it, so equality of two
    /// observations proves the table content did not change in between.
    pub fn table_version(&self, name: &str) -> u64 {
        self.versions.get(name).copied().unwrap_or(0)
    }

    /// Inserts a pre-built table.
    pub fn put_table(&mut self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(RelationalError::TableExists { table: name });
        }
        self.bump_version(&name);
        self.tables.insert(name, table);
        Ok(())
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| RelationalError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// True iff a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Applies and logs a mutation.
    pub fn apply(&mut self, table: &str, op: WriteOp) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| RelationalError::UnknownTable {
                table: table.to_string(),
            })?;
        match &op {
            WriteOp::Insert { row } => t.insert(row.clone())?,
            WriteOp::Update { key, assignments } => {
                let assigns: Vec<(&str, Value)> = assignments
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                t.update(key, &assigns)?;
            }
            WriteOp::Upsert { row } => {
                t.upsert(row.clone())?;
            }
            WriteOp::Delete { key } => {
                t.delete(key)?;
            }
            WriteOp::Replace { rows } => {
                let schema = t.schema().clone();
                let fresh = Table::from_rows(schema, rows.clone())?;
                *t = fresh;
            }
            WriteOp::Delta { delta } => {
                t.apply_delta(delta)?;
            }
        }
        let post_hash = t.content_hash();
        self.bump_version(table);
        self.log.push(LogRecord {
            seq: self.next_seq(),
            table: table.to_string(),
            op,
            post_hash,
        });
        Ok(())
    }

    /// Applies and logs a row-level delta, returning the **inverse** delta
    /// (see [`Table::apply_delta`]). One log record per delta — the
    /// write-ahead log grows with the number of *updates*, not the
    /// number of rows they touch.
    pub fn apply_delta(&mut self, table: &str, delta: &TableDelta) -> Result<TableDelta> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| RelationalError::UnknownTable {
                table: table.to_string(),
            })?;
        let inverse = t.apply_delta(delta)?;
        let post_hash = t.content_hash();
        self.bump_version(table);
        self.log.push(LogRecord {
            seq: self.next_seq(),
            table: table.to_string(),
            op: WriteOp::Delta {
                delta: delta.clone(),
            },
            post_hash,
        });
        Ok(inverse)
    }

    /// Logs a mutation of a table whose rows the caller stores itself (a
    /// peer keeps its shared tables in its own sharded store, but their
    /// history in this log). The caller has applied `op` and attests
    /// that the table hashes to `post_hash` afterwards; the record and the
    /// version bump are the ones [`Database::apply`] would have produced.
    pub fn log_external(&mut self, table: &str, op: WriteOp, post_hash: Hash256) {
        self.bump_version(table);
        self.log.push(LogRecord {
            seq: self.next_seq(),
            table: table.to_string(),
            op,
            post_hash,
        });
    }

    /// Removes a table without counting a mutation: its rows move to a
    /// store of the caller's, which keeps reporting their mutations
    /// through [`Database::log_external`].
    pub fn detach_table(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(name)
            .ok_or_else(|| RelationalError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// The mutation log, oldest first.
    pub fn log(&self) -> &[LogRecord] {
        &self.log
    }

    /// Sequence number of the oldest record still held in memory.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The records with sequence numbers ≥ `seq` (all of them if `seq`
    /// predates the retained window).
    pub fn log_since(&self, seq: u64) -> &[LogRecord] {
        let skip = seq.saturating_sub(self.base_seq).min(self.log.len() as u64);
        &self.log[skip as usize..]
    }

    /// Drops in-memory log records with sequence numbers < `upto`.
    ///
    /// The log is otherwise unbounded; the durable-storage layer calls
    /// this after the records are safely in the WAL (and audits replay
    /// them from there). Sequence numbers keep counting from where they
    /// were — truncation never renumbers.
    pub fn truncate_log(&mut self, upto: u64) {
        if upto <= self.base_seq {
            return;
        }
        let drop = (upto - self.base_seq).min(self.log.len() as u64);
        self.log.drain(..drop as usize);
        self.base_seq += drop;
    }

    /// Re-applies a log record recovered from durable storage.
    ///
    /// The mutation is applied exactly as [`Database::apply`] would, the
    /// record is re-appended verbatim, and two integrity checks guard the
    /// replay: the record's `seq` must be the next expected sequence
    /// number, and the table's content hash after the mutation must equal
    /// the record's `post_hash` (the hash the live system attested when
    /// it wrote the record).
    pub fn replay_record(&mut self, rec: &LogRecord) -> Result<()> {
        if rec.seq != self.next_seq() {
            return Err(RelationalError::ReplayMismatch {
                reason: format!(
                    "record seq {} replayed into database expecting seq {}",
                    rec.seq,
                    self.next_seq()
                ),
            });
        }
        let t = self
            .tables
            .get_mut(&rec.table)
            .ok_or_else(|| RelationalError::UnknownTable {
                table: rec.table.clone(),
            })?;
        match &rec.op {
            WriteOp::Insert { row } => t.insert(row.clone())?,
            WriteOp::Update { key, assignments } => {
                let assigns: Vec<(&str, Value)> = assignments
                    .iter()
                    .map(|(c, v)| (c.as_str(), v.clone()))
                    .collect();
                t.update(key, &assigns)?;
            }
            WriteOp::Upsert { row } => {
                t.upsert(row.clone())?;
            }
            WriteOp::Delete { key } => {
                t.delete(key)?;
            }
            WriteOp::Replace { rows } => {
                let schema = t.schema().clone();
                let fresh = Table::from_rows(schema, rows.clone())?;
                *t = fresh;
            }
            WriteOp::Delta { delta } => {
                t.apply_delta(delta)?;
            }
        }
        let recovered = t.content_hash();
        if recovered != rec.post_hash {
            return Err(RelationalError::ReplayMismatch {
                reason: format!(
                    "table `{}` hashes to {} after replaying seq {}, log attests {}",
                    rec.table,
                    recovered.to_hex(),
                    rec.seq,
                    rec.post_hash.to_hex()
                ),
            });
        }
        self.bump_version(&rec.table);
        self.log.push(rec.clone());
        Ok(())
    }

    /// Decomposes the database for snapshot encoding. Returns
    /// `(owner, tables, versions, next_seq)`; the in-memory log is *not*
    /// part of a snapshot (the WAL owns history).
    pub fn export_parts(&self) -> (&str, &BTreeMap<String, Table>, &BTreeMap<String, u64>, u64) {
        (&self.owner, &self.tables, &self.versions, self.next_seq())
    }

    /// Reassembles a database from snapshot parts: the inverse of
    /// [`Database::export_parts`]. The log starts empty with `base_seq`
    /// positioned so the next mutation continues the pre-snapshot
    /// sequence.
    pub fn from_parts(
        owner: String,
        tables: BTreeMap<String, Table>,
        versions: BTreeMap<String, u64>,
        base_seq: u64,
    ) -> Self {
        Database {
            owner,
            tables,
            log: Vec::new(),
            versions,
            base_seq,
        }
    }

    /// A fingerprint over all table content hashes; two databases with the
    /// same tables and contents fingerprint identically.
    pub fn fingerprint(&self) -> Hash256 {
        fingerprint_of(
            self.tables
                .iter()
                .map(|(n, t)| (n.as_str(), t.content_hash())),
        )
    }
}

/// The fingerprint of a set of `(table name, content hash)` pairs, which
/// must arrive in name order. [`Database::fingerprint`] is this over its
/// own tables; a peer folds in the tables it stores outside the database.
pub fn fingerprint_of<'a>(tables: impl Iterator<Item = (&'a str, Hash256)>) -> Hash256 {
    let parts: Vec<Vec<u8>> = tables
        .map(|(name, hash)| {
            let mut buf = Vec::with_capacity(name.len() + 33);
            buf.extend_from_slice(name.as_bytes());
            buf.push(0);
            buf.extend_from_slice(hash.as_bytes());
            buf
        })
        .collect();
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    sha256_concat(&refs)
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
            ],
            &["id"],
        )
        .expect("schema")
    }

    #[test]
    fn create_and_access_tables() {
        let mut db = Database::new("patient");
        db.put_table("D1", Table::new(schema())).expect("create");
        assert!(db.has_table("D1"));
        assert!(db.table("D1").is_ok());
        assert!(db.table("D2").is_err());
        assert!(matches!(
            db.put_table("D1", Table::new(schema())).unwrap_err(),
            RelationalError::TableExists { .. }
        ));
    }

    #[test]
    fn apply_logs_every_mutation() {
        let mut db = Database::new("p");
        db.put_table("t", Table::new(schema())).expect("create");
        db.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "a"],
            },
        )
        .expect("insert");
        db.apply(
            "t",
            WriteOp::Update {
                key: vec![Value::Int(1)],
                assignments: vec![("name".into(), Value::text("b"))],
            },
        )
        .expect("update");
        db.apply(
            "t",
            WriteOp::Delete {
                key: vec![Value::Int(1)],
            },
        )
        .expect("delete");
        assert_eq!(db.log().len(), 3);
        assert_eq!(db.log()[0].op.kind(), "insert");
        assert_eq!(db.log()[1].op.kind(), "update");
        assert_eq!(db.log()[2].op.kind(), "delete");
        // Sequence numbers are dense.
        assert_eq!(
            db.log().iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn failed_apply_is_not_logged() {
        let mut db = Database::new("p");
        db.put_table("t", Table::new(schema())).expect("create");
        let err = db.apply(
            "t",
            WriteOp::Delete {
                key: vec![Value::Int(9)],
            },
        );
        assert!(err.is_err());
        assert!(db.log().is_empty());
    }

    #[test]
    fn replace_swaps_contents() {
        let mut db = Database::new("p");
        db.put_table("t", Table::new(schema())).expect("create");
        db.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "a"],
            },
        )
        .expect("insert");
        db.apply(
            "t",
            WriteOp::Replace {
                rows: vec![row![2i64, "x"], row![3i64, "y"]],
            },
        )
        .expect("replace");
        let t = db.table("t").expect("table");
        assert_eq!(t.len(), 2);
        assert!(t.get(&[Value::Int(1)]).is_none());
    }

    #[test]
    fn post_hash_tracks_table_hash() {
        let mut db = Database::new("p");
        db.put_table("t", Table::new(schema())).expect("create");
        db.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "a"],
            },
        )
        .expect("insert");
        let logged = db.log().last().expect("entry").post_hash;
        assert_eq!(logged, db.table("t").expect("table").content_hash());
    }

    #[test]
    fn fingerprint_is_content_based() {
        let mut a = Database::new("a");
        a.put_table("t", Table::new(schema())).expect("create");
        a.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "x"],
            },
        )
        .expect("insert");

        let mut b = Database::new("b");
        b.put_table("t", Table::new(schema())).expect("create");
        b.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "x"],
            },
        )
        .expect("insert");

        // Same content, same fingerprint (owner doesn't matter).
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.apply(
            "t",
            WriteOp::Insert {
                row: row![2i64, "y"],
            },
        )
        .expect("insert");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn truncate_log_keeps_sequence_monotonic() {
        let mut db = Database::new("p");
        db.put_table("t", Table::new(schema())).expect("create");
        for i in 0..5i64 {
            db.apply("t", WriteOp::Insert { row: row![i, "r"] })
                .expect("insert");
        }
        db.truncate_log(3);
        assert_eq!(db.base_seq(), 3);
        assert_eq!(db.log().len(), 2);
        assert_eq!(db.log()[0].seq, 3);
        assert_eq!(db.log_since(4).len(), 1);
        assert_eq!(db.log_since(0).len(), 2, "clamped to retained window");
        // New mutations continue the global numbering.
        db.apply(
            "t",
            WriteOp::Insert {
                row: row![99i64, "r"],
            },
        )
        .expect("insert");
        assert_eq!(db.log().last().expect("entry").seq, 5);
        // Truncating below base_seq is a no-op.
        db.truncate_log(1);
        assert_eq!(db.base_seq(), 3);
    }

    #[test]
    fn replay_record_verifies_seq_and_hash() {
        let mut live = Database::new("p");
        live.put_table("t", Table::new(schema())).expect("create");
        for i in 0..3i64 {
            live.apply("t", WriteOp::Insert { row: row![i, "x"] })
                .expect("insert");
        }
        let mut recovered = Database::new("p");
        recovered
            .put_table("t", Table::new(schema()))
            .expect("create");
        for rec in live.log() {
            recovered.replay_record(rec).expect("replays");
        }
        assert_eq!(recovered.fingerprint(), live.fingerprint());
        assert_eq!(recovered.log().len(), 3);
        // A seq gap is rejected.
        let mut gap = live.log()[0].clone();
        gap.seq = 9;
        assert!(matches!(
            recovered.replay_record(&gap),
            Err(RelationalError::ReplayMismatch { .. })
        ));
        // A wrong post-hash is rejected (and nothing silently diverges).
        let mut fresh = Database::new("p");
        fresh.put_table("t", Table::new(schema())).expect("create");
        let mut bad = live.log()[0].clone();
        bad.post_hash = Hash256([9; 32]);
        assert!(matches!(
            fresh.replay_record(&bad),
            Err(RelationalError::ReplayMismatch { .. })
        ));
    }

    #[test]
    fn export_and_from_parts_round_trip() {
        let mut db = Database::new("peer-a");
        db.put_table("t", Table::new(schema())).expect("create");
        db.apply(
            "t",
            WriteOp::Insert {
                row: row![1i64, "a"],
            },
        )
        .expect("insert");
        let (owner, tables, versions, next) = db.export_parts();
        let rebuilt =
            Database::from_parts(owner.to_string(), tables.clone(), versions.clone(), next);
        assert_eq!(rebuilt.fingerprint(), db.fingerprint());
        assert_eq!(rebuilt.base_seq(), 1);
        assert!(rebuilt.log().is_empty(), "snapshots do not carry the log");
        assert_eq!(rebuilt.table_version("t"), db.table_version("t"));
    }
}
