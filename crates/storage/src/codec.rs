//! Compact, versioned, length-prefixed binary codec.
//!
//! The vendored-serde JSON detour on the hot hashing paths re-encoded
//! every transaction and block header as JSON text before hashing; this
//! module replaces it with a deterministic binary format used both for
//! hashing domains (ledger digests carry `v2` domain tags over these
//! bytes) and for everything the durable-storage subsystem writes: WAL
//! records, snapshots, and table images.
//!
//! Format conventions:
//! * integers ≥ 0 of variable magnitude (lengths, counts, sequence
//!   numbers) are LEB128 varints;
//! * fixed-width values (`i64`, `f64` bits, digests) are big-endian raw
//!   bytes;
//! * enums are a `u8` tag followed by the variant's fields;
//! * compound types carry **no** per-record version byte — versioning
//!   lives at the container layer (WAL frames and snapshot headers carry
//!   a format version, ledger digests carry a domain-tag version), so a
//!   format bump re-tags the container instead of taxing every record.
//!
//! Every [`Encode`] impl is paired with a [`Decode`] impl whose
//! round-trip is exercised by unit tests; [`Decode::decode`] rejects
//! trailing garbage, which is what makes length-prefixed frames safe to
//! decode strictly.

use crate::{Result, StorageError};
use medledger_crypto::{Hash256, MerkleProof, PublicKey, Signature};
use medledger_relational::{
    Column, LogRecord, Row, Schema, ShardMap, Table, TableDelta, Value, ValueType, WriteOp,
};

/// Serializes a value into the storage binary format.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// The encoding as a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Deserializes a value from the storage binary format.
pub trait Decode: Sized {
    /// Reads one value from the reader, advancing it.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self>;

    /// Decodes a complete buffer, rejecting trailing bytes.
    fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the buffer is fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StorageError::Codec(format!(
                "{} trailing byte(s) after a complete value",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Codec(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a LEB128 varint.
    pub fn take_varint(&mut self) -> Result<u64> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift == 63 && byte > 1 {
                return Err(StorageError::Codec("varint overflows u64".into()));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Consumes a varint-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.take_varint()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Consumes a varint, validated as a collection length against the
    /// bytes actually remaining (each element needs ≥ 1 byte), so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn take_len(&mut self) -> Result<usize> {
        let len = self.take_varint()? as usize;
        if len > self.remaining() {
            return Err(StorageError::Codec(format!(
                "declared length {len} exceeds {} remaining byte(s)",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a varint-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

// ----- primitives ------------------------------------------------------

impl Encode for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl Decode for u64 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        r.take_varint()
    }
}

impl Encode for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(StorageError::Codec(format!("invalid bool byte {t}"))),
        }
    }
}

impl Encode for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for String {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        String::from_utf8(r.take_bytes()?)
            .map_err(|_| StorageError::Codec("invalid UTF-8 in string".into()))
    }
}

impl Encode for Vec<u8> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
}

impl Decode for Vec<u8> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        r.take_bytes()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            t => Err(StorageError::Codec(format!("invalid option tag {t}"))),
        }
    }
}

/// A pair is its two halves, in order — so a `Vec<(String, u64)>` or a
/// `Vec<(String, Table)>` goes through [`put_seq`] / [`take_seq`].
impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

/// Encodes a varint-counted sequence.
pub fn put_seq<T: Encode>(out: &mut Vec<u8>, items: &[T]) {
    put_varint(out, items.len() as u64);
    for item in items {
        item.encode_into(out);
    }
}

/// Decodes a varint-counted sequence. Whatever the count says, no more
/// memory is reserved up front than there are bytes left to decode from.
pub fn take_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>> {
    let len = r.take_len()?;
    let mut out = Vec::with_capacity(len.min(r.remaining() / std::mem::size_of::<T>().max(1)));
    for _ in 0..len {
        out.push(T::decode_from(r)?);
    }
    Ok(out)
}

// ----- crypto types ----------------------------------------------------

impl Encode for Hash256 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for Hash256 {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(r.take(32)?);
        Ok(Hash256(bytes))
    }
}

impl Encode for PublicKey {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
}

impl Decode for PublicKey {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(PublicKey(Hash256::decode_from(r)?))
    }
}

impl Encode for MerkleProof {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.leaf_index);
        put_seq(out, &self.path);
    }
}

impl Decode for MerkleProof {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(MerkleProof {
            leaf_index: r.take_varint()?,
            path: take_seq(r)?,
        })
    }
}

impl Encode for Signature {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.leaf_index);
        put_seq(out, &self.chains);
        self.auth_path.encode_into(out);
    }
}

/// The chain count is written, and must read back as exactly
/// [`Signature::CHAINS`]: a record from a build with another signature
/// scheme (Lamport wrote two 256-value sequences here) is a codec error,
/// not a differently shaped signature.
impl Decode for Signature {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let leaf_index = r.take_varint()?;
        let chains: Vec<Hash256> = take_seq(r)?;
        if chains.len() != Signature::CHAINS {
            return Err(StorageError::Codec(format!(
                "signature with {} chain values, expected {}",
                chains.len(),
                Signature::CHAINS
            )));
        }
        Ok(Signature {
            leaf_index,
            chains,
            auth_path: MerkleProof::decode_from(r)?,
        })
    }
}

// ----- relational types ------------------------------------------------

impl Encode for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_bits().to_be_bytes());
            }
            Value::Text(s) => {
                out.push(4);
                put_bytes(out, s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(5);
                put_bytes(out, b);
            }
        }
    }
}

impl Decode for Value {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => Value::Null,
            1 => Value::Bool(bool::decode_from(r)?),
            2 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(r.take(8)?);
                Value::Int(i64::from_be_bytes(b))
            }
            3 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(r.take(8)?);
                Value::Float(f64::from_bits(u64::from_be_bytes(b)))
            }
            4 => Value::Text(String::decode_from(r)?),
            5 => Value::Bytes(r.take_bytes()?),
            t => return Err(StorageError::Codec(format!("invalid value tag {t}"))),
        })
    }
}

impl Encode for Row {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self.iter() {
            // Fully qualified: `Value` also has an inherent `encode_into`
            // (the relational hash-canonical form), which would otherwise
            // shadow the codec trait method.
            Encode::encode_into(v, out);
        }
    }
}

impl Decode for Row {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.take_len()?;
        let mut cells = Vec::with_capacity(len);
        for _ in 0..len {
            cells.push(Value::decode_from(r)?);
        }
        Ok(Row::new(cells))
    }
}

impl Encode for ValueType {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ValueType::Null => 0,
            ValueType::Bool => 1,
            ValueType::Int => 2,
            ValueType::Float => 3,
            ValueType::Text => 4,
            ValueType::Bytes => 5,
        });
    }
}

impl Decode for ValueType {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => ValueType::Null,
            1 => ValueType::Bool,
            2 => ValueType::Int,
            3 => ValueType::Float,
            4 => ValueType::Text,
            5 => ValueType::Bytes,
            t => return Err(StorageError::Codec(format!("invalid value-type tag {t}"))),
        })
    }
}

impl Encode for Column {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.ty.encode_into(out);
        self.nullable.encode_into(out);
    }
}

impl Decode for Column {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Column {
            name: String::decode_from(r)?,
            ty: ValueType::decode_from(r)?,
            nullable: bool::decode_from(r)?,
        })
    }
}

impl Encode for Schema {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_seq(out, self.columns());
        let keys = self.key_names();
        put_varint(out, keys.len() as u64);
        for k in keys {
            put_bytes(out, k.as_bytes());
        }
    }
}

impl Decode for Schema {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let columns: Vec<Column> = take_seq(r)?;
        let len = r.take_len()?;
        let mut keys = Vec::with_capacity(len);
        for _ in 0..len {
            keys.push(String::decode_from(r)?);
        }
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        Schema::new(columns, &key_refs)
            .map_err(|e| StorageError::Codec(format!("invalid schema: {e}")))
    }
}

impl Encode for Table {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema().encode_into(out);
        put_varint(out, self.len() as u64);
        // Canonical key order: equal contents encode identically.
        for row in self.sorted_rows() {
            row.encode_into(out);
        }
    }
}

impl Decode for Table {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let schema = Schema::decode_from(r)?;
        let len = r.take_len()?;
        let mut rows = Vec::with_capacity(len);
        for _ in 0..len {
            rows.push(Row::decode_from(r)?);
        }
        // `from_rows` re-validates every row and rebuilds the key index,
        // so a decoded table upholds all table invariants.
        Table::from_rows(schema, rows)
            .map_err(|e| StorageError::Codec(format!("invalid table: {e}")))
    }
}

/// A sharded table encodes exactly as the [`Table`] its shards assemble
/// to (and decodes as one), so a snapshot can write a peer's stored
/// shared copies without assembling them first.
impl Encode for ShardMap {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.schema().encode_into(out);
        put_varint(out, self.len() as u64);
        for row in self.sorted_rows() {
            row.encode_into(out);
        }
    }
}

impl Encode for TableDelta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_seq(out, &self.inserts);
        put_varint(out, self.updates.len() as u64);
        for (key, row) in &self.updates {
            put_seq(out, key);
            row.encode_into(out);
        }
        put_varint(out, self.deletes.len() as u64);
        for key in &self.deletes {
            put_seq(out, key);
        }
    }
}

impl Decode for TableDelta {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let inserts = take_seq(r)?;
        let n_updates = r.take_len()?;
        let mut updates = Vec::with_capacity(n_updates);
        for _ in 0..n_updates {
            let key: Vec<Value> = take_seq(r)?;
            let row = Row::decode_from(r)?;
            updates.push((key, row));
        }
        let n_deletes = r.take_len()?;
        let mut deletes = Vec::with_capacity(n_deletes);
        for _ in 0..n_deletes {
            deletes.push(take_seq(r)?);
        }
        Ok(TableDelta {
            inserts,
            updates,
            deletes,
        })
    }
}

impl Encode for WriteOp {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WriteOp::Insert { row } => {
                out.push(0);
                row.encode_into(out);
            }
            WriteOp::Update { key, assignments } => {
                out.push(1);
                put_seq(out, key);
                put_varint(out, assignments.len() as u64);
                for (col, val) in assignments {
                    col.encode_into(out);
                    // Qualified for the same inherent-method shadowing
                    // reason as in the `Row` impl.
                    Encode::encode_into(val, out);
                }
            }
            WriteOp::Upsert { row } => {
                out.push(2);
                row.encode_into(out);
            }
            WriteOp::Delete { key } => {
                out.push(3);
                put_seq(out, key);
            }
            WriteOp::Replace { rows } => {
                out.push(4);
                put_seq(out, rows);
            }
            WriteOp::Delta { delta } => {
                out.push(5);
                delta.encode_into(out);
            }
        }
    }
}

impl Decode for WriteOp {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.take_u8()? {
            0 => WriteOp::Insert {
                row: Row::decode_from(r)?,
            },
            1 => {
                let key = take_seq(r)?;
                let len = r.take_len()?;
                let mut assignments = Vec::with_capacity(len);
                for _ in 0..len {
                    let col = String::decode_from(r)?;
                    let val = Value::decode_from(r)?;
                    assignments.push((col, val));
                }
                WriteOp::Update { key, assignments }
            }
            2 => WriteOp::Upsert {
                row: Row::decode_from(r)?,
            },
            3 => WriteOp::Delete { key: take_seq(r)? },
            4 => WriteOp::Replace { rows: take_seq(r)? },
            5 => WriteOp::Delta {
                delta: TableDelta::decode_from(r)?,
            },
            t => return Err(StorageError::Codec(format!("invalid write-op tag {t}"))),
        })
    }
}

impl Encode for LogRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.seq);
        self.table.encode_into(out);
        self.op.encode_into(out);
        self.post_hash.encode_into(out);
    }
}

impl Decode for LogRecord {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        Ok(LogRecord {
            seq: r.take_varint()?,
            table: String::decode_from(r)?,
            op: WriteOp::decode_from(r)?,
            post_hash: Hash256::decode_from(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_relational::row;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encoded();
        let back = T::decode(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    fn sample_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::nullable("dose", ValueType::Float),
            ],
            &["id"],
        )
        .expect("schema")
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.take_varint().expect("varint"), v);
            r.expect_end().expect("consumed");
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        let mut r = Reader::new(&[0xFF; 10]);
        assert!(r.take_varint().is_err());
    }

    #[test]
    fn values_and_rows_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Int(-42));
        round_trip(&Value::Float(1.5));
        round_trip(&Value::text("Ibuprofen"));
        round_trip(&Value::Bytes(vec![0, 1, 2, 255]));
        round_trip(&row![188i64, "Aspirin", 1.25]);
    }

    #[test]
    fn schema_and_table_round_trip() {
        let schema = sample_schema();
        round_trip(&schema);
        let table = Table::from_rows(
            schema,
            vec![row![2i64, "b", Value::Null], row![1i64, "a", 0.5]],
        )
        .expect("table");
        let bytes = table.encoded();
        let back = Table::decode(&bytes).expect("decodes");
        assert_eq!(back.content_hash(), table.content_hash());
        // Canonical row order: encoding is insertion-order independent.
        let table2 = Table::from_rows(
            sample_schema(),
            vec![row![1i64, "a", 0.5], row![2i64, "b", Value::Null]],
        )
        .expect("table");
        assert_eq!(table2.encoded(), bytes);
        // However the table is sharded, it encodes as the whole table.
        for shards in [1, 4] {
            assert_eq!(ShardMap::from_table(&table, shards).encoded(), bytes);
        }
    }

    #[test]
    fn delta_and_ops_round_trip() {
        let delta = TableDelta {
            inserts: vec![row![1i64, "a", 0.5]],
            updates: vec![(vec![Value::Int(2)], row![2i64, "b", Value::Null])],
            deletes: vec![vec![Value::Int(3)]],
        };
        round_trip(&delta);
        round_trip(&WriteOp::Insert {
            row: row![1i64, "x", 2.0],
        });
        round_trip(&WriteOp::Update {
            key: vec![Value::Int(1)],
            assignments: vec![("name".into(), Value::text("y"))],
        });
        round_trip(&WriteOp::Delete {
            key: vec![Value::Int(1)],
        });
        round_trip(&WriteOp::Replace {
            rows: vec![row![1i64, "z", 0.0]],
        });
        round_trip(&WriteOp::Delta { delta });
        round_trip(&("dosage".to_string(), 7u64));
    }

    #[test]
    fn log_record_round_trips() {
        round_trip(&LogRecord {
            seq: 999,
            table: "D1".into(),
            op: WriteOp::Delete {
                key: vec![Value::Int(7)],
            },
            post_hash: Hash256([9u8; 32]),
        });
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = Value::Int(5).encoded();
        bytes.push(0);
        assert!(Value::decode(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_fails_cleanly() {
        // A declared element count far beyond the buffer must error, not
        // allocate or panic.
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX / 2);
        let mut r = Reader::new(&out);
        assert!(r.take_len().is_err());
    }
}
