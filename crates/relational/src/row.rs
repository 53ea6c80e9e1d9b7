//! Table rows.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A row: one value per schema column, in schema order.
///
/// The cells are an immutable shared slice, so cloning a row — into a
/// delta, an inverse, an undo log or a shard fragment — bumps a
/// reference count instead of copying every cell, and equality
/// short-circuits on two handles to the same cells. [`Row::get_mut`] is
/// copy-on-write: it never writes through to another handle's cells.
/// Order, hashing and the encoding are all defined over the cells.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values.into())
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The cell at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Mutable access to the cell at `idx`; copies the cells first when
    /// another handle shares them.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        if idx >= self.0.len() {
            return None;
        }
        Arc::make_mut(&mut self.0).get_mut(idx)
    }

    /// Iterates over the cells.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// Canonical byte encoding (cell count, then each cell's encoding).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * self.0.len() + 8);
        out.extend_from_slice(&(self.0.len() as u64).to_be_bytes());
        for v in self.0.iter() {
            v.encode_into(&mut out);
        }
        out
    }

    /// `self.encode().len()`, without building the encoding.
    pub fn encoded_len(&self) -> usize {
        8 + self.0.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Extracts the sub-row at the given column indexes; every column in
    /// order is this row itself, shared.
    pub fn project(&self, idxs: &[usize]) -> Row {
        if idxs.len() == self.len() && idxs.iter().enumerate().all(|(i, &j)| i == j) {
            return self.clone();
        }
        Row(idxs.iter().map(|&i| self.0[i].clone()).collect())
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row(iter.into_iter().collect())
    }
}

/// Builds a row from heterogeneous literals: `row![188, "Ibuprofen", 1.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_builds_values() {
        let r = row![188i64, "Ibuprofen", true, 1.5];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(188));
        assert_eq!(r[1], Value::text("Ibuprofen"));
        assert_eq!(r[2], Value::Bool(true));
        assert_eq!(r[3], Value::Float(1.5));
    }

    #[test]
    fn project_extracts_columns() {
        let r = row![1i64, "a", "b"];
        let p = r.project(&[2, 0]);
        assert_eq!(p, row!["b", 1i64]);
        assert_eq!(r.project(&[2, 1, 0]), row!["b", "a", 1i64]);
        assert_eq!(r.project(&[0, 1, 2]), r);
    }

    #[test]
    fn encode_differs_for_different_rows() {
        assert_ne!(row![1i64, "a"].encode(), row![1i64, "b"].encode());
        assert_ne!(row![1i64].encode(), row![1i64, "a"].encode());
        // Count prefix distinguishes [("a")] + [("b")] from [("a","b")].
        let mut concat = row!["a"].encode();
        concat.extend(row!["b"].encode());
        assert_ne!(concat, row!["a", "b"].encode());
    }

    #[test]
    fn encoded_len_matches_the_encoding() {
        let r = Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::text("Ibuprofen"),
            Value::Bytes(vec![1, 2, 3]),
        ]);
        assert_eq!(r.encoded_len(), r.encode().len());
        assert_eq!(Row::default().encoded_len(), Row::default().encode().len());
    }

    #[test]
    fn get_and_get_mut() {
        let mut r = row![1i64, 2i64];
        assert_eq!(r.get(1), Some(&Value::Int(2)));
        assert_eq!(r.get(2), None);
        *r.get_mut(0).expect("cell") = Value::Int(9);
        assert_eq!(r[0], Value::Int(9));
        assert!(r.get_mut(2).is_none());
    }

    #[test]
    fn get_mut_on_a_clone_leaves_the_original() {
        let original = row![1i64, "Ibuprofen", 1.5];
        let bytes = original.encode();
        let mut copy = original.clone();
        assert_eq!(copy, original);
        *copy.get_mut(1).expect("cell") = Value::text("Aspirin");
        assert_eq!(original[1], Value::text("Ibuprofen"));
        assert_eq!(original.encode(), bytes);
        assert_eq!(copy[1], Value::text("Aspirin"));
        assert_ne!(copy, original);
    }
}
