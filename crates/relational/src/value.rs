//! Dynamically typed cell values.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// The null type (only inhabited by `Value::Null`).
    Null,
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE floats (ordered by `total_cmp`).
    Float,
    /// UTF-8 text.
    Text,
    /// Raw bytes.
    Bytes,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "null",
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Text => "text",
            ValueType::Bytes => "bytes",
        };
        f.write_str(s)
    }
}

/// A single table cell.
///
/// `Value` is totally ordered (type rank first, then value; floats by IEEE
/// `total_cmp`) so rows can be canonically sorted and content-hashed, and
/// hashable so values can key indexes. Equality on floats is bitwise, which
/// is the right notion for replication: peers must agree byte-for-byte.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Builds a text value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Text(_) => ValueType::Text,
            Value::Bytes(_) => ValueType::Bytes,
        }
    }

    /// True iff this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the text content if this is a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Rank used for cross-type ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// Appends the canonical byte encoding of this value to `out`.
    ///
    /// The encoding is prefix-free per value (tag byte, then fixed width or
    /// length-prefixed payload), so concatenated row encodings are
    /// unambiguous and safe to hash.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
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
                out.extend_from_slice(&(s.len() as u64).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(5);
                out.extend_from_slice(&(b.len() as u64).to_be_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    /// Length of the canonical encoding, without building it.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Text(s) => 9 + s.len(),
            Value::Bytes(b) => 9 + b.len(),
        }
    }

    /// The canonical byte encoding of this value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_ordering_is_by_rank() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::Float(0.5),
            Value::text("a"),
            Value::Bytes(vec![0]),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn within_type_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::text("a") < Value::text("b"));
        assert!(Value::Float(1.0) < Value::Float(2.0));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::Bytes(vec![1]) < Value::Bytes(vec![2]));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, nan);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn equality_matches_hash() {
        let a = Value::text("x");
        let b = Value::text("x");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn encode_is_prefix_free_across_types() {
        // No encoding is a prefix of another for these representative values.
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::text(""),
            Value::Bytes(vec![]),
            Value::text("ab"),
            Value::Bytes(vec![1, 2, 3]),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                if i != j {
                    let ea = a.encode();
                    let eb = b.encode();
                    assert_ne!(ea, eb, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn encode_distinguishes_text_and_bytes() {
        assert_ne!(
            Value::text("abc").encode(),
            Value::Bytes(b"abc".to_vec()).encode()
        );
    }

    #[test]
    fn encode_length_prefix_prevents_splicing() {
        // ("a", "bc") must encode differently from ("ab", "c").
        let mut e1 = Value::text("a").encode();
        e1.extend(Value::text("bc").encode());
        let mut e2 = Value::text("ab").encode();
        e2.extend(Value::text("c").encode());
        assert_ne!(e1, e2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "0xdead");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
    }

    #[test]
    fn value_type_reporting() {
        assert_eq!(Value::Null.value_type(), ValueType::Null);
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::text("x").value_type(), ValueType::Text);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }
}
