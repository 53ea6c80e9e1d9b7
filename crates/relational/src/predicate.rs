//! Predicates for selections.

use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A predicate over rows of a known schema.
///
/// Travels inside lens specifications in sharing agreements (and so in
/// snapshots, in the storage codec).
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Compare a named column against a constant.
    Cmp {
        /// Column name.
        attr: String,
        /// Operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// A named column is NULL.
    IsNull {
        /// Column name.
        attr: String,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr = value`.
    pub fn eq(attr: impl Into<String>, value: Value) -> Predicate {
        Predicate::Cmp {
            attr: attr.into(),
            op: CmpOp::Eq,
            value,
        }
    }

    /// `attr op value`.
    pub fn cmp(attr: impl Into<String>, op: CmpOp, value: Value) -> Predicate {
        Predicate::Cmp {
            attr: attr.into(),
            op,
            value,
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate on a row. NULL comparisons are false
    /// (SQL-ish three-valued logic collapsed to two values: unknown = false),
    /// except through [`Predicate::IsNull`].
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Cmp { attr, op, value } => {
                let idx = schema.index_of(attr)?;
                let cell = &row[idx];
                if cell.is_null() || value.is_null() {
                    return Ok(false);
                }
                let ord = cell.cmp(value);
                Ok(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                })
            }
            Predicate::IsNull { attr } => {
                let idx = schema.index_of(attr)?;
                Ok(row[idx].is_null())
            }
            Predicate::And(a, b) => Ok(a.eval(schema, row)? && b.eval(schema, row)?),
            Predicate::Or(a, b) => Ok(a.eval(schema, row)? || b.eval(schema, row)?),
            Predicate::Not(p) => Ok(!p.eval(schema, row)?),
        }
    }

    /// Column names this predicate reads (used by lens footprint analysis).
    pub fn referenced_attrs(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_attrs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp { attr, .. } | Predicate::IsNull { attr } => out.push(attr),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Predicate::Not(p) => p.collect_attrs(out),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::False => write!(f, "FALSE"),
            Predicate::Cmp { attr, op, value } => write!(f, "{attr} {op} {value}"),
            Predicate::IsNull { attr } => write!(f, "{attr} IS NULL"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::nullable("age", ValueType::Int),
            ],
            &["id"],
        )
        .expect("schema")
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row![1i64, "bob", 40i64];
        assert!(Predicate::eq("id", Value::Int(1))
            .eval(&s, &r)
            .expect("eval"));
        assert!(Predicate::cmp("age", CmpOp::Gt, Value::Int(30))
            .eval(&s, &r)
            .expect("eval"));
        assert!(Predicate::cmp("age", CmpOp::Le, Value::Int(40))
            .eval(&s, &r)
            .expect("eval"));
        assert!(!Predicate::cmp("name", CmpOp::Lt, Value::text("alice"))
            .eval(&s, &r)
            .expect("eval"));
        assert!(Predicate::cmp("name", CmpOp::Ne, Value::text("alice"))
            .eval(&s, &r)
            .expect("eval"));
    }

    #[test]
    fn boolean_connectives() {
        let s = schema();
        let r = row![1i64, "bob", 40i64];
        let p = Predicate::eq("id", Value::Int(1)).and(Predicate::eq("name", Value::text("bob")));
        assert!(p.eval(&s, &r).expect("eval"));
        let q = Predicate::eq("id", Value::Int(2)).or(Predicate::True);
        assert!(q.eval(&s, &r).expect("eval"));
        assert!(!Predicate::True.not().eval(&s, &r).expect("eval"));
        assert!(!Predicate::False.eval(&s, &r).expect("eval"));
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let r = Row::new(vec![Value::Int(1), Value::text("x"), Value::Null]);
        assert!(!Predicate::eq("age", Value::Int(1))
            .eval(&s, &r)
            .expect("eval"));
        assert!(!Predicate::cmp("age", CmpOp::Ne, Value::Int(1))
            .eval(&s, &r)
            .expect("eval"));
        assert!(Predicate::IsNull { attr: "age".into() }
            .eval(&s, &r)
            .expect("eval"));
    }

    #[test]
    fn unknown_column_is_error() {
        let s = schema();
        let r = row![1i64, "x", 2i64];
        assert!(Predicate::eq("nope", Value::Int(1)).eval(&s, &r).is_err());
    }

    #[test]
    fn referenced_attrs_deduped_sorted() {
        let p = Predicate::eq("b", Value::Int(1))
            .and(Predicate::eq("a", Value::Int(2)).or(Predicate::eq("b", Value::Int(3))));
        assert_eq!(p.referenced_attrs(), vec!["a", "b"]);
    }

    #[test]
    fn display_round_trip_readable() {
        let p = Predicate::eq("id", Value::Int(1)).and(Predicate::True.not());
        assert_eq!(p.to_string(), "(id = 1 AND NOT TRUE)");
    }
}
