//! Column and schema descriptions.

use crate::error::RelationalError;
use crate::row::Row;
use crate::value::ValueType;
use crate::Result;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name (attribute name in the paper, e.g. `medication_name`).
    pub name: String,
    /// Declared cell type.
    pub ty: ValueType,
    /// Whether NULL cells are allowed.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// A table schema: ordered columns plus a primary key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Vec<Column>,
    /// Indexes (into `columns`) of the primary key attributes.
    key: Vec<usize>,
}

impl Schema {
    /// Builds a schema; `key` names must be a nonempty subset of the
    /// column names and key columns must be non-nullable.
    pub fn new(columns: Vec<Column>, key: &[&str]) -> Result<Self> {
        if key.is_empty() {
            return Err(RelationalError::InvalidKey {
                reason: "primary key must name at least one column".into(),
            });
        }
        let mut seen = HashSet::with_capacity(columns.len());
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(RelationalError::SchemaMismatch {
                    reason: format!("duplicate column `{}`", c.name),
                });
            }
        }
        let mut key_idx = Vec::with_capacity(key.len());
        for k in key {
            let idx = columns.iter().position(|c| c.name == *k).ok_or_else(|| {
                RelationalError::UnknownColumn {
                    column: (*k).to_string(),
                }
            })?;
            if columns[idx].nullable {
                return Err(RelationalError::InvalidKey {
                    reason: format!("key column `{k}` must not be nullable"),
                });
            }
            if key_idx.contains(&idx) {
                return Err(RelationalError::InvalidKey {
                    reason: format!("key column `{k}` listed twice"),
                });
            }
            key_idx.push(idx);
        }
        Ok(Schema {
            columns,
            key: key_idx,
        })
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indexes of the primary key columns.
    pub fn key_indexes(&self) -> &[usize] {
        &self.key
    }

    /// Names of the primary key columns.
    pub fn key_names(&self) -> Vec<&str> {
        self.key
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect()
    }

    /// All column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelationalError::UnknownColumn {
                column: name.to_string(),
            })
    }

    /// True iff a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// Validates a row against this schema (arity, types, nullability).
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (col, cell) in self.columns.iter().zip(row.iter()) {
            if cell.is_null() {
                if !col.nullable {
                    return Err(RelationalError::NullViolation {
                        column: col.name.clone(),
                    });
                }
            } else if cell.value_type() != col.ty {
                return Err(RelationalError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty,
                    actual: cell.value_type(),
                });
            }
        }
        Ok(())
    }

    /// Derives the schema of a projection onto `attrs`, keyed by
    /// `view_key`. Both must name existing columns; `view_key ⊆ attrs`.
    pub fn project(&self, attrs: &[&str], view_key: &[&str]) -> Result<Schema> {
        let by_name: HashMap<&str, usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs {
            let idx = *by_name
                .get(a)
                .ok_or_else(|| RelationalError::UnknownColumn {
                    column: (*a).to_string(),
                })?;
            cols.push(self.columns[idx].clone());
        }
        for k in view_key {
            if !attrs.contains(k) {
                return Err(RelationalError::InvalidKey {
                    reason: format!("view key column `{k}` not in projection"),
                });
            }
        }
        Schema::new(cols, view_key)
    }

    /// Derives the schema with one column renamed.
    pub fn rename(&self, from: &str, to: &str) -> Result<Schema> {
        let idx = self.index_of(from)?;
        if self.has_column(to) && from != to {
            return Err(RelationalError::SchemaMismatch {
                reason: format!("rename target `{to}` already exists"),
            });
        }
        let mut cols = self.columns.clone();
        cols[idx].name = to.to_string();
        let key_names: Vec<String> = self.key.iter().map(|&i| cols[i].name.clone()).collect();
        let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        Schema::new(cols, &key_refs)
    }

    /// Extracts a row's primary key values.
    pub fn key_of(&self, row: &Row) -> Vec<crate::Value> {
        self.key.iter().map(|&i| row[i].clone()).collect()
    }

    /// `row` with the named columns set, validated against this schema.
    /// Key columns cannot be assigned (delete + insert instead).
    pub(crate) fn assign<C: AsRef<str>>(
        &self,
        row: &Row,
        assignments: &[(C, crate::Value)],
    ) -> Result<Row> {
        let mut out = row.clone();
        for (col, val) in assignments {
            let col = col.as_ref();
            let idx = self.index_of(col)?;
            if self.key.contains(&idx) {
                return Err(RelationalError::InvalidKey {
                    reason: format!("cannot assign key column `{col}` in update"),
                });
            }
            let actual = out.len();
            let cell = out.get_mut(idx).ok_or(RelationalError::ArityMismatch {
                expected: self.arity(),
                actual,
            })?;
            *cell = val.clone();
        }
        self.check_row(&out)?;
        Ok(out)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let keyed = if self.key.contains(&i) { "*" } else { "" };
            write!(
                f,
                "{keyed}{}: {}{}",
                c.name,
                c.ty,
                if c.nullable { "?" } else { "" }
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::Value;

    fn demo() -> Schema {
        Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::nullable("dosage", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("valid schema")
    }

    #[test]
    fn valid_schema_and_lookup() {
        let s = demo();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("dosage").expect("col"), 2);
        assert!(s.has_column("medication_name"));
        assert!(!s.has_column("nope"));
        assert_eq!(s.key_names(), vec!["patient_id"]);
    }

    #[test]
    fn rejects_empty_key() {
        let err = Schema::new(vec![Column::new("a", ValueType::Int)], &[]).unwrap_err();
        assert!(matches!(err, RelationalError::InvalidKey { .. }));
    }

    #[test]
    fn rejects_unknown_key_column() {
        let err = Schema::new(vec![Column::new("a", ValueType::Int)], &["b"]).unwrap_err();
        assert!(matches!(err, RelationalError::UnknownColumn { .. }));
    }

    #[test]
    fn rejects_nullable_key_column() {
        let err = Schema::new(vec![Column::nullable("a", ValueType::Int)], &["a"]).unwrap_err();
        assert!(matches!(err, RelationalError::InvalidKey { .. }));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = Schema::new(
            vec![
                Column::new("a", ValueType::Int),
                Column::new("a", ValueType::Text),
            ],
            &["a"],
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_duplicate_key_entries() {
        let err = Schema::new(vec![Column::new("a", ValueType::Int)], &["a", "a"]).unwrap_err();
        assert!(matches!(err, RelationalError::InvalidKey { .. }));
    }

    #[test]
    fn check_row_accepts_valid() {
        let s = demo();
        s.check_row(&row![188i64, "Ibuprofen", "one tablet every 4h"])
            .expect("valid");
        // Nullable column accepts NULL.
        s.check_row(&Row::new(vec![
            Value::Int(1),
            Value::text("X"),
            Value::Null,
        ]))
        .expect("null dosage ok");
    }

    #[test]
    fn check_row_rejects_bad_arity_type_null() {
        let s = demo();
        assert!(matches!(
            s.check_row(&row![1i64]).unwrap_err(),
            RelationalError::ArityMismatch { .. }
        ));
        assert!(matches!(
            s.check_row(&row![1i64, 2i64, "d"]).unwrap_err(),
            RelationalError::TypeMismatch { .. }
        ));
        assert!(matches!(
            s.check_row(&Row::new(vec![Value::Null, Value::text("m"), Value::Null]))
                .unwrap_err(),
            RelationalError::NullViolation { .. }
        ));
    }

    #[test]
    fn project_builds_sub_schema() {
        let s = demo();
        let p = s
            .project(&["patient_id", "dosage"], &["patient_id"])
            .expect("projection");
        assert_eq!(p.arity(), 2);
        assert_eq!(p.column_names(), vec!["patient_id", "dosage"]);
    }

    #[test]
    fn project_requires_key_in_attrs() {
        let s = demo();
        let err = s.project(&["dosage"], &["patient_id"]).unwrap_err();
        assert!(matches!(err, RelationalError::InvalidKey { .. }));
    }

    #[test]
    fn project_errors_are_pinned() {
        let s = demo();
        // The first unknown attribute in `attrs` order is the one named.
        let err = s
            .project(&["patient_id", "nope", "gone"], &["patient_id"])
            .unwrap_err();
        assert_eq!(
            err,
            RelationalError::UnknownColumn {
                column: "nope".into()
            }
        );
        let err = s.project(&["dosage", "gone"], &["nope"]).unwrap_err();
        assert_eq!(
            err,
            RelationalError::UnknownColumn {
                column: "gone".into()
            }
        );
        // An attribute listed twice is a duplicate column of the view.
        let err = s
            .project(&["patient_id", "dosage", "dosage"], &["patient_id"])
            .unwrap_err();
        assert_eq!(
            err,
            RelationalError::SchemaMismatch {
                reason: "duplicate column `dosage`".into()
            }
        );
        let err = s.project(&["dosage"], &["patient_id"]).unwrap_err();
        assert_eq!(
            err,
            RelationalError::InvalidKey {
                reason: "view key column `patient_id` not in projection".into()
            }
        );
        // A nullable view key is refused by `Schema::new`.
        let err = s
            .project(&["patient_id", "dosage"], &["dosage"])
            .unwrap_err();
        assert_eq!(
            err,
            RelationalError::InvalidKey {
                reason: "key column `dosage` must not be nullable".into()
            }
        );
    }

    #[test]
    fn rename_preserves_key() {
        let s = demo();
        let r = s.rename("patient_id", "pid").expect("rename");
        assert_eq!(r.key_names(), vec!["pid"]);
        let err = s.rename("dosage", "patient_id").unwrap_err();
        assert!(matches!(err, RelationalError::SchemaMismatch { .. }));
        assert!(s.rename("missing", "x").is_err());
    }

    #[test]
    fn key_of_extracts_key_values() {
        let s = demo();
        let k = s.key_of(&row![188i64, "Ibuprofen", "d"]);
        assert_eq!(k, vec![Value::Int(188)]);
    }

    #[test]
    fn display_marks_key_and_nullable() {
        let s = demo();
        let d = s.to_string();
        assert!(d.contains("*patient_id"));
        assert!(d.contains("dosage: text?"));
    }
}
