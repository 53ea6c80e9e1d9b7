//! The crate-wide error type.

use crate::value::ValueType;
use std::fmt;

/// Errors from relational operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelationalError {
    /// A named column does not exist in the schema.
    UnknownColumn {
        /// The missing column name.
        column: String,
    },
    /// A named table does not exist in the database.
    UnknownTable {
        /// The missing table name.
        table: String,
    },
    /// A table with this name already exists.
    TableExists {
        /// The duplicate table name.
        table: String,
    },
    /// Row arity does not match the schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Cells in the offending row.
        actual: usize,
    },
    /// A cell's type does not match its column.
    TypeMismatch {
        /// The offending column name.
        column: String,
        /// The column's declared type.
        expected: ValueType,
        /// The cell's actual type.
        actual: ValueType,
    },
    /// A NULL arrived in a non-nullable column.
    NullViolation {
        /// The offending column name.
        column: String,
    },
    /// Insert would duplicate a primary key.
    DuplicateKey {
        /// Display form of the duplicated key.
        key: String,
    },
    /// A lookup key matched no row.
    KeyNotFound {
        /// Display form of the missing key.
        key: String,
    },
    /// The schema's primary key is invalid (empty or not a subset of the
    /// columns).
    InvalidKey {
        /// Explanation.
        reason: String,
    },
    /// A declared functional dependency does not hold on the data.
    FdViolation {
        /// Explanation, naming determinant and conflicting rows.
        reason: String,
    },
    /// Two schemas that must agree do not.
    SchemaMismatch {
        /// Explanation.
        reason: String,
    },
    /// A replayed log record does not fit the database it is replayed
    /// into (sequence gap, or post-state hash disagreement).
    ReplayMismatch {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::UnknownColumn { column } => write!(f, "unknown column `{column}`"),
            RelationalError::UnknownTable { table } => write!(f, "unknown table `{table}`"),
            RelationalError::TableExists { table } => write!(f, "table `{table}` already exists"),
            RelationalError::ArityMismatch { expected, actual } => {
                write!(f, "row has {actual} cells, schema has {expected} columns")
            }
            RelationalError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(f, "column `{column}` expects {expected}, got {actual}"),
            RelationalError::NullViolation { column } => {
                write!(f, "NULL in non-nullable column `{column}`")
            }
            RelationalError::DuplicateKey { key } => write!(f, "duplicate primary key {key}"),
            RelationalError::KeyNotFound { key } => write!(f, "no row with key {key}"),
            RelationalError::InvalidKey { reason } => write!(f, "invalid primary key: {reason}"),
            RelationalError::FdViolation { reason } => {
                write!(f, "functional dependency violated: {reason}")
            }
            RelationalError::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
            RelationalError::ReplayMismatch { reason } => write!(f, "replay mismatch: {reason}"),
        }
    }
}

impl std::error::Error for RelationalError {}
