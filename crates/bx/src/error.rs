//! Lens errors.

use medledger_relational::RelationalError;
use std::fmt;

/// Errors from lens construction and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum BxError {
    /// An underlying relational operation failed.
    Relational(RelationalError),
    /// The lens is ill-formed for this source schema (e.g. a projection
    /// view key that is not the source key).
    IllFormed {
        /// Explanation.
        reason: String,
    },
    /// The view update cannot be translated to a source update (the
    /// classical view-update problem's "no translation exists" case).
    Untranslatable {
        /// Explanation, naming the offending view rows.
        reason: String,
    },
    /// A view row violates the lens's view invariant (e.g. fails a select
    /// predicate, or has the wrong schema).
    InvalidView {
        /// Explanation.
        reason: String,
    },
    /// A delta does not align with the table it claims to change (e.g. an
    /// update for a key the table does not hold, or an insert of a key it
    /// already holds) — the incremental pipeline's analogue of a stale or
    /// corrupt view.
    InvalidDelta {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for BxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BxError::Relational(e) => write!(f, "relational error: {e}"),
            BxError::IllFormed { reason } => write!(f, "ill-formed lens: {reason}"),
            BxError::Untranslatable { reason } => {
                write!(f, "untranslatable view update: {reason}")
            }
            BxError::InvalidView { reason } => write!(f, "invalid view: {reason}"),
            BxError::InvalidDelta { reason } => write!(f, "invalid delta: {reason}"),
        }
    }
}

impl std::error::Error for BxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BxError::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for BxError {
    fn from(e: RelationalError) -> Self {
        BxError::Relational(e)
    }
}
