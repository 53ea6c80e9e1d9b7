//! Lens specifications, and their form in the storage codec.

use medledger_relational::{Predicate, Value};
use medledger_storage::codec::{put_seq, take_seq};
use medledger_storage::{Decode, Encode, Reader, StorageError};
use std::collections::BTreeMap;
use std::fmt;

/// A lens description, as data.
///
/// `LensSpec` is the form carried inside sharing agreements (the peers
/// agree on "the shared table is *this* function of my source"), kept in
/// each peer's snapshot beside its share bindings (in the storage codec),
/// and interpreted by [`crate::exec::get`] / [`crate::exec::put`].
#[derive(Clone, Debug, PartialEq)]
pub enum LensSpec {
    /// Key-preserving projection: keep `attrs` (which must include the
    /// source primary key, in order, as `view_key`).
    ///
    /// `defaults` supplies values for the *dropped* columns when `put`
    /// must translate a view-side insert into a source row; dropped
    /// nullable columns default to `NULL` automatically.
    Project {
        /// Columns kept in the view.
        attrs: Vec<String>,
        /// View primary key (must equal the source primary key).
        view_key: Vec<String>,
        /// Fill-in values for dropped columns on view-side inserts.
        defaults: BTreeMap<String, Value>,
    },
    /// Duplicate-eliminating projection under the functional dependency
    /// `view_key → attrs` (the D3 → D32 shape).
    ProjectDistinct {
        /// Columns kept in the view.
        attrs: Vec<String>,
        /// View primary key (the FD determinant, e.g. `medication_name`).
        view_key: Vec<String>,
    },
    /// Row filtering; the view schema equals the source schema.
    Select {
        /// Rows satisfying this predicate appear in the view.
        pred: Predicate,
    },
    /// Column renaming.
    Rename {
        /// Source column name.
        from: String,
        /// View column name.
        to: String,
    },
    /// Sequential composition: `second` runs on the view of `first`.
    Compose {
        /// The lens applied to the source.
        first: Box<LensSpec>,
        /// The lens applied to `first`'s view.
        second: Box<LensSpec>,
    },
}

impl LensSpec {
    /// Key-preserving projection without insert defaults.
    pub fn project(attrs: &[&str], view_key: &[&str]) -> LensSpec {
        LensSpec::Project {
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            view_key: view_key.iter().map(|s| s.to_string()).collect(),
            defaults: BTreeMap::new(),
        }
    }

    /// Key-preserving projection with insert defaults for dropped columns.
    pub fn project_with_defaults(
        attrs: &[&str],
        view_key: &[&str],
        defaults: &[(&str, Value)],
    ) -> LensSpec {
        LensSpec::Project {
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            view_key: view_key.iter().map(|s| s.to_string()).collect(),
            defaults: defaults
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Duplicate-eliminating projection.
    pub fn project_distinct(attrs: &[&str], view_key: &[&str]) -> LensSpec {
        LensSpec::ProjectDistinct {
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            view_key: view_key.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Row filtering.
    pub fn select(pred: Predicate) -> LensSpec {
        LensSpec::Select { pred }
    }

    /// Column renaming.
    pub fn rename(from: impl Into<String>, to: impl Into<String>) -> LensSpec {
        LensSpec::Rename {
            from: from.into(),
            to: to.into(),
        }
    }

    /// Sequential composition (`self` first, then `second` on the view).
    pub fn compose(self, second: LensSpec) -> LensSpec {
        LensSpec::Compose {
            first: Box::new(self),
            second: Box::new(second),
        }
    }

    /// Depth of the composition chain (1 for a primitive lens).
    pub fn depth(&self) -> usize {
        match self {
            LensSpec::Compose { first, second } => first.depth() + second.depth(),
            _ => 1,
        }
    }
}

impl Encode for LensSpec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LensSpec::Project {
                attrs,
                view_key,
                defaults,
            } => {
                out.push(0);
                put_seq(out, attrs);
                put_seq(out, view_key);
                defaults.encode_into(out);
            }
            LensSpec::ProjectDistinct { attrs, view_key } => {
                out.push(1);
                put_seq(out, attrs);
                put_seq(out, view_key);
            }
            LensSpec::Select { pred } => {
                out.push(2);
                pred.encode_into(out);
            }
            LensSpec::Rename { from, to } => {
                out.push(3);
                from.encode_into(out);
                to.encode_into(out);
            }
            LensSpec::Compose { first, second } => {
                out.push(4);
                first.encode_into(out);
                second.encode_into(out);
            }
        }
    }
}

impl Decode for LensSpec {
    fn decode_from(r: &mut Reader<'_>) -> medledger_storage::Result<Self> {
        let boxed = |r: &mut Reader<'_>| LensSpec::decode_from(r).map(Box::new);
        Ok(match r.take_u8()? {
            0 => LensSpec::Project {
                attrs: take_seq(r)?,
                view_key: take_seq(r)?,
                defaults: Decode::decode_from(r)?,
            },
            1 => LensSpec::ProjectDistinct {
                attrs: take_seq(r)?,
                view_key: take_seq(r)?,
            },
            2 => LensSpec::Select {
                pred: Predicate::decode_from(r)?,
            },
            3 => LensSpec::Rename {
                from: String::decode_from(r)?,
                to: String::decode_from(r)?,
            },
            4 => LensSpec::Compose {
                first: boxed(r)?,
                second: boxed(r)?,
            },
            t => return Err(StorageError::Codec(format!("invalid lens tag {t}"))),
        })
    }
}

impl fmt::Display for LensSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LensSpec::Project { attrs, .. } => write!(f, "π[{}]", attrs.join(",")),
            LensSpec::ProjectDistinct { attrs, view_key } => {
                write!(f, "πδ[{}; key={}]", attrs.join(","), view_key.join(","))
            }
            LensSpec::Select { pred } => write!(f, "σ[{pred}]"),
            LensSpec::Rename { from, to } => write!(f, "ρ[{from}→{to}]"),
            LensSpec::Compose { first, second } => write!(f, "{first} ∘ {second}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_variants() {
        let p = LensSpec::project(&["a", "b"], &["a"]);
        assert!(matches!(p, LensSpec::Project { .. }));
        let d = LensSpec::project_distinct(&["a"], &["a"]);
        assert!(matches!(d, LensSpec::ProjectDistinct { .. }));
        let s = LensSpec::select(Predicate::True);
        assert!(matches!(s, LensSpec::Select { .. }));
        let r = LensSpec::rename("a", "b");
        assert!(matches!(r, LensSpec::Rename { .. }));
    }

    #[test]
    fn depth_counts_primitives() {
        let l = LensSpec::select(Predicate::True)
            .compose(LensSpec::rename("a", "b"))
            .compose(LensSpec::project(&["b"], &["b"]));
        assert_eq!(l.depth(), 3);
    }

    #[test]
    fn codec_round_trip() {
        let l = LensSpec::project_with_defaults(
            &["id", "dose"],
            &["id"],
            &[("addr", Value::text("unknown"))],
        )
        .compose(LensSpec::select(Predicate::eq("id", Value::Int(1))))
        .compose(LensSpec::rename("dose", "dosage"))
        .compose(LensSpec::project_distinct(&["dosage"], &["dosage"]));
        assert_eq!(LensSpec::decode(&l.encoded()).expect("decodes"), l);
    }

    #[test]
    fn display_is_readable() {
        let l = LensSpec::project(&["a"], &["a"]).compose(LensSpec::rename("a", "b"));
        assert_eq!(l.to_string(), "π[a] ∘ ρ[a→b]");
    }
}
