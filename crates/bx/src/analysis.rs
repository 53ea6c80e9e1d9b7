//! Static lens analysis: view schemas and source-attribute footprints.
//!
//! The footprint states what an update of existing rows through a lens
//! can write: no source attribute outside it (`lens_laws` checks this).
//! It does not bound an insert or a delete, which adds or drops whole
//! source rows — so it cannot tell whether two views of one source
//! interact, and the Fig. 5 Step-6 check does not ask it: every other
//! share on the same source is a candidate.

use crate::error::BxError;
use crate::spec::LensSpec;
use crate::Result;
use medledger_relational::Schema;
use std::collections::{BTreeMap, BTreeSet};

/// Result of analyzing a lens against a source schema.
#[derive(Clone, Debug)]
pub struct LensAnalysis {
    /// Schema of the view the lens produces.
    pub view_schema: Schema,
    /// For each view column, the source column it originates from.
    pub attr_origin: BTreeMap<String, String>,
    /// Every source attribute the lens reads or writes (including
    /// predicate references in selects).
    pub footprint: BTreeSet<String>,
}

/// Analyzes `spec` against `source_schema`.
pub fn analyze(spec: &LensSpec, source_schema: &Schema) -> Result<LensAnalysis> {
    // Identity mapping at the root.
    let ident: BTreeMap<String, String> = source_schema
        .column_names()
        .iter()
        .map(|n| (n.to_string(), n.to_string()))
        .collect();
    let mut footprint = BTreeSet::new();
    let (view_schema, attr_origin) = analyze_rec(spec, source_schema, &ident, &mut footprint)?;
    // Every view column writes its origin: a bare rename passes every
    // column through, not only the renamed one.
    footprint.extend(attr_origin.values().cloned());
    Ok(LensAnalysis {
        view_schema,
        attr_origin,
        footprint,
    })
}

/// Recursive worker. `origin` maps the *current* schema's columns back to
/// root-source columns; `footprint` accumulates root-source attributes.
fn analyze_rec(
    spec: &LensSpec,
    schema: &Schema,
    origin: &BTreeMap<String, String>,
    footprint: &mut BTreeSet<String>,
) -> Result<(Schema, BTreeMap<String, String>)> {
    match spec {
        LensSpec::Project {
            attrs, view_key, ..
        } => {
            let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
            let view = schema.project(&a, &k)?;
            let mut new_origin = BTreeMap::new();
            for attr in attrs {
                let root = origin
                    .get(attr)
                    .ok_or_else(|| BxError::IllFormed {
                        reason: format!("unknown column `{attr}` in projection"),
                    })?
                    .clone();
                footprint.insert(root.clone());
                new_origin.insert(attr.clone(), root);
            }
            // Key columns of the input participate in alignment even when
            // projected away? No — project requires view_key == source key,
            // so the key is always inside `attrs`.
            Ok((view, new_origin))
        }
        LensSpec::ProjectDistinct { attrs, view_key } => {
            let a: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let k: Vec<&str> = view_key.iter().map(String::as_str).collect();
            let view = schema.project(&a, &k)?;
            let mut new_origin = BTreeMap::new();
            for attr in attrs {
                let root = origin
                    .get(attr)
                    .ok_or_else(|| BxError::IllFormed {
                        reason: format!("unknown column `{attr}` in projection"),
                    })?
                    .clone();
                footprint.insert(root.clone());
                new_origin.insert(attr.clone(), root);
            }
            Ok((view, new_origin))
        }
        LensSpec::Select { pred } => {
            for attr in pred.referenced_attrs() {
                let root = origin.get(attr).ok_or_else(|| BxError::IllFormed {
                    reason: format!("select predicate references unknown column `{attr}`"),
                })?;
                footprint.insert(root.clone());
            }
            // A select's put can rewrite any column of matching rows.
            for (_, root) in origin.iter() {
                footprint.insert(root.clone());
            }
            Ok((schema.clone(), origin.clone()))
        }
        LensSpec::Rename { from, to } => {
            let view = schema.rename(from, to)?;
            let mut new_origin = origin.clone();
            let root = new_origin.remove(from).ok_or_else(|| BxError::IllFormed {
                reason: format!("rename of unknown column `{from}`"),
            })?;
            footprint.insert(root.clone());
            new_origin.insert(to.clone(), root);
            Ok((view, new_origin))
        }
        LensSpec::Compose { first, second } => {
            let (mid_schema, mid_origin) = analyze_rec(first, schema, origin, footprint)?;
            analyze_rec(second, &mid_schema, &mid_origin, footprint)
        }
    }
}

/// Convenience: the view schema a lens produces from a source schema.
pub fn view_schema(spec: &LensSpec, source_schema: &Schema) -> Result<Schema> {
    Ok(analyze(spec, source_schema)?.view_schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_relational::{Column, Predicate, Value, ValueType};

    fn d3_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("clinical_data", ValueType::Text),
                Column::new("mechanism_of_action", ValueType::Text),
                Column::new("dosage", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema")
    }

    #[test]
    fn project_footprint_is_projected_attrs() {
        let lens = LensSpec::project(
            &["patient_id", "medication_name", "clinical_data", "dosage"],
            &["patient_id"],
        );
        let a = analyze(&lens, &d3_schema()).expect("analysis");
        let fp: Vec<&str> = a.footprint.iter().map(String::as_str).collect();
        assert_eq!(
            fp,
            vec!["clinical_data", "dosage", "medication_name", "patient_id"]
        );
        assert_eq!(a.view_schema.arity(), 4);
    }

    #[test]
    fn project_distinct_footprint_is_projected_attrs() {
        // BX32: the researcher-facing view of D3.
        let bx32 = LensSpec::project_distinct(
            &["medication_name", "mechanism_of_action"],
            &["medication_name"],
        );
        let a = analyze(&bx32, &d3_schema()).expect("analysis");
        let fp: Vec<&str> = a.footprint.iter().map(String::as_str).collect();
        assert_eq!(fp, vec!["mechanism_of_action", "medication_name"]);
        assert_eq!(a.view_schema.key_names(), vec!["medication_name"]);
    }

    #[test]
    fn select_footprint_is_whole_schema() {
        let lens = LensSpec::select(Predicate::eq("medication_name", Value::text("Ibuprofen")));
        let a = analyze(&lens, &d3_schema()).expect("analysis");
        assert_eq!(a.footprint.len(), 5);
    }

    #[test]
    fn rename_tracks_origin_through_compose() {
        let lens = LensSpec::rename("dosage", "dose")
            .compose(LensSpec::project(&["patient_id", "dose"], &["patient_id"]));
        let a = analyze(&lens, &d3_schema()).expect("analysis");
        assert_eq!(
            a.attr_origin.get("dose").map(String::as_str),
            Some("dosage")
        );
        assert!(a.footprint.contains("dosage"));
        assert!(!a.footprint.contains("mechanism_of_action"));
    }

    #[test]
    fn bare_rename_footprint_is_every_passed_column() {
        let a = analyze(&LensSpec::rename("dosage", "dose"), &d3_schema()).expect("analysis");
        assert_eq!(a.footprint.len(), 5);
    }

    #[test]
    fn view_schema_helper() {
        let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
        let v = view_schema(&lens, &d3_schema()).expect("schema");
        assert_eq!(v.column_names(), vec!["patient_id", "dosage"]);
    }

    #[test]
    fn unknown_columns_are_ill_formed() {
        let lens = LensSpec::project(&["nope"], &["nope"]);
        assert!(analyze(&lens, &d3_schema()).is_err());
        let lens = LensSpec::rename("nope", "x");
        assert!(analyze(&lens, &d3_schema()).is_err());
    }
}
