//! Sharing agreements: the pairwise protocol behind each shared table.
//!
//! "The formats and contents of shared data are predefined by sharing
//! peers" (Sec. III-A). An agreement names the shared table, and for each
//! participating peer the *binding*: which local source table and which
//! lens derive the shared view on that peer's side. D13 and D31 are the
//! same logical table bound differently — Patient derives it from D1 via
//! BX13, Doctor from D3 via BX31.

use crate::error::CoreError;
use medledger_bx::LensSpec;
use medledger_ledger::AccountId;
use medledger_storage::struct_codec;
use std::collections::BTreeMap;

/// One peer's side of a sharing agreement.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerBinding {
    /// The peer's local source table name (e.g. `"D1"`).
    pub source_table: String,
    /// The lens deriving the shared view from that source.
    pub lens: LensSpec,
}

// A peer's bindings are part of its snapshot.
struct_codec!(PeerBinding { source_table, lens });

/// A complete sharing agreement (one shared table).
#[derive(Clone, Debug, PartialEq)]
pub struct SharingAgreement {
    /// The shared table id — the Fig. 3 "Metadata ID" (e.g. `"D13&D31"`).
    pub table_id: String,
    /// Each peer's binding.
    pub bindings: BTreeMap<AccountId, PeerBinding>,
    /// Per-attribute writer sets (Fig. 3 "Write permission").
    pub write_permission: BTreeMap<String, Vec<AccountId>>,
    /// The Fig. 3 "Authority to change permission".
    pub authority: AccountId,
}

impl SharingAgreement {
    /// Starts building an agreement.
    pub fn builder(table_id: impl Into<String>) -> SharingAgreementBuilder {
        SharingAgreementBuilder {
            table_id: table_id.into(),
            bindings: BTreeMap::new(),
            write_permission: BTreeMap::new(),
            authority: None,
        }
    }

    /// The participating accounts.
    pub fn peers(&self) -> Vec<AccountId> {
        self.bindings.keys().copied().collect()
    }
}

/// Builder for [`SharingAgreement`].
pub struct SharingAgreementBuilder {
    table_id: String,
    bindings: BTreeMap<AccountId, PeerBinding>,
    write_permission: BTreeMap<String, Vec<AccountId>>,
    authority: Option<AccountId>,
}

impl SharingAgreementBuilder {
    /// Adds a peer with its source table and lens.
    pub fn bind(
        mut self,
        peer: AccountId,
        source_table: impl Into<String>,
        lens: LensSpec,
    ) -> Self {
        self.bindings.insert(
            peer,
            PeerBinding {
                source_table: source_table.into(),
                lens,
            },
        );
        self
    }

    /// Grants `writers` write permission on `attr`.
    pub fn allow_write(mut self, attr: impl Into<String>, writers: &[AccountId]) -> Self {
        self.write_permission.insert(attr.into(), writers.to_vec());
        self
    }

    /// Sets the permission-change authority.
    pub fn authority(mut self, who: AccountId) -> Self {
        self.authority = Some(who);
        self
    }

    /// Finalizes the agreement; one without an authority is a
    /// [`CoreError::BadAgreement`].
    pub fn build(self) -> crate::Result<SharingAgreement> {
        let authority = self.authority.ok_or_else(|| {
            CoreError::BadAgreement(format!(
                "share `{}`: the agreement needs an authority",
                self.table_id
            ))
        })?;
        Ok(SharingAgreement {
            table_id: self.table_id,
            bindings: self.bindings,
            write_permission: self.write_permission,
            authority,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medledger_crypto::KeyPair;
    use medledger_storage::{Decode, Encode};

    #[test]
    fn builder_assembles_agreement() {
        let doctor = KeyPair::generate("agr-doc", 2).public();
        let patient = KeyPair::generate("agr-pat", 2).public();
        let a = SharingAgreement::builder("D13&D31")
            .bind(
                patient,
                "D1",
                LensSpec::project(&["patient_id", "dosage"], &["patient_id"]),
            )
            .bind(
                doctor,
                "D3",
                LensSpec::project(&["patient_id", "dosage"], &["patient_id"]),
            )
            .allow_write("dosage", &[doctor])
            .authority(doctor)
            .build()
            .expect("agreement");
        assert_eq!(a.table_id, "D13&D31");
        assert_eq!(a.peers().len(), 2);
        assert_eq!(a.write_permission["dosage"], vec![doctor]);
        assert_eq!(a.authority, doctor);
        assert_eq!(a.bindings[&patient].source_table, "D1");
    }

    #[test]
    fn build_without_authority_is_a_typed_error() {
        let doctor = KeyPair::generate("agr-d2", 2).public();
        let built = SharingAgreement::builder("T")
            .bind(
                doctor,
                "D",
                LensSpec::select(medledger_relational::Predicate::True),
            )
            .build();
        assert!(
            matches!(&built, Err(CoreError::BadAgreement(msg)) if msg.contains("authority")),
            "{built:?}"
        );
    }

    #[test]
    fn bindings_round_trip_through_the_codec() {
        let doctor = KeyPair::generate("agr-ser", 2).public();
        let patient = KeyPair::generate("agr-ser2", 2).public();
        let a = SharingAgreement::builder("T")
            .bind(
                doctor,
                "D3",
                LensSpec::select(medledger_relational::Predicate::True),
            )
            .bind(
                patient,
                "D1",
                LensSpec::select(medledger_relational::Predicate::True),
            )
            .allow_write("x", &[doctor])
            .authority(doctor)
            .build()
            .expect("agreement");
        let back = BTreeMap::<AccountId, PeerBinding>::decode(&a.bindings.encoded());
        assert_eq!(back.expect("decodes"), a.bindings);
    }
}
