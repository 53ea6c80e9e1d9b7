//! What the suites standing on the Fig. 5 reference model share: the
//! model itself, one way to stage the same writes on both sides, the
//! comparison of a deployment against the model, and the Fig. 1 world
//! with its script vocabulary, stepped on both sides at once.
#![allow(dead_code)]

pub mod fig5_model;

use fig5_model::{Committed, Fig5Model, Refusal, Write};
use medledger_core::scenario::{
    self, bx13_lens, bx23_lens, bx31_lens, bx32_lens, Fig1Scenario, DOCTOR, PATIENT, RESEARCHER,
    SHARE_PD, SHARE_RD,
};
use medledger_core::{
    CommitError, CommitOutcome, ConsensusKind, CoreError, MedLedger, SystemConfig, UpdateBatch,
    UpdateReport,
};
use medledger_relational::{Value, WriteOp};
use proptest::prelude::*;

/// Stages `writes` on a facade batch — the writes a model commit takes.
pub fn stage<'s>(mut batch: UpdateBatch<'s>, writes: &[Write]) -> UpdateBatch<'s> {
    for w in writes {
        batch = match w.clone() {
            Write::Shared(WriteOp::Insert { row }) => batch.insert(row),
            Write::Shared(WriteOp::Update { key, assignments }) => batch.update(key, assignments),
            Write::Shared(WriteOp::Delete { key }) => batch.delete(key),
            Write::Source {
                table,
                op: WriteOp::Update { key, assignments },
            } => batch.update_source(table, key, assignments),
            other => panic!("the facade stages no {other:?}"),
        };
    }
    batch
}

/// One line per commit attempt, comparable across the two sides: the
/// committed version, or which way it was refused.
pub fn outcome_line(result: &Result<CommitOutcome, CommitError>) -> String {
    match result {
        Ok(outcome) => {
            assert!(outcome.receipts.iter().all(|r| r.status.is_success()));
            format!("ok v{}", outcome.version())
        }
        Err(e) if e.is_no_change() => "no-change".into(),
        Err(e) if e.is_permission_denied() => {
            assert!(e.receipt().is_some(), "a denial is on chain");
            "denied".into()
        }
        Err(CommitError::Untranslatable { .. }) => "untranslatable".into(),
        Err(CommitError::Engine(CoreError::Relational(_))) => "invalid".into(),
        Err(e) => panic!("unexpected failure: {e}"),
    }
}

/// [`outcome_line`] of a model commit.
pub fn model_line(result: &Result<Committed, Refusal>) -> String {
    match result {
        Ok(committed) => format!("ok v{}", committed.version),
        Err(Refusal::NoChange) => "no-change".into(),
        Err(Refusal::Denied(_)) => "denied".into(),
        Err(Refusal::Untranslatable(_)) => "untranslatable".into(),
        Err(Refusal::Invalid(_)) => "invalid".into(),
    }
}

/// `(share, version, changed attributes)` of an update and its cascades,
/// in the order the versions were counted.
type VersionLine = (String, u64, Vec<String>);

fn versions_of(report: &UpdateReport, out: &mut Vec<VersionLine>) {
    let attrs = report.changed_attrs.clone();
    out.push((report.table_id.clone(), report.version, attrs));
    report.cascades.iter().for_each(|c| versions_of(c, out));
}

fn model_versions_of(committed: &Committed) -> Vec<VersionLine> {
    let line = |c: &Committed| {
        let attrs = c.attrs.iter().cloned().collect();
        (c.share.clone(), c.version, attrs)
    };
    committed.flatten().into_iter().map(line).collect()
}

/// Commits `writes` by `peer` through `share` on the deployment and on
/// the model, and holds the one against the other: the same outcome, the
/// same versions with the same permission-checked attributes down the
/// cascades, the same state afterwards.
pub fn commit_on_both(
    ledger: &mut MedLedger,
    model: &mut Fig5Model,
    (peer, share, writes): (&str, &str, &[Write]),
    context: &str,
) -> (
    Result<CommitOutcome, CommitError>,
    Result<Committed, Refusal>,
) {
    let id = ledger.peer_id(peer).expect("peer");
    let got = stage(ledger.session(id).begin(share), writes).commit();
    let expected = model.commit(peer, share, writes);
    assert_eq!(outcome_line(&got), model_line(&expected), "{context}");
    if let (Ok(got), Ok(expected)) = (&got, &expected) {
        let mut versions = Vec::new();
        versions_of(&got.report, &mut versions);
        assert_eq!(versions, model_versions_of(expected), "{context}");
        let blocked = got.report.failed_cascades.len();
        assert_eq!(blocked, expected.blocked.len(), "{context}");
    }
    ledger.check_consistency().expect("consistent");
    assert_matches_model(ledger, model, context);
    (got, expected)
}

/// The deployment holds what the model holds: per peer every source and
/// every shared table row for row, the whole-database fingerprint, the
/// committed baseline; per share the contract's version and content
/// hash, with the table unlocked.
pub fn assert_matches_model(ledger: &MedLedger, model: &Fig5Model, context: &str) {
    for name in model.peer_names() {
        let id = ledger.peer_id(name).expect("peer");
        let (node, expected) = (ledger.system().peer(id).expect("node"), model.peer(name));
        for share in expected.shares() {
            let stored = node.shared_table(share).expect("stored copy");
            assert_eq!(stored, expected.view(share), "{context}: {name} `{share}`");
            assert_eq!(
                node.committed_hash(share).expect("committed hash"),
                expected.committed(share).content_hash(),
                "{context}: {name} `{share}` committed"
            );
            let meta = ledger.share_meta(share).expect("meta");
            assert_eq!(meta.version, model.version(share), "{context}: `{share}`");
            assert_eq!(
                meta.content_hash,
                model.committed(share).content_hash(),
                "{context}: `{share}` contract hash"
            );
            assert!(meta.synced(), "{context}: `{share}` unlocked");
        }
        assert_eq!(
            node.fingerprint().0,
            expected.fingerprint(),
            "{context}: {name} fingerprint"
        );
    }
}

// ----- the Fig. 1 world ---------------------------------------------------

/// One batch of a Fig. 1 script.
#[derive(Clone, Debug)]
pub enum Fig1Op {
    /// Doctor edits patient 188's dosage through the patient share.
    DoctorDosage(u8),
    /// Patient edits its clinical data through the patient share.
    PatientClinical(u8),
    /// Patient tries to edit dosage — denied by the Fig. 3 matrix.
    PatientDosage(u8),
    /// Researcher edits a medication's mechanism in its D2 source and
    /// commits through the research share.
    ResearcherMechanism(u8, u8),
    /// Researcher edits D2's mode of action, which no lens shows: a
    /// commit without effect, whose local edit stays.
    ResearcherMode(u8, u8),
    /// Doctor renames patient 188's medication through the patient
    /// share; Step 6 finds the research share changed and cascades.
    DoctorRename(u8),
    /// Doctor edits dosage and clinical data in one batch.
    DoctorBoth(u8, u8),
    /// Researcher retires a medication from the research share — the
    /// Doctor's lens turns that into deleting its patients, and Step 6
    /// carries the loss of patient 188 on to the Patient, after which
    /// every write to that row is invalid.
    ResearcherRetire(u8),
}

pub fn arb_fig1_op() -> impl Strategy<Value = Fig1Op> {
    prop_oneof![
        (0u8..200).prop_map(Fig1Op::DoctorDosage),
        (0u8..200).prop_map(Fig1Op::DoctorDosage),
        (0u8..200).prop_map(Fig1Op::PatientClinical),
        (0u8..200).prop_map(Fig1Op::PatientClinical),
        (0u8..200).prop_map(Fig1Op::PatientDosage),
        (0u8..2, 0u8..200).prop_map(|(m, v)| Fig1Op::ResearcherMechanism(m, v)),
        (0u8..2, 0u8..200).prop_map(|(m, v)| Fig1Op::ResearcherMechanism(m, v)),
        (0u8..2, 0u8..200).prop_map(|(m, v)| Fig1Op::ResearcherMode(m, v)),
        (0u8..3).prop_map(Fig1Op::DoctorRename),
        (0u8..200, 0u8..200).prop_map(|(d, c)| Fig1Op::DoctorBoth(d, c)),
        (0u8..2).prop_map(Fig1Op::ResearcherRetire),
    ]
}

const MEDICATIONS: [&str; 2] = ["Ibuprofen", "Wellbutrin"];

/// Who commits what through which share.
fn fig1_batch(op: &Fig1Op) -> (&'static str, &'static str, Vec<Write>) {
    let set = |attr: &str, value: String| {
        Write::Shared(WriteOp::Update {
            key: vec![Value::Int(188)],
            assignments: vec![(attr.into(), Value::text(value))],
        })
    };
    let in_d2 = |m: u8, attr: &str, value: String| Write::Source {
        table: "D2".into(),
        op: WriteOp::Update {
            key: vec![Value::text(MEDICATIONS[m as usize])],
            assignments: vec![(attr.into(), Value::text(value))],
        },
    };
    match op {
        Fig1Op::DoctorDosage(v) => (DOCTOR, SHARE_PD, vec![set("dosage", format!("dose-{v}"))]),
        Fig1Op::PatientClinical(v) => {
            let clinical = set("clinical_data", format!("clin-{v}"));
            (PATIENT, SHARE_PD, vec![clinical])
        }
        Fig1Op::PatientDosage(v) => (PATIENT, SHARE_PD, vec![set("dosage", format!("own-{v}"))]),
        Fig1Op::ResearcherMechanism(m, v) => {
            let mechanism = in_d2(*m, "mechanism_of_action", format!("mech-{v}"));
            (RESEARCHER, SHARE_RD, vec![mechanism])
        }
        Fig1Op::ResearcherMode(m, v) => {
            let mode = in_d2(*m, "mode_of_action", format!("mode-{v}"));
            (RESEARCHER, SHARE_RD, vec![mode])
        }
        Fig1Op::DoctorRename(n) => {
            let rename = set("medication_name", format!("brand-{n}"));
            (DOCTOR, SHARE_PD, vec![rename])
        }
        Fig1Op::DoctorBoth(d, c) => {
            let dosage = set("dosage", format!("dose-{d}"));
            let clinical = set("clinical_data", format!("clin-{c}"));
            (DOCTOR, SHARE_PD, vec![dosage, clinical])
        }
        Fig1Op::ResearcherRetire(m) => {
            let key = vec![Value::text(MEDICATIONS[*m as usize])];
            let retire = Write::Shared(WriteOp::Delete { key });
            (RESEARCHER, SHARE_RD, vec![retire])
        }
    }
}

/// The Fig. 1 world in the model: the three peers with the sources the
/// freshly built `scn` loaded, the two shares with their lenses, and the
/// Fig. 3 permission matrix.
pub fn fig1_model(scn: &Fig1Scenario) -> Fig5Model {
    let mut model = Fig5Model::default();
    let sources = [
        (PATIENT, scn.patient, "D1"),
        (RESEARCHER, scn.researcher, "D2"),
        (DOCTOR, scn.doctor, "D3"),
    ];
    for (name, id, source) in sources {
        let table = scn.ledger.reader(id).source(source).expect("source");
        model.add_peer(name).load_source(source, table);
    }
    model.create_share(
        SHARE_PD,
        &[(DOCTOR, "D3", bx31_lens()), (PATIENT, "D1", bx13_lens())],
        &[
            ("patient_id", &[DOCTOR]),
            ("medication_name", &[DOCTOR]),
            ("dosage", &[DOCTOR]),
            ("clinical_data", &[PATIENT, DOCTOR]),
        ],
    );
    model.create_share(
        SHARE_RD,
        &[(RESEARCHER, "D2", bx23_lens()), (DOCTOR, "D3", bx32_lens())],
        &[
            ("medication_name", &[DOCTOR, RESEARCHER]),
            ("mechanism_of_action", &[RESEARCHER]),
        ],
    );
    model
}

/// A Fig. 1 deployment and the model beside it after a script.
pub struct Fig1Run {
    pub scn: Fig1Scenario,
    pub model: Fig5Model,
    /// What the model committed, step by step (cascades inside).
    pub committed: Vec<Committed>,
    /// Per step: the status of every receipt, or how it was refused.
    pub receipts: Vec<String>,
}

/// Builds Fig. 1 at `shards` shards per table and steps `script` through
/// it and through the model, every step held against the model by
/// [`commit_on_both`].
pub fn run_fig1_script(seed: &str, shards: usize, script: &[Fig1Op]) -> Fig1Run {
    let consensus = ConsensusKind::PrivatePbft {
        block_interval_ms: 50,
    };
    let mut scn = scenario::build(SystemConfig {
        consensus,
        seed: seed.into(),
        // Deriving the one-time keys is most of what a deployment costs
        // to build; the longest script spends under 40 per peer.
        peer_key_capacity: 64,
        shards_per_table: shards,
        ..Default::default()
    })
    .expect("build");
    let mut model = fig1_model(&scn);
    // A rename rewrites the research share's key, which counts as every
    // attribute: let the Doctor's cascade through.
    let (doctor, researcher) = (scn.doctor, scn.researcher);
    (scn.ledger.session(researcher))
        .grant(SHARE_RD, "mechanism_of_action", &[doctor, researcher])
        .expect("grant");
    model.grant(SHARE_RD, "mechanism_of_action", &[DOCTOR, RESEARCHER]);
    assert_matches_model(&scn.ledger, &model, "as built");

    let (mut committed, mut receipts) = (Vec::new(), Vec::new());
    for (i, op) in script.iter().enumerate() {
        let (peer, share, writes) = fig1_batch(op);
        let context = format!("shards={shards} step {i} {op:?}");
        let batch = (peer, share, writes.as_slice());
        let (got, expected) = commit_on_both(&mut scn.ledger, &mut model, batch, &context);
        match &got {
            Ok(outcome) => receipts.extend(outcome.receipts.iter().map(|r| format!("{r:?}"))),
            Err(_) => receipts.push(outcome_line(&got)),
        }
        committed.extend(expected);
    }
    Fig1Run {
        scn,
        model,
        committed,
        receipts,
    }
}
