//! Seeded update streams for the throughput experiments.
//!
//! An [`UpdateStream`] is an infinite, reproducible iterator of
//! [`WorkloadUpdate`]s (dosage / clinical-data / mechanism edits, each
//! mapping to a stakeholder role) over a patient population:
//!
//! * [`UpdateStream::new`] draws targets uniformly, with a
//!   `conflict_rate` knob for how often consecutive updates hit the
//!   *same* shared table — the contention axis of the pipeline and
//!   gateway benches;
//! * [`UpdateStream::hotspot`] concentrates edits on a few hot rows,
//!   the access skew the instrumented `report -- e13` experiment runs
//!   on.

use crate::ehr::EhrGenerator;
use medledger_crypto::Prg;
use medledger_relational::Value;

/// What kind of edit an update performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// Change a patient's dosage (doctor-side edit).
    Dosage,
    /// Change a patient's clinical data (patient- or doctor-side edit).
    ClinicalData,
    /// Change a medication's mechanism description (researcher-side edit).
    Mechanism,
}

/// One update in a workload stream.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadUpdate {
    /// Which kind of edit.
    pub kind: UpdateKind,
    /// Target patient id (for patient-keyed edits) or medication name (for
    /// medication-keyed edits) encoded as a Value.
    pub target: Value,
    /// The new value to write.
    pub new_value: Value,
}

/// A seeded generator of update streams.
///
/// `conflict_rate` controls how often consecutive updates hit the *same*
/// target (and therefore the same shared table) — the knob for the E7
/// serialization experiment: at rate 1.0 every update contends for the
/// paper's one-transaction-per-table-per-block slot.
#[derive(Clone, Debug)]
pub struct UpdateStream {
    prg: Prg,
    ehr: EhrGenerator,
    patient_ids: Vec<i64>,
    conflict_rate: f64,
    mix: Vec<(UpdateKind, f64)>,
    last_target: Option<(UpdateKind, Value)>,
    counter: u64,
}

impl UpdateStream {
    /// Creates a stream over patients `patient_ids`.
    pub fn new(seed: &str, patient_ids: Vec<i64>, conflict_rate: f64) -> Self {
        assert!(!patient_ids.is_empty(), "need at least one patient");
        UpdateStream {
            prg: Prg::from_label(&format!("updates-{seed}")),
            ehr: EhrGenerator::new(&format!("updates-ehr-{seed}")),
            patient_ids,
            conflict_rate: conflict_rate.clamp(0.0, 1.0),
            mix: vec![
                (UpdateKind::Dosage, 0.5),
                (UpdateKind::ClinicalData, 0.3),
                (UpdateKind::Mechanism, 0.2),
            ],
            last_target: None,
            counter: 0,
        }
    }

    /// Overrides the kind mix (weights need not sum to 1).
    pub fn with_mix(mut self, mix: Vec<(UpdateKind, f64)>) -> Self {
        assert!(!mix.is_empty());
        self.mix = mix;
        self
    }

    /// A **hotspot** stream: many small row-level edits concentrated on
    /// `hot_rows` patients drawn (seeded) from `patient_ids` — the shape
    /// where delta propagation shines, because every update touches a
    /// handful of rows of an arbitrarily large shared table. Only
    /// row-keyed kinds (dosage / clinical data) are generated.
    pub fn hotspot(seed: &str, patient_ids: Vec<i64>, hot_rows: usize) -> Self {
        assert!(!patient_ids.is_empty(), "need at least one patient");
        assert!(hot_rows >= 1, "need at least one hot row");
        let mut prg = Prg::from_label(&format!("hotspot-{seed}"));
        let mut pool = patient_ids;
        let mut hot = Vec::with_capacity(hot_rows.min(pool.len()));
        for _ in 0..hot_rows.min(pool.len()) {
            let idx = prg.next_below(pool.len() as u64) as usize;
            hot.push(pool.swap_remove(idx));
        }
        UpdateStream::new(&format!("hotspot-{seed}"), hot, 0.0).with_mix(vec![
            (UpdateKind::Dosage, 0.7),
            (UpdateKind::ClinicalData, 0.3),
        ])
    }

    fn sample_kind(&mut self) -> UpdateKind {
        let total: f64 = self.mix.iter().map(|(_, w)| w).sum();
        let mut x = self.prg.next_f64() * total;
        for (k, w) in &self.mix {
            if x < *w {
                return *k;
            }
            x -= w;
        }
        self.mix.last().expect("nonempty").0
    }

    /// Produces the next update.
    pub fn next_update(&mut self) -> WorkloadUpdate {
        self.counter += 1;
        // With probability `conflict_rate`, repeat the previous target.
        if let Some((kind, target)) = self.last_target.clone() {
            if self.prg.bernoulli(self.conflict_rate) {
                let new_value = self.fresh_value(kind);
                return WorkloadUpdate {
                    kind,
                    target,
                    new_value,
                };
            }
        }
        let kind = self.sample_kind();
        let target = match kind {
            UpdateKind::Dosage | UpdateKind::ClinicalData => {
                let idx = self.prg.next_below(self.patient_ids.len() as u64) as usize;
                Value::Int(self.patient_ids[idx])
            }
            UpdateKind::Mechanism => {
                let meds = EhrGenerator::medication_names();
                let idx = self.prg.next_below(meds.len() as u64) as usize;
                Value::text(meds[idx])
            }
        };
        self.last_target = Some((kind, target.clone()));
        let new_value = self.fresh_value(kind);
        WorkloadUpdate {
            kind,
            target,
            new_value,
        }
    }

    fn fresh_value(&mut self, kind: UpdateKind) -> Value {
        match kind {
            UpdateKind::Dosage => Value::text(format!(
                "{} (rev {})",
                self.ehr.sample_dosage(),
                self.counter
            )),
            UpdateKind::ClinicalData => Value::text(self.ehr.sample_clinical()),
            UpdateKind::Mechanism => Value::text(format!("revised mechanism #{}", self.counter)),
        }
    }

    /// Produces a batch of updates.
    pub fn take(&mut self, n: usize) -> Vec<WorkloadUpdate> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let a = UpdateStream::new("s", vec![1, 2, 3], 0.2).take(30);
        let b = UpdateStream::new("s", vec![1, 2, 3], 0.2).take(30);
        assert_eq!(a, b);
    }

    #[test]
    fn conflict_rate_one_repeats_targets() {
        let ups = UpdateStream::new("c", vec![1, 2, 3, 4, 5], 1.0).take(20);
        let first = &ups[0].target;
        // After the first update, everything repeats the same target.
        assert!(ups[1..].iter().all(|u| &u.target == first));
    }

    #[test]
    fn conflict_rate_zero_spreads_targets() {
        let ups = UpdateStream::new("z", (1..=50).collect(), 0.0).take(60);
        let distinct: std::collections::BTreeSet<String> =
            ups.iter().map(|u| u.target.to_string()).collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct targets",
            distinct.len()
        );
    }

    #[test]
    fn values_change_every_update() {
        let ups = UpdateStream::new("v", vec![1], 1.0).take(10);
        let distinct: std::collections::BTreeSet<String> =
            ups.iter().map(|u| u.new_value.to_string()).collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn hotspot_concentrates_on_few_rows() {
        let all: Vec<i64> = (1..=1000).collect();
        let ups = UpdateStream::hotspot("h", all.clone(), 4).take(100);
        let targets: std::collections::BTreeSet<i64> = ups
            .iter()
            .map(|u| u.target.as_int().expect("row-keyed"))
            .collect();
        assert!(targets.len() <= 4, "{} distinct targets", targets.len());
        assert!(targets.iter().all(|t| all.contains(t)));
        // Row-keyed kinds only, and deterministic.
        assert!(ups
            .iter()
            .all(|u| matches!(u.kind, UpdateKind::Dosage | UpdateKind::ClinicalData)));
        assert_eq!(UpdateStream::hotspot("h", all, 4).take(100), ups);
    }

    #[test]
    fn mix_override_respected() {
        let ups = UpdateStream::new("m", vec![1, 2], 0.0)
            .with_mix(vec![(UpdateKind::Mechanism, 1.0)])
            .take(20);
        assert!(ups.iter().all(|u| u.kind == UpdateKind::Mechanism));
    }
}
