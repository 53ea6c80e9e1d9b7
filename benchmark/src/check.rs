//! Correctness: did every operation come back as the generator
//! expected, was every ticket resolved exactly once, and does the state
//! the deployment ends in hold every acknowledged write.

use crate::drive::Sample;
use crate::gen::{Expect, Plan};
use medledger_core::MedLedger;
use medledger_node::wire::WireWrite;
use medledger_node::GatewayStats;
use medledger_relational::{Row, Value, WriteOp};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Failed operations and state violations found after a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations whose outcome was not the expected one.
    pub failed_ops: usize,
    /// Everything else that must not happen, one line each.
    pub violations: Vec<String>,
}

impl Verdict {
    /// True iff nothing failed.
    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.violations.is_empty()
    }

    fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

/// Compares every sample with the expectation of the operation it
/// carried; a shed, a wire error and an unexpected rejection all count.
pub fn check_outcomes(plan: &Plan, samples: &[Sample], verdict: &mut Verdict) {
    let mut tickets = BTreeSet::new();
    for s in samples {
        let op = &plan.stages[s.stage].sessions[s.session][s.index].op;
        if !s.outcome.matches(op.expect) {
            verdict.failed_ops += 1;
            if verdict.violations.len() < 8 {
                verdict.violation(format!(
                    "{} on `{}` expected {:?}, got {:?}",
                    op.class, op.table, op.expect, s.outcome
                ));
            }
        }
        if let Some(t) = s.ticket {
            if !tickets.insert(t) {
                verdict.violation(format!("ticket {t} was handed out twice"));
            }
        }
    }
    let planned = plan.ops().count();
    if samples.len() != planned {
        verdict.violation(format!(
            "{} of {planned} operations were attempted",
            samples.len()
        ));
    }
}

/// Every admitted submission must have resolved exactly once, and none
/// may have been shed.
pub fn check_gateway(stats: &GatewayStats, verdict: &mut Verdict) {
    if stats.submissions != stats.resolved {
        verdict.violation(format!(
            "{} submissions admitted but {} resolved",
            stats.submissions, stats.resolved
        ));
    }
    if stats.overloaded != 0 {
        verdict.violation(format!("{} submissions shed", stats.overloaded));
    }
}

/// Checks the final shared tables for lost writes. Within a session
/// operations are sequential, so a cell must hold the last value *some*
/// session committed to it, and a row must exist iff the last insert or
/// delete of its key (one session's — the generator partitions them)
/// says so. A denied value is never among the candidates.
pub fn check_state(plan: &Plan, samples: &[Sample], ledger: &MedLedger, verdict: &mut Verdict) {
    type Cell = (String, Vec<Value>, String);
    let mut cells: BTreeMap<Cell, BTreeMap<usize, Value>> = BTreeMap::new();
    let mut rows: BTreeMap<(String, Vec<Value>), Option<Row>> = BTreeMap::new();
    let mut ordered: Vec<&Sample> = samples.iter().collect();
    ordered.sort_by_key(|s| (s.session, s.stage, s.index));
    for s in ordered {
        let op = &plan.stages[s.stage].sessions[s.session][s.index].op;
        if op.expect != Expect::Commit || !s.outcome.matches(op.expect) {
            continue;
        }
        for write in &op.writes {
            let (WireWrite::Shared(w) | WireWrite::Source { op: w, .. }) = write;
            match w {
                WriteOp::Update { key, assignments } => {
                    for (attr, value) in assignments {
                        cells
                            .entry((op.table.clone(), key.clone(), attr.clone()))
                            .or_default()
                            .insert(s.session, value.clone());
                    }
                }
                WriteOp::Insert { row } => {
                    let key = vec![row[0].clone()];
                    rows.insert((op.table.clone(), key), Some(row.clone()));
                }
                WriteOp::Delete { key } => {
                    rows.insert((op.table.clone(), key.clone()), None);
                }
                other => verdict.violation(format!("generator emitted unchecked write {other:?}")),
            }
        }
    }

    let mut tables = BTreeMap::new();
    for share in &plan.world.shares {
        let name = &plan.world.peers[share.bindings[0].peer];
        match ledger
            .peer_id(name)
            .and_then(|id| ledger.reader(id).read(&share.table))
        {
            Ok(t) => {
                tables.insert(share.table.clone(), t);
            }
            Err(e) => verdict.violation(format!("cannot read `{}`: {e}", share.table)),
        }
    }
    for ((table, key, attr), candidates) in &cells {
        let Some(t) = tables.get(table) else { continue };
        let found = t
            .schema()
            .index_of(attr)
            .ok()
            .and_then(|i| t.get(key).map(|r| &r[i]));
        if !found.is_some_and(|v| candidates.values().any(|c| c == v)) {
            verdict.violation(format!(
                "lost write: `{table}` {key:?}.{attr} holds {found:?}, no session's last commit"
            ));
        }
    }
    for ((table, key), expected) in &rows {
        let Some(t) = tables.get(table) else { continue };
        if t.get(key) != expected.as_ref() {
            verdict.violation(format!(
                "lost write: `{table}` row {key:?} is {:?}, expected {expected:?}",
                t.get(key)
            ));
        }
    }
}

/// What [`check_ledger`] measured on the way.
pub struct LedgerCheck {
    /// One-time keys each peer has spent, in peer order.
    pub keys_spent: Vec<u64>,
    /// Wall time of `check_consistency`.
    pub consistency_secs: f64,
    /// Wall time of `verify_chain`.
    pub verify_chain_secs: f64,
}

/// The end-of-run ledger checks: peers byte-identical and matching the
/// contract, the chain valid from genesis, no cascade left blocked, and
/// no peer past the planner's key prediction.
pub fn check_ledger(
    plan: &Plan,
    service: &medledger_engine::LedgerService,
    verdict: &mut Verdict,
) -> LedgerCheck {
    let ledger = service.ledger();
    let t = Instant::now();
    if let Err(e) = ledger.check_consistency() {
        verdict.violation(format!("check_consistency: {e}"));
    }
    let consistency_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if let Err(e) = medledger_ledger::verify_chain(ledger.chain()) {
        verdict.violation(format!("verify_chain: {e}"));
    }
    let verify_chain_secs = t.elapsed().as_secs_f64();
    for c in service.cascades().iter().filter(|c| c.result.is_err()) {
        verdict.violation(format!(
            "cascade into `{}` blocked: {:?}",
            c.table_id, c.result
        ));
    }
    let mut keys_spent = Vec::new();
    for (name, predicted) in plan.world.peers.iter().zip(&plan.predicted_keys) {
        let remaining = ledger
            .peer_id(name)
            .and_then(|id| ledger.remaining_keys(id))
            .unwrap_or(0);
        let spent = plan.key_capacity as u64 - remaining;
        if spent > *predicted {
            verdict.violation(format!(
                "key planner predicted {predicted} keys for {name}, {spent} were spent"
            ));
        }
        keys_spent.push(spent);
    }
    LedgerCheck {
        keys_spent,
        consistency_secs,
        verify_chain_secs,
    }
}

/// A recovered ledger must hold every acknowledged commit: the same
/// chain and byte-identical shared tables on every peer as the live one.
pub fn check_recovered(
    plan: &Plan,
    live: &MedLedger,
    recovered: &MedLedger,
    verdict: &mut Verdict,
) {
    if let Err(e) = recovered.check_consistency() {
        verdict.violation(format!("recovered store inconsistent: {e}"));
    }
    let (a, b) = (live.chain().tip().hash(), recovered.chain().tip().hash());
    if a != b {
        verdict.violation(format!(
            "recovered chain tip differs (live height {}, recovered {})",
            live.chain().height(),
            recovered.chain().height()
        ));
    }
    for share in &plan.world.shares {
        for b in &share.bindings {
            let name = &plan.world.peers[b.peer];
            let read = |l: &MedLedger| {
                l.peer_id(name)
                    .and_then(|id| l.reader(id).read(&share.table))
                    .map(|t| t.content_hash())
            };
            match (read(live), read(recovered)) {
                (Ok(x), Ok(y)) if x == y => {}
                (x, y) => verdict.violation(format!(
                    "recovered `{}` on {name} lost acknowledged commits ({x:?} vs {y:?})",
                    share.table
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Outcome;
    use crate::gen::{plan, Workload};

    fn samples_as_expected(p: &Plan) -> Vec<Sample> {
        let mut out = Vec::new();
        for (stage, st) in p.stages.iter().enumerate() {
            for (session, ops) in st.sessions.iter().enumerate() {
                for (index, planned) in ops.iter().enumerate() {
                    out.push(Sample {
                        stage,
                        session,
                        index,
                        due_ns: 0,
                        sent_ns: 0,
                        accepted_ns: 1,
                        done_ns: 2,
                        ticket: Some(out.len() as u64),
                        outcome: match planned.op.expect {
                            Expect::Commit => Outcome::Committed { sync_virtual_ms: 0 },
                            Expect::Denied => Outcome::Denied,
                        },
                    });
                }
            }
        }
        out
    }

    #[test]
    fn checker_flags_a_flipped_expectation() {
        let mut p = plan(Workload::ClinicMixed, 1, 0.1);
        let samples = samples_as_expected(&p);
        let mut v = Verdict::default();
        check_outcomes(&p, &samples, &mut v);
        assert!(v.correct(), "{v:?}");

        // Flip one expectation each way: a commit that should have been
        // denied, and a denial that should have committed.
        let flipped: Vec<(usize, usize)> = [Expect::Commit, Expect::Denied]
            .into_iter()
            .map(|e| {
                let i = p.stages[1].sessions[0]
                    .iter()
                    .position(|x| x.op.expect == e)
                    .expect("both outcomes occur");
                (i, 0)
            })
            .collect();
        for (i, s) in &flipped {
            let op = &mut p.stages[1].sessions[*s][*i].op;
            op.expect = match op.expect {
                Expect::Commit => Expect::Denied,
                Expect::Denied => Expect::Commit,
            };
        }
        let mut v = Verdict::default();
        check_outcomes(&p, &samples, &mut v);
        assert_eq!(v.failed_ops, 2);
        assert!(!v.correct());
    }

    #[test]
    fn checker_flags_sheds_duplicates_and_missing_operations() {
        let p = plan(Workload::WardDurable, 1, 0.05);
        let mut samples = samples_as_expected(&p);
        samples[3].outcome = Outcome::Other("shed".into());
        samples[5].ticket = samples[4].ticket;
        samples.pop();
        let mut v = Verdict::default();
        check_outcomes(&p, &samples, &mut v);
        assert_eq!(v.failed_ops, 1);
        assert_eq!(v.violations.len(), 3, "{v:?}");
    }
}
