//! The one commit scheduler: every update — a facade
//! [`UpdateBatch::commit`](crate::facade::UpdateBatch::commit), a
//! `medledger-engine` `LedgerService` submission, a Fig. 5 Step-6
//! cascade — reaches the chain through [`System::run_wave`].
//!
//! Submissions queue with a [`CommitTicket`]; cascades queue with the
//! path of tables they descend from. One wave runs as named steps:
//!
//! 1. **admit** (`System::admit`) — queued cascades first (their
//!    deltas already sit on their peers), then submissions in arrival
//!    order, grouped per table. A cascade is dropped if its table is on
//!    its own path or its peer no longer holds a pending change of it —
//!    the rule of the test-side Fig. 5 model — and recorded as blocked if
//!    its path is longer than [`MAX_CASCADE_DEPTH`]. The claims are then
//!    screened: distinct, non-interacting tables only.
//! 2. **stage** (`System::stage_group`) — per admitted table the first
//!    viable submission leads, staged on its own peer; later submissions
//!    compose onto the lead's copy, each co-author pre-screened on its
//!    own attributes (a denied one unwinds alone and rides the block as a
//!    receipted denial).
//! 3. **commit** — one [`System::commit_group`] for every member.
//! 4. **settle** (`System::settle_wave`) — outcomes demultiplexed to
//!    tickets, Step-6 cascades re-entered with their paths, a wave that
//!    made no progress resolved by its oldest waiter, the rest requeued.
//!
//! The facade's commit enqueues one submission and runs waves until it
//! and every cascade it set off are through; the engine's
//! `LedgerService` hands out the tickets and takes the outcomes.

use crate::error::CoreError;
use crate::facade::{CommitError, CommitOutcome};
use crate::peer::PeerNode;
use crate::system::{
    CoSubmitter, DeferredCascade, GroupCommitOutcome, GroupEntry, GroupEntryResult, PeerId, System,
    UpdateReport, MAX_CASCADE_DEPTH,
};
use crate::Result;
use medledger_bx::changed_attrs_from_delta;
use medledger_ledger::{Receipt, RevertKind, TxId, TxStatus};
use medledger_relational::{delta_from_write_op, TableDelta, WriteOp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// What a ticket resolves to.
type Outcome = std::result::Result<CommitOutcome, CommitError>;

/// Handle to one queued submission; resolves to a [`CommitOutcome`] /
/// [`CommitError`] once the wave holding it commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitTicket(u64);

impl fmt::Display for CommitTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// One staged local write of a submission.
#[derive(Clone, Debug)]
pub(crate) enum StagedOp {
    /// A write against the shared table's materialized copy (reflected
    /// into the source via BX-put when staged).
    Shared(WriteOp),
    /// A write against one of the peer's *source* tables (the Fig. 5
    /// step-0 shape: edit the source, then propagate the derived view).
    Source { table: String, op: WriteOp },
}

/// One submission waiting for a wave.
struct Pending {
    ticket: CommitTicket,
    peer: PeerId,
    table_id: String,
    writes: Vec<StagedOp>,
}

/// A Step-6 cascade queued for a later wave.
struct QueuedCascade {
    peer: PeerId,
    table_id: String,
    /// The tables of the updates this cascade descends from, the
    /// submission's first; the last is its origin.
    path: Vec<String>,
    /// The submission whose commit set the chain of cascades off.
    root: CommitTicket,
    /// The cascade log entry of the cascade that set this one off
    /// (`None`: the submission itself did).
    parent: Option<usize>,
}

/// The record of one cascade the scheduler ran (or could not run).
#[derive(Clone, Debug)]
pub struct CascadeRecord {
    /// The committed table whose update triggered the cascade.
    pub origin: String,
    /// The cascaded table.
    pub table_id: String,
    /// The peer whose pending change the cascade committed.
    pub peer: PeerId,
    /// The wave that ran it.
    pub wave: u64,
    /// The propagation report, or why the cascade stayed blocked
    /// (permission denied, untranslatable, too deep): the peer keeps its
    /// pending delta for a later retry.
    pub result: std::result::Result<UpdateReport, String>,
    /// The submission whose commit set the chain of cascades off.
    pub ticket: CommitTicket,
    parent: Option<usize>,
    /// Virtual time the record was made (a blocked cascade's trace line).
    at_ms: u64,
}

/// Summary of one [`System::run_wave`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WaveReport {
    /// The wave number (also stamped into every block the wave produced).
    pub wave: u64,
    /// Group members that entered this wave (submission groups +
    /// re-entered cascades) — including members the contract went on to
    /// deny, which still ride the wave's block.
    pub members: usize,
    /// Tickets resolved.
    pub resolved: usize,
    /// Cascades detected and deferred into the next wave.
    pub cascades_deferred: usize,
}

/// The scheduler's state, owned by the [`System`]: the queues, the
/// resolved outcomes, the cascade log, and the ticket and wave counters.
#[derive(Default)]
pub(crate) struct Scheduler {
    pending: VecDeque<Pending>,
    deferred: VecDeque<QueuedCascade>,
    resolved: BTreeMap<CommitTicket, Outcome>,
    cascade_log: Vec<CascadeRecord>,
    next_ticket: u64,
    /// Waves run so far (recovery resumes it from the chain's stamps).
    pub(crate) wave: u64,
}

/// Admission state of one co-submitter.
enum CoState {
    /// Composed into the member; its co-request should succeed.
    Admitted,
    /// Denied by the off-chain permission pre-screen: excluded from the
    /// composition (unwound alone), riding the block only for its
    /// individually receipted on-chain denial.
    Rider { reason: String },
}

/// One same-table submission group, staged as one member.
struct StagedGroup {
    entry: GroupEntry,
    lead: Pending,
    /// Per co-submitter, aligned with `entry.co_submitters`.
    co: Vec<(CoState, Pending)>,
    /// Every staged write of the member, on the lead's peer.
    inverses: Vec<(String, TableDelta)>,
}

/// One member of the wave under construction.
enum Member {
    Cascade(QueuedCascade),
    Group(StagedGroup),
}

impl Member {
    fn entry(&self) -> GroupEntry {
        match self {
            Member::Cascade(c) => GroupEntry::new(c.peer, c.table_id.clone()),
            Member::Group(g) => g.entry.clone(),
        }
    }
}

/// One wave between steps: its members and what it sends back.
struct Plan {
    wave: u64,
    members: Vec<Member>,
    requeue_subs: Vec<Pending>,
    requeue_cascades: Vec<QueuedCascade>,
    /// Tickets this wave resolved.
    resolved: usize,
}

/// What staging one submission produced: the applied inverse deltas, the
/// changed-attribute set of the target shared table, and the
/// submission's **composed** view delta (the sequential composition of
/// every write's view-level effect, relative to the view state the
/// submission started from).
#[derive(Default)]
struct Staging {
    inverses: Vec<(String, TableDelta)>,
    attrs: BTreeSet<String>,
    composed: TableDelta,
}

impl System {
    /// Queues one submission for the next wave.
    pub(crate) fn enqueue(
        &mut self,
        peer: PeerId,
        table_id: String,
        writes: Vec<StagedOp>,
    ) -> CommitTicket {
        let ticket = CommitTicket(self.sched.next_ticket);
        self.sched.next_ticket += 1;
        (self.sched.pending).push_back(Pending {
            ticket,
            peer,
            table_id,
            writes,
        });
        ticket
    }

    /// True iff submissions or cascades await a wave.
    pub fn has_work(&self) -> bool {
        !self.sched.pending.is_empty() || !self.sched.deferred.is_empty()
    }

    /// Submissions waiting for the next wave.
    pub fn pending_submissions(&self) -> usize {
        self.sched.pending.len()
    }

    /// Waves run so far, by either front door (the number the next
    /// wave's blocks are stamped with, less one).
    pub fn waves(&self) -> u64 {
        self.sched.wave
    }

    /// Every cascade the scheduler has run or recorded as blocked, in
    /// commit order.
    pub fn cascades(&self) -> &[CascadeRecord] {
        &self.sched.cascade_log
    }

    /// True iff the ticket's outcome is ready for
    /// [`System::take_outcome`].
    pub fn is_resolved(&self, ticket: CommitTicket) -> bool {
        self.sched.resolved.contains_key(&ticket)
    }

    /// Takes a resolved ticket's outcome (`None` if unknown, not yet
    /// resolved, or already taken).
    pub fn take_outcome(&mut self, ticket: CommitTicket) -> Option<Outcome> {
        self.sched.resolved.remove(&ticket)
    }

    /// Takes every resolved outcome, in ticket order.
    pub fn take_resolved(&mut self) -> Vec<(CommitTicket, Outcome)> {
        std::mem::take(&mut self.sched.resolved)
            .into_iter()
            .collect()
    }

    /// Commits `updater`'s pending change of `table_id` — no new writes —
    /// as one submission, its cascades included (the facade's commit of
    /// an empty batch, which the facade itself refuses).
    #[allow(clippy::result_large_err)]
    pub fn propagate_update(
        &mut self,
        updater: PeerId,
        table_id: &str,
    ) -> std::result::Result<UpdateReport, CommitError> {
        let ticket = self.enqueue(updater, table_id.to_string(), Vec::new());
        self.commit_ticket(ticket).map(|outcome| outcome.report)
    }

    /// Runs waves until `ticket` and every cascade it set off are
    /// through, and returns its outcome with those cascades assembled into
    /// the report (nested as they set each other off), their receipts
    /// after its own, and a Step-6 trace line per blocked one.
    #[allow(clippy::result_large_err)]
    pub(crate) fn commit_ticket(&mut self, ticket: CommitTicket) -> Outcome {
        let first_record = self.sched.cascade_log.len();
        let open = |sys: &System| {
            !sys.is_resolved(ticket) || sys.sched.deferred.iter().any(|c| c.root == ticket)
        };
        while open(self) && self.has_work() {
            if let Err(e) = self.run_wave() {
                // A wave fails whole only after its blocks: what was
                // committed stays (see `abort_wave`).
                return Err(match self.take_outcome(ticket) {
                    Some(Err(err)) => err,
                    _ => CommitError::from_core(e, self).with_commit_point(true),
                });
            }
        }
        let mut outcome = self.take_outcome(ticket).ok_or_else(|| {
            CommitError::Engine(CoreError::BadAgreement(format!(
                "{ticket} is unknown or was already taken"
            )))
        })??;
        self.attach_cascades(&mut outcome.report, ticket, None, first_record);
        outcome.receipts.clear();
        collect_receipts(self, &outcome.report, &mut outcome.receipts);
        outcome.trace = outcome.report.trace.clone();
        Ok(outcome)
    }

    /// Nests into `report` the cascades of `ticket` whose record names
    /// `parent` as theirs, each with its own below it.
    fn attach_cascades(
        &self,
        report: &mut UpdateReport,
        ticket: CommitTicket,
        parent: Option<usize>,
        first_record: usize,
    ) {
        let log = &self.sched.cascade_log;
        let children = (log.iter().enumerate().skip(first_record))
            .filter(|(_, r)| r.ticket == ticket && r.parent == parent);
        for (at, record) in children {
            match &record.result {
                Ok(cascade) => {
                    let mut cascade = cascade.clone();
                    self.attach_cascades(&mut cascade, ticket, Some(at), first_record);
                    report.cascades.push(cascade);
                }
                Err(reason) => {
                    let blocked = format!("cascade into `{}` blocked: {reason}", record.table_id);
                    let name = self.peer_name_or_id(record.peer);
                    report.trace.push("6", record.at_ms, &name, blocked);
                    (report.failed_cascades).push((record.table_id.clone(), reason.clone()));
                }
            }
        }
    }

    /// Forms and commits ONE wave: admits queued cascades and submission
    /// groups onto distinct, non-interacting shared tables, composes
    /// same-table submissions into combined members, commits everything
    /// through one [`System::commit_group`] — one block and one
    /// scheduled consensus round for the requests, one for the aggregated
    /// acks — and resolves the affected tickets. Members whose tables
    /// conflict with an earlier member's re-queue for the next wave.
    pub fn run_wave(&mut self) -> Result<WaveReport> {
        if !self.has_work() {
            return Ok(WaveReport::default());
        }
        self.sched.wave += 1;
        let mut plan = Plan {
            wave: self.sched.wave,
            members: Vec::new(),
            requeue_subs: Vec::new(),
            requeue_cascades: Vec::new(),
            resolved: 0,
        };
        for (table_id, subs) in self.admit(&mut plan) {
            if let Some(group) = self.stage_group(&table_id, subs, &mut plan) {
                plan.members.push(Member::Group(group));
            }
        }
        let entries: Vec<GroupEntry> = plan.members.iter().map(Member::entry).collect();
        self.wave = Some(plan.wave);
        let outcome = self.commit_group(&entries);
        self.wave = None;
        let cascades_deferred = match outcome {
            Ok(outcome) => self.settle_wave(&mut plan, outcome),
            Err(e) => {
                self.abort_wave(&mut plan, &e);
                self.requeue(plan);
                return Err(e);
            }
        };
        self.guard_progress(&mut plan, entries.len());
        let report = WaveReport {
            wave: plan.wave,
            members: entries.len(),
            resolved: plan.resolved,
            cascades_deferred,
        };
        self.requeue(plan);
        Ok(report)
    }

    /// Step **admit**: claims tables in arrival order — cascades first,
    /// then submissions grouped per table — and screens the claims
    /// (same-table / queued-transaction / lens-footprint interaction,
    /// earlier claims winning). Admitted cascades become members; the
    /// admitted submission groups are returned for staging.
    fn admit(&mut self, plan: &mut Plan) -> Vec<(String, Vec<Pending>)> {
        let cascades: Vec<QueuedCascade> = self.sched.deferred.drain(..).collect();
        let submissions: Vec<Pending> = self.sched.pending.drain(..).collect();
        let mut claimed: BTreeSet<String> = BTreeSet::new();
        let mut cascade_claims = Vec::new();
        for c in cascades {
            // The Fig. 5 model's rule: never back into a table on the
            // path, nor into one whose change has already gone out.
            let pending = self
                .peer(c.peer)
                .and_then(|p| p.has_pending_change(&c.table_id));
            if c.path.contains(&c.table_id) || matches!(pending, Ok(false)) {
                continue;
            }
            if let Err(e) = pending {
                self.log_cascade(&c, plan.wave, Err(e.to_string()));
            } else if c.path.len() > MAX_CASCADE_DEPTH {
                let deep = format!(
                    "cascade depth exceeded {MAX_CASCADE_DEPTH} — cyclic sharing topology?"
                );
                self.log_cascade(&c, plan.wave, Err(deep));
            } else if claimed.insert(c.table_id.clone()) {
                cascade_claims.push(c);
            } else {
                plan.requeue_cascades.push(c);
            }
        }
        let mut groups: Vec<(String, Vec<Pending>)> = Vec::new();
        for s in submissions {
            if claimed.contains(&s.table_id) {
                // An older cascade already claims this table this wave.
                plan.requeue_subs.push(s);
            } else if let Some((_, g)) = groups.iter_mut().find(|(t, _)| *t == s.table_id) {
                g.push(s);
            } else {
                groups.push((s.table_id.clone(), vec![s]));
            }
        }

        let claims: Vec<GroupEntry> = (cascade_claims.iter())
            .map(|c| GroupEntry::new(c.peer, c.table_id.clone()))
            .chain(
                groups
                    .iter()
                    .map(|(t, subs)| GroupEntry::new(subs[0].peer, t.clone())),
            )
            .collect();
        let mut screens = self.screen_group(&claims).into_iter();
        for c in cascade_claims {
            match screens.next().flatten() {
                None => plan.members.push(Member::Cascade(c)),
                Some(_) => plan.requeue_cascades.push(c),
            }
        }
        let mut admitted = Vec::new();
        for (table_id, subs) in groups {
            match screens.next().flatten() {
                None => admitted.push((table_id, subs)),
                Some(_) => plan.requeue_subs.extend(subs),
            }
        }
        admitted
    }

    /// Step **stage**: one table's submissions as one member. The first
    /// viable submission leads; later ones compose onto its copy. `None`
    /// when nothing could lead, or when the member's writes overlap an
    /// earlier member's on the same peer — then it unwinds and re-queues
    /// whole, or one member's uncommitted rows would ride with the other.
    fn stage_group(
        &mut self,
        table_id: &str,
        subs: Vec<Pending>,
        plan: &mut Plan,
    ) -> Option<StagedGroup> {
        let mut queue: VecDeque<Pending> = subs.into();
        let mut group = self.stage_lead(table_id, &mut queue, plan)?;
        if !queue.is_empty() {
            self.stage_co_authors(&mut group, queue, plan);
        }
        // A sole-authored member declares exactly what the engine's
        // prepare step computes from the composed pending delta (the
        // per-op attribute union can over-approximate, e.g. a batch that
        // sets and then reverts an attribute). Only a combined member
        // needs the split declaration.
        if group.entry.co_submitters.is_empty() {
            group.entry.declared_attrs = None;
        }
        let touched = |g: &StagedGroup| -> BTreeSet<String> {
            g.inverses.iter().map(|(t, _)| t.clone()).collect()
        };
        let mine = touched(&group);
        let overlap = plan.members.iter().any(|m| match m {
            Member::Group(g) => g.lead.peer == group.lead.peer && !touched(g).is_disjoint(&mine),
            Member::Cascade(_) => false,
        });
        if overlap {
            self.unwind(group.lead.peer, &group.inverses);
            plan.requeue_subs.push(group.lead);
            plan.requeue_subs
                .extend(group.co.into_iter().map(|(_, sub)| sub));
            return None;
        }
        Some(group)
    }

    /// Stages submissions from the front of `queue` on their own peers
    /// until one sticks with an observable change; each that does not
    /// resolves on the way out. A submission whose writes change nothing
    /// keeps them (they are valid edits of its own data) and resolves
    /// `NoChange`.
    fn stage_lead(
        &mut self,
        table_id: &str,
        queue: &mut VecDeque<Pending>,
        plan: &mut Plan,
    ) -> Option<StagedGroup> {
        while let Some(lead) = queue.pop_front() {
            // The lead also ships (and must declare) whatever pending
            // delta it already carries — e.g. a blocked cascade's.
            let staged = (self.peer(lead.peer))
                .and_then(|node| pre_existing_attrs(node, table_id))
                .and_then(|pre| Ok((pre, self.stage_writes(lead.peer, table_id, &lead.writes)?)));
            let (pre, staged) = match staged {
                Ok(staged) => staged,
                Err(e) => {
                    let err = CommitError::from_core(e, self);
                    self.resolve(plan, lead.ticket, Err(err));
                    continue;
                }
            };
            // Writes whose composition cancels out contribute no
            // attributes (declaring the per-op union would demand
            // permissions for a net no-op).
            let mut attrs = match staged.composed.is_empty() {
                true => BTreeSet::new(),
                false => staged.attrs,
            };
            attrs.extend(pre);
            if attrs.is_empty() {
                let no_change = CommitError::NoChange {
                    table_id: table_id.to_string(),
                };
                self.resolve(plan, lead.ticket, Err(no_change));
                continue;
            }
            let entry = GroupEntry::new(lead.peer, table_id).declaring(attrs.into_iter().collect());
            return Some(StagedGroup {
                entry,
                lead,
                co: Vec::new(),
                inverses: staged.inverses,
            });
        }
        None
    }

    /// Composes the rest of the table's submissions onto the lead's copy,
    /// each permission-pre-screened against the Fig. 3 matrix on its own
    /// changed attributes: an admitted co-author's writes stay, a denied
    /// one's unwind alone and it rides the block for its receipted
    /// denial.
    fn stage_co_authors(
        &mut self,
        group: &mut StagedGroup,
        queue: VecDeque<Pending>,
        plan: &mut Plan,
    ) {
        let (table_id, lead_peer) = (group.entry.table_id.clone(), group.lead.peer);
        // Nothing commits on chain while a wave stages, so one read of
        // the matrix serves every co-author.
        let meta = match self.share_meta(&table_id) {
            Ok(meta) => meta,
            Err(e) => {
                // Nothing can combine; the lead goes alone.
                let err = CommitError::from_core(e, self);
                for sub in queue {
                    self.resolve(plan, sub.ticket, Err(err.clone()));
                }
                return;
            }
        };
        for sub in queue {
            // Cross-peer source writes cannot compose (the source lives
            // on the submitter, not the lead): the next wave takes them.
            let source_write = sub
                .writes
                .iter()
                .any(|w| matches!(w, StagedOp::Source { .. }));
            if sub.peer != lead_peer && source_write {
                plan.requeue_subs.push(sub);
                continue;
            }
            let staged = match self.stage_writes(lead_peer, &table_id, &sub.writes) {
                Ok(staged) => staged,
                Err(e) => {
                    let err = CommitError::from_core(e, self);
                    self.resolve(plan, sub.ticket, Err(err));
                    continue;
                }
            };
            if staged.attrs.is_empty() || staged.composed.is_empty() {
                // No observable change of the view (no-op assignments, or
                // a composition that cancels out, e.g. insert-then-delete):
                // unwind and retry it as a later wave's lead, where it
                // gets `NoChange` and keeps its valid local edits on its
                // OWN peer.
                self.unwind(lead_peer, &staged.inverses);
                plan.requeue_subs.push(sub);
                continue;
            }
            let attrs: Vec<String> = staged.attrs.into_iter().collect();
            let state = match meta.may_write_all(&sub.peer.account(), &attrs) {
                Ok(()) => {
                    group.inverses.extend(staged.inverses);
                    CoState::Admitted
                }
                Err(reason) => {
                    // A denied co-author must not leak its delta into the
                    // composed (committed!) data.
                    self.unwind(lead_peer, &staged.inverses);
                    CoState::Rider { reason }
                }
            };
            let co = CoSubmitter {
                peer: sub.peer,
                attrs,
            };
            group.entry.co_submitters.push(co);
            group.co.push((state, sub));
        }
    }

    /// Stages one submission's writes on `peer`: the applied inverses,
    /// the changed-attribute set of the target shared table (per write,
    /// against the evolving state, BEFORE applying it — what each
    /// submitter's permission is checked on), and the composed view
    /// delta. On error the partial staging unwinds and nothing is kept.
    fn stage_writes(
        &mut self,
        peer: PeerId,
        table_id: &str,
        writes: &[StagedOp],
    ) -> Result<Staging> {
        let mut staged = Staging::default();
        let done =
            (self.peer_mut(peer)).and_then(|node| stage_onto(node, table_id, writes, &mut staged));
        match done {
            Ok(()) => Ok(staged),
            Err(e) => {
                self.unwind(peer, &staged.inverses);
                Err(e)
            }
        }
    }

    /// The one place a staged submission is undone: re-applies its
    /// inverse deltas on `peer` (a peer that is gone staged nothing).
    fn unwind(&mut self, peer: PeerId, inverses: &[(String, TableDelta)]) {
        if let Ok(node) = self.peer_mut(peer) {
            node.rollback_writes(inverses);
        }
    }

    fn resolve(&mut self, plan: &mut Plan, ticket: CommitTicket, outcome: Outcome) {
        self.sched.resolved.insert(ticket, outcome);
        plan.resolved += 1;
    }

    /// Appends a cascade's record to the log, returning its index.
    fn log_cascade(
        &mut self,
        c: &QueuedCascade,
        wave: u64,
        result: std::result::Result<UpdateReport, String>,
    ) -> usize {
        self.sched.cascade_log.push(CascadeRecord {
            origin: c.path.last().cloned().unwrap_or_default(),
            table_id: c.table_id.clone(),
            peer: c.peer,
            wave,
            result,
            ticket: c.root,
            parent: c.parent,
            at_ms: self.clock_ms,
        });
        self.sched.cascade_log.len() - 1
    }

    /// Step **settle**: every member's outcome to its tickets or its
    /// cascade record, then the wave's Step-6 cascades re-entered, each
    /// with its path. Returns how many were re-entered.
    fn settle_wave(&mut self, plan: &mut Plan, outcome: GroupCommitOutcome) -> usize {
        let GroupCommitOutcome {
            results,
            co_txs,
            deferred,
        } = outcome;
        // Per committed table: the path, root and record a cascade it
        // sets off descends from.
        let mut origins: BTreeMap<String, (Vec<String>, CommitTicket, Option<usize>)> =
            BTreeMap::new();
        let mut co_txs = co_txs.into_iter();
        let members = std::mem::take(&mut plan.members);
        for (member, result) in members.into_iter().zip(results) {
            let co_txs = co_txs.next().unwrap_or_default();
            match member {
                Member::Cascade(c) => {
                    let record = result.map_err(|f| f.error.to_string());
                    let at = self.log_cascade(&c, plan.wave, record);
                    let mut path = c.path;
                    path.push(c.table_id.clone());
                    origins.insert(c.table_id, (path, c.root, Some(at)));
                }
                Member::Group(g) => {
                    let table_id = g.entry.table_id.clone();
                    origins.insert(table_id.clone(), (vec![table_id], g.lead.ticket, None));
                    self.resolve_group(plan, g, result, co_txs);
                }
            }
        }
        self.reenter(plan, deferred, &origins)
    }

    /// Resolves every submitter of one committed (or failed) group
    /// member. `co_txs` is the member's `co_request_update` transactions,
    /// aligned with `g.co`.
    fn resolve_group(
        &mut self,
        plan: &mut Plan,
        g: StagedGroup,
        result: GroupEntryResult,
        co_txs: Vec<TxId>,
    ) {
        let receipt_of =
            |sys: &System, j: usize| co_txs.get(j).and_then(|t| sys.receipt(t)).cloned();
        let report = match result {
            Ok(report) => report,
            Err(f) => {
                let committed = f.committed_on_chain;
                let err = CommitError::from_core(f.error, self);
                if !committed && !err.is_no_change() {
                    self.unwind(g.lead.peer, &g.inverses);
                }
                self.resolve(
                    plan,
                    g.lead.ticket,
                    Err(err.clone().with_commit_point(committed)),
                );
                for (j, (state, sub)) in g.co.into_iter().enumerate() {
                    let outcome = match state {
                        // A pre-screened denial stands on its own,
                        // whatever happened to the member.
                        CoState::Rider { reason } => {
                            let receipt = receipt_of(self, j).filter(|r| !r.status.is_success());
                            Err(CommitError::PermissionDenied { reason, receipt })
                        }
                        // The composed data never reached the chain and
                        // the lead's unwind took this submitter's writes
                        // too: its buffered ops are intact — retry.
                        CoState::Admitted if !committed => {
                            plan.requeue_subs.push(sub);
                            continue;
                        }
                        CoState::Admitted => Err(err.clone().with_commit_point(true)),
                    };
                    self.resolve(plan, sub.ticket, outcome);
                }
                return;
            }
        };
        // The lead: the full outcome (the request, every co-request and
        // the acks, in commit order).
        let mut receipts = Vec::new();
        collect_receipts(self, &report, &mut receipts);
        let lead = CommitOutcome {
            trace: report.trace.clone(),
            receipts,
            report: report.clone(),
        };
        self.resolve(plan, g.lead.ticket, Ok(lead));
        // Co-submitters: each its own co-request receipt; a rider the
        // typed denial carrying it.
        for (j, (state, sub)) in g.co.into_iter().enumerate() {
            let receipt = receipt_of(self, j);
            let outcome = match (&state, receipt) {
                (_, Some(r)) if r.status.is_success() => Ok(CommitOutcome {
                    trace: report.trace.clone(),
                    receipts: vec![r],
                    report: report.clone(),
                }),
                (_, Some(r)) => Err(co_revert_error(r, matches!(state, CoState::Admitted))),
                (CoState::Rider { reason }, None) => Err(CommitError::PermissionDenied {
                    reason: reason.clone(),
                    receipt: None,
                }),
                (CoState::Admitted, None) => Err(CommitError::Engine(CoreError::ConsensusFailed(
                    "co-request receipt missing".into(),
                ))),
            };
            self.resolve(plan, sub.ticket, outcome);
        }
    }

    /// Queues the wave's Step-6 cascades for the next one, each with the
    /// path of its origin; one already queued for the same peer and table
    /// is not queued twice. Returns how many were queued.
    fn reenter(
        &mut self,
        plan: &mut Plan,
        deferred: Vec<DeferredCascade>,
        origins: &BTreeMap<String, (Vec<String>, CommitTicket, Option<usize>)>,
    ) -> usize {
        let mut queued = 0;
        for d in deferred {
            let Some((path, root, parent)) = origins.get(&d.origin) else {
                continue;
            };
            let dup = (self.sched.deferred.iter())
                .chain(&plan.requeue_cascades)
                .any(|q| q.peer == d.peer && q.table_id == d.table_id);
            if !dup {
                queued += 1;
                plan.requeue_cascades.push(QueuedCascade {
                    peer: d.peer,
                    table_id: d.table_id,
                    path: path.clone(),
                    root: *root,
                    parent: *parent,
                });
            }
        }
        queued
    }

    /// A wave whose [`System::commit_group`] failed whole — a failed
    /// durable flush, after its blocks: every member's tickets resolve to
    /// the failure past the commit point (the state stays: the chain may
    /// hold it) and every cascade member records it.
    fn abort_wave(&mut self, plan: &mut Plan, e: &CoreError) {
        let err = CommitError::from_core(e.clone(), self).with_commit_point(true);
        for member in std::mem::take(&mut plan.members) {
            match member {
                Member::Group(g) => {
                    self.resolve(plan, g.lead.ticket, Err(err.clone()));
                    for (_, sub) in g.co {
                        self.resolve(plan, sub.ticket, Err(err.clone()));
                    }
                }
                Member::Cascade(c) => {
                    self.log_cascade(&c, plan.wave, Err(e.to_string()));
                }
            }
        }
    }

    /// The progress guard: a wave normally commits a member or resolves
    /// a ticket. One that did neither (everything screened out — e.g. a
    /// foreign transaction parked in the mempool claims every candidate
    /// table) would make a drain spin if requeued verbatim, so the oldest
    /// waiter is resolved with the blockage instead.
    fn guard_progress(&mut self, plan: &mut Plan, members: usize) {
        if members > 0 || plan.resolved > 0 {
            return;
        }
        if !plan.requeue_subs.is_empty() {
            let oldest = plan.requeue_subs.remove(0);
            let table_id = oldest.table_id;
            self.resolve(
                plan,
                oldest.ticket,
                Err(CommitError::Conflicted { table_id }),
            );
        } else if !plan.requeue_cascades.is_empty() {
            let oldest = plan.requeue_cascades.remove(0);
            let starved = "cascade starved: its table stays claimed by a queued \
                           transaction outside the pipeline";
            self.log_cascade(&oldest, plan.wave, Err(starved.into()));
        }
    }

    /// Requeued work goes back in order, ahead of anything submitted
    /// after the wave began.
    fn requeue(&mut self, plan: Plan) {
        self.sched.pending.extend(plan.requeue_subs);
        self.sched.deferred.extend(plan.requeue_cascades);
    }
}

/// Stages `writes` onto `node`, recording into `staged` as it goes (so a
/// failure part-way leaves the inverses of what did apply).
fn stage_onto(
    node: &mut PeerNode,
    table_id: &str,
    writes: &[StagedOp],
    staged: &mut Staging,
) -> Result<()> {
    let view_schema = node.shared_store(table_id)?.schema().clone();
    for w in writes {
        match w {
            StagedOp::Shared(op) => {
                let current = node.shared_store(table_id)?;
                let delta = delta_from_write_op(current, op)?;
                staged
                    .attrs
                    .extend(changed_attrs_from_delta(current, &delta));
                staged.composed = staged.composed.compose(&delta, |r| view_schema.key_of(r));
                staged
                    .inverses
                    .extend(node.write_shared(table_id, op.clone())?);
            }
            StagedOp::Source { table, op } => {
                // Only the slice visible through this share's lens counts
                // toward the declared attributes; the write itself may
                // also feed sibling shares (Step-6 cascade material).
                let binding = node.binding(table_id)?.clone();
                if binding.source_table == *table {
                    let source = node.db.table(table)?;
                    let source_delta = delta_from_write_op(source, op)?;
                    let view_delta = medledger_bx::get_delta(&binding.lens, source, &source_delta)?;
                    let current_view = node.shared_store(table_id)?;
                    staged
                        .attrs
                        .extend(changed_attrs_from_delta(current_view, &view_delta));
                    staged.composed = staged
                        .composed
                        .compose(&view_delta, |r| view_schema.key_of(r));
                }
                staged
                    .inverses
                    .extend(node.write_source(table, op.clone())?);
            }
        }
    }
    Ok(())
}

/// The changed-attribute set a peer's *pre-existing* pending delta of
/// `table_id` would declare (empty when the peer is clean).
fn pre_existing_attrs(node: &PeerNode, table_id: &str) -> Result<BTreeSet<String>> {
    let pending = node.pending_delta(table_id)?;
    if pending.is_empty() {
        return Ok(BTreeSet::new());
    }
    Ok(changed_attrs_from_delta(
        &node.baseline(table_id)?,
        &pending,
    ))
}

/// Maps a reverted co-request receipt to the typed commit error. An
/// admitted co-author whose co-request reverted (the pre-screen raced)
/// has its data committed regardless: that is surfaced via the commit
/// point so the caller keeps local state.
fn co_revert_error(receipt: Receipt, data_committed: bool) -> CommitError {
    let TxStatus::Reverted { kind, reason } = receipt.status.clone() else {
        return CommitError::Engine(CoreError::ConsistencyViolation(
            "a successful co-request taken for a revert".into(),
        ));
    };
    let receipt = Some(receipt);
    let base = match kind {
        RevertKind::PermissionDenied => CommitError::PermissionDenied { reason, receipt },
        RevertKind::StateLocked => CommitError::Barrier { reason, receipt },
        kind => CommitError::Reverted {
            kind,
            reason,
            receipt,
        },
    };
    base.with_commit_point(data_committed)
}

/// Collects the receipts of every transaction a report (and its cascades)
/// produced, in commit order — the receipts a [`CommitOutcome`] carries.
fn collect_receipts(system: &System, report: &UpdateReport, out: &mut Vec<Receipt>) {
    for tx in &report.tx_ids {
        if let Some(r) = system.receipt(tx) {
            out.push(r.clone());
        }
    }
    for cascade in &report.cascades {
        collect_receipts(system, cascade, out);
    }
}
