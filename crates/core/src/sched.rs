//! The one commit scheduler: every update — a facade
//! [`UpdateBatch::commit`](crate::facade::UpdateBatch::commit), a
//! `medledger-engine` `LedgerService` submission, a Fig. 5 Step-6
//! cascade — reaches the chain through [`System::run_wave`].
//!
//! Submissions queue with a [`CommitTicket`]; cascades queue with the
//! path of tables they descend from. One wave is one value, owned by
//! `run_wave` from admission to settlement, and runs as named steps:
//!
//! 1. **admit** (`System::admit`) — queued cascades first (their
//!    deltas already sit on their peers), then submissions in arrival
//!    order, grouped per table. A cascade is dropped if its table is on
//!    its own path or its peer no longer holds a pending change of it —
//!    the rule of the test-side Fig. 5 model — and recorded as blocked if
//!    its path is longer than [`MAX_CASCADE_DEPTH`]. The claims are then
//!    screened, once: distinct, non-interacting tables only.
//! 2. **stage** (`System::stage_group`) — per admitted table the first
//!    viable submission leads, staged on its own peer; later submissions
//!    compose onto the lead's copy, each co-author pre-screened on its
//!    own attributes (a denied one unwinds alone and rides the block as a
//!    receipted denial).
//! 3. **commit** — the wave's phases (`System::phase_*`, each named after
//!    its `wave.phase.*` histogram): prepare, consensus, fanout, ack,
//!    cascade, flush. A member that fails leaves the wave in the phase
//!    where it fails, its tickets resolved with the commit point that
//!    phase knows.
//! 4. **settle** (`System::settle_wave`) — the landed members' outcomes
//!    to their tickets, the cascade records logged, Step-6 cascades
//!    re-entered with their paths, a wave that made no progress resolved
//!    by its oldest waiter, the rest requeued.
//!
//! The facade's commit enqueues one submission and runs waves until it
//! and every cascade it set off are through; the engine's
//! `LedgerService` hands out the tickets and takes the outcomes.

use crate::error::CoreError;
use crate::facade::{CommitError, CommitOutcome};
use crate::peer::PeerNode;
use crate::system::{Flight, PeerId, System, UpdateReport, MAX_CASCADE_DEPTH};
use crate::Result;
use medledger_bx::changed_attrs_from_delta;
use medledger_ledger::{Receipt, RevertKind, TxId, TxStatus};
use medledger_relational::{delta_from_write_op, TableDelta, WriteOp};
use medledger_telemetry::StageTimer;
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
pub(crate) struct Pending {
    ticket: CommitTicket,
    peer: PeerId,
    table_id: String,
    writes: Vec<StagedOp>,
}

/// A Step-6 cascade queued for a later wave.
pub(crate) struct QueuedCascade {
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

/// Admission state of one co-author.
enum CoState {
    /// Composed into the member; its co-request should succeed.
    Admitted,
    /// Denied by the off-chain permission pre-screen: excluded from the
    /// composition (unwound alone), riding the block only for its
    /// individually receipted on-chain denial.
    Rider { reason: String },
}

/// A co-author of a write-combined member: a submission whose delta
/// composes onto the lead's staged change. It signs its own
/// `co_request_update` in the lead's block — permission-checked on
/// **its** attributes and individually receipted, a pre-screened
/// rider's denial included, so the refusal is on-chain auditable.
pub(crate) struct CoAuthor {
    sub: Pending,
    state: CoState,
    /// The attributes its writes changed: what its co-request declares.
    pub(crate) attrs: Vec<String>,
    /// Its `co_request_update`, once the prepare phase queued it.
    pub(crate) tx: Option<TxId>,
}

impl CoAuthor {
    /// The co-authoring peer.
    pub(crate) fn peer(&self) -> PeerId {
        self.sub.peer
    }
}

/// One same-table submission group, staged as one member.
pub(crate) struct StagedGroup {
    table_id: String,
    lead: Pending,
    /// The attributes the lead itself changed (sorted): what a combined
    /// member's `request_update` declares.
    lead_attrs: Vec<String>,
    co: Vec<CoAuthor>,
    /// Every staged write of the member, on the lead's peer.
    inverses: Vec<(String, TableDelta)>,
}

/// One member of a wave: a pending change of one shared table, already
/// staged on its updater.
pub(crate) enum Member {
    /// A re-entered Step-6 cascade, the `rank`-th of the wave's cascade
    /// members (its record keeps that place in the cascade log).
    Cascade { rank: usize, cascade: QueuedCascade },
    /// A submission group.
    Group(StagedGroup),
}

impl Member {
    /// The peer whose staged change is committed.
    pub(crate) fn updater(&self) -> PeerId {
        match self {
            Member::Cascade { cascade, .. } => cascade.peer,
            Member::Group(g) => g.lead.peer,
        }
    }

    /// The shared table the change targets (distinct per member).
    pub(crate) fn table_id(&self) -> &str {
        match self {
            Member::Cascade { cascade, .. } => &cascade.table_id,
            Member::Group(g) => &g.table_id,
        }
    }

    /// The co-authors composed into the member (none unless combined).
    pub(crate) fn co_authors(&self) -> &[CoAuthor] {
        match self {
            Member::Cascade { .. } => &[],
            Member::Group(g) => &g.co,
        }
    }

    /// Mutable [`Member::co_authors`].
    pub(crate) fn co_authors_mut(&mut self) -> &mut [CoAuthor] {
        match self {
            Member::Cascade { .. } => &mut [],
            Member::Group(g) => &mut g.co,
        }
    }

    /// What the member's `request_update` declares, given the attributes
    /// its delta `changed`. A sole author declares exactly those (the
    /// per-op attribute union the staging saw can over-approximate, e.g.
    /// a batch that sets and then reverts an attribute). A combined
    /// member distributes the permission check — the lead declares only
    /// its own attributes, each co-author its own — but the union must
    /// still cover every changed attribute, or some change would dodge
    /// the Fig. 3 matrix entirely.
    pub(crate) fn declaration(&self, changed: &[String]) -> Result<Vec<String>> {
        let g = match self {
            Member::Group(g) if !g.co.is_empty() => g,
            _ => return Ok(changed.to_vec()),
        };
        let covered: BTreeSet<&str> = (g.lead_attrs.iter())
            .chain(g.co.iter().flat_map(|co| &co.attrs))
            .map(String::as_str)
            .collect();
        if let Some(missing) = changed.iter().find(|a| !covered.contains(a.as_str())) {
            return Err(CoreError::BadAgreement(format!(
                "combined update of `{}` changes attribute `{missing}` \
                 that no submitter declares",
                g.table_id
            )));
        }
        Ok(g.lead_attrs.clone())
    }
}

/// The Step-6 cascades one landed member found, as `(peer, table)`.
pub(crate) type Found = Vec<(PeerId, String)>;

/// A cascade member that left the wave, its record written to the cascade
/// log at settlement.
struct CascadeExit {
    rank: usize,
    cascade: QueuedCascade,
    result: std::result::Result<UpdateReport, String>,
    /// The Step-6 cascades it found, to re-enter after it.
    found: Found,
}

/// One wave, from admission to settlement: its members as they move
/// through the phases — each leaves exactly once, failed or landed — and
/// what it sends back to the queues.
pub(crate) struct Wave {
    /// The wave number (stamped into every block it produces).
    pub(crate) number: u64,
    /// Admitted and staged members awaiting `prepare`, in admission order.
    pub(crate) members: Vec<Member>,
    /// Members past `prepare`, still in flight, in admission order.
    pub(crate) flying: Vec<Flight>,
    /// Groups through `cascade`: their reports and the Step-6 cascades
    /// they found, settled once the flush is durable.
    landed: Vec<(StagedGroup, UpdateReport, Found)>,
    /// Cascade members that left, failed or landed.
    exits: Vec<CascadeExit>,
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
                // A wave fails whole only at its flush, after its blocks:
                // what was committed stays (see `System::phase_flush`).
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
    /// same-table submissions into combined members, runs them through
    /// the phases — one block and one scheduled consensus round for the
    /// requests, one for the aggregated acks — and resolves the affected
    /// tickets. Members whose tables conflict with an earlier member's
    /// re-queue for the next wave.
    ///
    /// The one `Err` is a failed durable flush, after the wave's blocks:
    /// the members still in flight then resolve to it past the commit
    /// point, the rest to their own outcomes.
    pub fn run_wave(&mut self) -> Result<WaveReport> {
        if !self.has_work() {
            return Ok(WaveReport::default());
        }
        let mut timer = StageTimer::start(&self.telemetry, "wave");
        let before = self.stats;
        self.sched.wave += 1;
        let mut wave = Wave {
            number: self.sched.wave,
            members: Vec::new(),
            flying: Vec::new(),
            landed: Vec::new(),
            exits: Vec::new(),
            requeue_subs: Vec::new(),
            requeue_cascades: Vec::new(),
            resolved: 0,
        };
        for (table_id, subs) in self.admit(&mut wave) {
            if let Some(group) = self.stage_group(&table_id, subs, &mut wave) {
                wave.members.push(Member::Group(group));
            }
        }
        timer.stage("phase.screen");
        let members = wave.members.len();
        self.wave = Some(wave.number);
        let flushed = self.run_phases(&mut wave, timer, before);
        self.wave = None;
        let cascades_deferred = self.settle_wave(&mut wave);
        if let Err(e) = flushed {
            self.requeue(wave);
            return Err(e);
        }
        self.guard_progress(&mut wave, members);
        let report = WaveReport {
            wave: wave.number,
            members,
            resolved: wave.resolved,
            cascades_deferred,
        };
        self.requeue(wave);
        Ok(report)
    }

    /// Step **admit**: claims tables in arrival order — cascades first,
    /// then submissions grouped per table — and screens the claims
    /// (queued transaction / a `(peer, source)` binding an earlier claim
    /// holds, earlier claims winning). Admitted cascades become members;
    /// the admitted submission groups are returned for staging.
    fn admit(&mut self, wave: &mut Wave) -> Vec<(String, Vec<Pending>)> {
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
                self.log_cascade(&c, wave.number, Err(e.to_string()));
            } else if c.path.len() > MAX_CASCADE_DEPTH {
                let deep = format!(
                    "cascade depth exceeded {MAX_CASCADE_DEPTH} — cyclic sharing topology?"
                );
                self.log_cascade(&c, wave.number, Err(deep));
            } else if claimed.insert(c.table_id.clone()) {
                cascade_claims.push(c);
            } else {
                wave.requeue_cascades.push(c);
            }
        }
        let mut groups: Vec<(String, Vec<Pending>)> = Vec::new();
        for s in submissions {
            if claimed.contains(&s.table_id) {
                // An older cascade already claims this table this wave.
                wave.requeue_subs.push(s);
            } else if let Some((_, g)) = groups.iter_mut().find(|(t, _)| *t == s.table_id) {
                g.push(s);
            } else {
                groups.push((s.table_id.clone(), vec![s]));
            }
        }

        let claims = (cascade_claims.iter().map(|c| c.table_id.as_str()))
            .chain(groups.iter().map(|(t, _)| t.as_str()));
        let mut screens = self.screen_group(claims).into_iter();
        for cascade in cascade_claims {
            if screens.next() == Some(true) {
                let rank = wave.members.len();
                wave.members.push(Member::Cascade { rank, cascade });
            } else {
                wave.requeue_cascades.push(cascade);
            }
        }
        let mut admitted = Vec::new();
        for (table_id, subs) in groups {
            if screens.next() == Some(true) {
                admitted.push((table_id, subs));
            } else {
                wave.requeue_subs.extend(subs);
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
        wave: &mut Wave,
    ) -> Option<StagedGroup> {
        let mut queue: VecDeque<Pending> = subs.into();
        let mut group = self.stage_lead(table_id, &mut queue, wave)?;
        if !queue.is_empty() {
            self.stage_co_authors(&mut group, queue, wave);
        }
        let touched = |g: &StagedGroup| -> BTreeSet<String> {
            g.inverses.iter().map(|(t, _)| t.clone()).collect()
        };
        let mine = touched(&group);
        let overlap = wave.members.iter().any(|m| match m {
            Member::Group(g) => g.lead.peer == group.lead.peer && !touched(g).is_disjoint(&mine),
            Member::Cascade { .. } => false,
        });
        if overlap {
            self.unwind(group.lead.peer, &group.inverses);
            wave.requeue_subs.push(group.lead);
            wave.requeue_subs
                .extend(group.co.into_iter().map(|co| co.sub));
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
        wave: &mut Wave,
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
                    self.resolve(wave, lead.ticket, Err(err));
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
                self.resolve(wave, lead.ticket, Err(no_change));
                continue;
            }
            return Some(StagedGroup {
                table_id: table_id.to_string(),
                lead,
                lead_attrs: attrs.into_iter().collect(),
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
        wave: &mut Wave,
    ) {
        let (table_id, lead_peer) = (group.table_id.clone(), group.lead.peer);
        // Nothing commits on chain while a wave stages, so one read of
        // the matrix serves every co-author.
        let meta = match self.share_meta(&table_id) {
            Ok(meta) => meta,
            Err(e) => {
                // Nothing can combine; the lead goes alone.
                let err = CommitError::from_core(e, self);
                for sub in queue {
                    self.resolve(wave, sub.ticket, Err(err.clone()));
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
                wave.requeue_subs.push(sub);
                continue;
            }
            let staged = match self.stage_writes(lead_peer, &table_id, &sub.writes) {
                Ok(staged) => staged,
                Err(e) => {
                    let err = CommitError::from_core(e, self);
                    self.resolve(wave, sub.ticket, Err(err));
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
                wave.requeue_subs.push(sub);
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
            group.co.push(CoAuthor {
                sub,
                state,
                attrs,
                tx: None,
            });
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

    fn resolve(&mut self, wave: &mut Wave, ticket: CommitTicket, outcome: Outcome) {
        self.sched.resolved.insert(ticket, outcome);
        wave.resolved += 1;
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

    /// A member leaves the wave failed, in the phase that failed it;
    /// `committed` says whether its update reached the chain first. A
    /// group resolves its tickets here — its staged writes unwound unless
    /// they committed (or changed nothing) — and a cascade takes the
    /// error to its record.
    pub(crate) fn fail(
        &mut self,
        wave: &mut Wave,
        member: Member,
        error: CoreError,
        committed: bool,
    ) {
        let g = match member {
            Member::Group(g) => g,
            Member::Cascade { rank, cascade } => {
                wave.exits.push(CascadeExit {
                    rank,
                    cascade,
                    result: Err(error.to_string()),
                    found: Vec::new(),
                });
                return;
            }
        };
        let err = CommitError::from_core(error, self);
        if !committed && !err.is_no_change() {
            self.unwind(g.lead.peer, &g.inverses);
        }
        let lead_outcome = Err(err.clone().with_commit_point(committed));
        self.resolve(wave, g.lead.ticket, lead_outcome);
        for co in g.co {
            let outcome = match co.state {
                // A pre-screened denial stands on its own, whatever
                // happened to the member.
                CoState::Rider { reason } => {
                    let receipt = (co.tx.and_then(|tx| self.receipt(&tx)))
                        .filter(|r| !r.status.is_success())
                        .cloned();
                    Err(CommitError::PermissionDenied { reason, receipt })
                }
                // The composed data never reached the chain and the
                // lead's unwind took this submitter's writes too: its
                // buffered ops are intact — retry.
                CoState::Admitted if !committed => {
                    wave.requeue_subs.push(co.sub);
                    continue;
                }
                CoState::Admitted => Err(err.clone().with_commit_point(true)),
            };
            self.resolve(wave, co.sub.ticket, outcome);
        }
    }

    /// A member leaves the wave landed: through the `cascade` phase with
    /// its report and the Step-6 cascades it `found`, settled once the
    /// wave's flush is durable.
    pub(crate) fn land(
        &mut self,
        wave: &mut Wave,
        member: Member,
        report: UpdateReport,
        found: Found,
    ) {
        match member {
            Member::Group(g) => wave.landed.push((g, report, found)),
            Member::Cascade { rank, cascade } => wave.exits.push(CascadeExit {
                rank,
                cascade,
                result: Ok(report),
                found,
            }),
        }
    }

    /// The wave's flush failed: every landed member is on chain, so each
    /// fails past the commit point — a landed cascade records the error
    /// and re-enters nothing.
    pub(crate) fn fail_landed(&mut self, wave: &mut Wave, error: &CoreError) {
        for (g, _, _) in std::mem::take(&mut wave.landed) {
            self.fail(wave, Member::Group(g), error.clone(), true);
        }
        for exit in wave.exits.iter_mut().filter(|x| x.result.is_ok()) {
            exit.result = Err(error.to_string());
            exit.found.clear();
        }
    }

    /// Step **settle**: the cascade members' records to the log in
    /// admission order, every landed group's outcome to its tickets, and
    /// the Step-6 cascades they found re-entered, each with its path.
    /// Returns how many were re-entered.
    fn settle_wave(&mut self, wave: &mut Wave) -> usize {
        let mut queued = 0;
        let mut exits = std::mem::take(&mut wave.exits);
        exits.sort_by_key(|x| x.rank);
        for CascadeExit {
            cascade,
            result,
            found,
            ..
        } in exits
        {
            let at = self.log_cascade(&cascade, wave.number, result);
            let mut path = cascade.path;
            path.push(cascade.table_id);
            queued += self.reenter(wave, found, &path, cascade.root, Some(at));
        }
        for (g, report, found) in std::mem::take(&mut wave.landed) {
            let (path, root) = (vec![g.table_id.clone()], g.lead.ticket);
            self.resolve_landed(wave, g, report);
            queued += self.reenter(wave, found, &path, root, None);
        }
        queued
    }

    /// Resolves every submitter of one landed group: the lead its full
    /// outcome, each co-author its own co-request receipt.
    fn resolve_landed(&mut self, wave: &mut Wave, g: StagedGroup, report: UpdateReport) {
        // The lead: the full outcome (the request, every co-request and
        // the acks, in commit order).
        let mut receipts = Vec::new();
        collect_receipts(self, &report, &mut receipts);
        let lead = CommitOutcome {
            trace: report.trace.clone(),
            receipts,
            report: report.clone(),
        };
        self.resolve(wave, g.lead.ticket, Ok(lead));
        // Co-authors: each its own co-request receipt; a rider the typed
        // denial carrying it.
        for co in g.co {
            let receipt = co.tx.and_then(|tx| self.receipt(&tx)).cloned();
            let outcome = match (&co.state, receipt) {
                (_, Some(r)) if r.status.is_success() => Ok(CommitOutcome {
                    trace: report.trace.clone(),
                    receipts: vec![r],
                    report: report.clone(),
                }),
                (_, Some(r)) => Err(co_revert_error(r, matches!(co.state, CoState::Admitted))),
                (CoState::Rider { reason }, None) => Err(CommitError::PermissionDenied {
                    reason: reason.clone(),
                    receipt: None,
                }),
                (CoState::Admitted, None) => Err(CommitError::Engine(CoreError::ConsensusFailed(
                    "co-request receipt missing".into(),
                ))),
            };
            self.resolve(wave, co.sub.ticket, outcome);
        }
    }

    /// Queues the Step-6 cascades one landed member `found` for the next
    /// wave, each descending from `path`; one already queued for the same
    /// peer and table is not queued twice. Returns how many were queued.
    fn reenter(
        &mut self,
        wave: &mut Wave,
        found: Found,
        path: &[String],
        root: CommitTicket,
        parent: Option<usize>,
    ) -> usize {
        let mut queued = 0;
        for (peer, table_id) in found {
            let dup = (self.sched.deferred.iter())
                .chain(&wave.requeue_cascades)
                .any(|q| q.peer == peer && q.table_id == table_id);
            if !dup {
                queued += 1;
                wave.requeue_cascades.push(QueuedCascade {
                    peer,
                    table_id,
                    path: path.to_vec(),
                    root,
                    parent,
                });
            }
        }
        queued
    }

    /// The progress guard: a wave normally commits a member or resolves
    /// a ticket. One that did neither (everything screened out — e.g. a
    /// foreign transaction parked in the mempool claims every candidate
    /// table) would make a drain spin if requeued verbatim, so the oldest
    /// waiter is resolved with the blockage instead.
    fn guard_progress(&mut self, wave: &mut Wave, members: usize) {
        if members > 0 || wave.resolved > 0 {
            return;
        }
        if !wave.requeue_subs.is_empty() {
            let oldest = wave.requeue_subs.remove(0);
            let table_id = oldest.table_id;
            self.resolve(
                wave,
                oldest.ticket,
                Err(CommitError::Conflicted { table_id }),
            );
        } else if !wave.requeue_cascades.is_empty() {
            let oldest = wave.requeue_cascades.remove(0);
            let starved = "cascade starved: its table stays claimed by a queued \
                           transaction outside the pipeline";
            self.log_cascade(&oldest, wave.number, Err(starved.into()));
        }
    }

    /// Requeued work goes back in order, ahead of anything submitted
    /// after the wave began.
    fn requeue(&mut self, wave: Wave) {
        self.sched.pending.extend(wave.requeue_subs);
        self.sched.deferred.extend(wave.requeue_cascades);
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
    let view_schema = node.shared_store(table_id)?.table().schema().clone();
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
                    let source = node.db().table(table)?;
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
