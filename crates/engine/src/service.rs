//! The ticketed commit pipeline: a submit/poll service front door over
//! the core wave engine.
//!
//! [`LedgerService`] owns the [`MedLedger`] plus an admission scheduler.
//! Writers stage a batch exactly as with the facade, but end with a
//! non-blocking [`Submission::submit`] returning a [`CommitTicket`];
//! [`LedgerService::tick`] forms the next **wave** — one block, one
//! scheduled PBFT round for every admitted member — runs it through
//! `System::commit_group`, and resolves tickets to
//! [`CommitOutcome`]s retrievable with [`LedgerService::take`] (or
//! blocking via [`CommitTicket::wait`] / [`LedgerService::drain`]).
//!
//! Two things the facade's one-update-at-a-time `UpdateBatch::commit`
//! cannot do:
//!
//! * **Same-table write combining** — several submissions against one
//!   shared table are *composed* into a single group member instead of
//!   being rejected with `Conflicted`: the first submitter leads, later
//!   submitters' writes stage onto the lead's copy (sequential delta
//!   composition — each sees the previous one's state), and each
//!   co-author gets its own `co_request_update` transaction in the same
//!   block, permission-checked on its own attributes and individually
//!   receipted. A submitter whose attributes fail the off-chain
//!   permission pre-screen is excluded from the composition, rolled back
//!   **alone**, and still rides the block as a reverting co-request so
//!   the denial is on-chain auditable.
//! * **Cascade re-entry** — a committed member's Fig. 5 Step-6 cascades
//!   are not run serially; they are detected and re-entered into the
//!   *next* wave, where cascades touching distinct tables again share
//!   one block and one consensus round.
//!
//! On a sharded deployment (`shards_per_table > 1` on the builder) the
//! waves' composed deltas are additionally **shard-routed** on every
//! receiver: the fan-out splits each member's delta along the content
//! digest's key ranges, disjoint shards apply in parallel on the worker
//! pool, and hash verification folds cached per-shard Merkle subroots —
//! with byte-identical outcomes, receipts and traces (see the core
//! `shards_per_table` docs).

use medledger_bx::changed_attrs_from_delta;
use medledger_core::{
    facade, CoSubmitter, CommitError, CommitOutcome, CoreError, GroupEntry, MedLedger, PeerId,
    PeerNode, System, UpdateReport,
};
use medledger_ledger::TxStatus;
use medledger_relational::{delta_from_write_op, Row, TableDelta, Value, WriteOp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Maximum cascade re-entry generations before a cascade is recorded as
/// failed — the wave-pipelined analogue of the serial path's depth-16 guard
/// against cyclic sharing topologies.
const MAX_CASCADE_DEPTH: u32 = 16;

/// Handle to one submission; resolves to a [`CommitOutcome`] /
/// [`CommitError`] once the wave holding it commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitTicket(u64);

impl fmt::Display for CommitTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

impl CommitTicket {
    /// Resolves this ticket's submission and takes the outcome — a thin
    /// wrapper over [`LedgerService::wait`], kept for the serial,
    /// single-owner path. It is *synchronous*: each iteration runs a
    /// full wave, so it never spins without making progress, but it
    /// also cannot overlap with other waiters. Under the
    /// `medledger-node` gateway, tickets instead resolve by async
    /// notification (a parked wire `Poll` answered when the wave pump
    /// drains `take_resolved`) — no polling loop on either side.
    #[allow(clippy::result_large_err)]
    pub fn wait(self, service: &mut LedgerService) -> Result<CommitOutcome, CommitError> {
        service.wait(self)
    }
}

/// One staged local write (mirrors the facade's `UpdateBatch` staging).
enum StagedWrite {
    /// A write against the shared table's materialized copy.
    Shared(WriteOp),
    /// A write against one of the peer's *source* tables.
    Source { table: String, op: WriteOp },
}

/// One buffered (not yet staged) submission.
struct PendingSubmission {
    ticket: u64,
    peer: PeerId,
    table_id: String,
    writes: Vec<StagedWrite>,
}

/// A Step-6 cascade queued for a future wave.
struct QueuedCascade {
    peer: PeerId,
    table_id: String,
    origin: String,
    depth: u32,
}

/// The record of one cascade the scheduler ran (or failed to run) as part
/// of a wave.
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
    /// The propagation report, or the reason the cascade stayed blocked
    /// (permission denied / untranslatable — the peer keeps its pending
    /// delta for a later retry, exactly like the serial path).
    pub result: Result<UpdateReport, String>,
}

/// Summary of one [`LedgerService::tick`].
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

/// Admission state of one co-submitter.
enum CoState {
    /// Composed into the member; its co-request should succeed.
    Admitted,
    /// Denied by the off-chain permission pre-screen: excluded from the
    /// composition (rolled back alone), riding the block only for its
    /// individually receipted on-chain denial.
    Rider { reason: String },
}

/// One member of the wave under construction.
enum WaveMember {
    Group(StagedGroup),
    Cascade(QueuedCascade),
}

struct StagedGroup {
    entry: GroupEntry,
    lead_ticket: u64,
    /// `(ticket, state, original submission)` per co-submitter, aligned
    /// with `entry.co_submitters`. The submission is kept so an admitted
    /// co-submitter can be requeued when the lead fails pre-commit.
    co: Vec<(u64, CoState, PendingSubmission)>,
    lead_peer: PeerId,
    inverses: Vec<(String, TableDelta)>,
    /// Local tables the group's staging touched on the lead peer.
    touched: BTreeSet<String>,
}

/// The ticketed commit pipeline service. See the module docs.
pub struct LedgerService {
    ledger: MedLedger,
    pending: VecDeque<PendingSubmission>,
    deferred: VecDeque<QueuedCascade>,
    resolved: BTreeMap<u64, Result<CommitOutcome, CommitError>>,
    cascade_log: Vec<CascadeRecord>,
    next_ticket: u64,
    wave: u64,
}

impl LedgerService {
    /// Wraps a ledger in the pipeline service.
    ///
    /// The wave counter resumes from the highest wave stamped into the
    /// chain's blocks, so a service over a *recovered* durable ledger
    /// numbers its next wave after the pre-crash ones instead of
    /// restarting at 1.
    pub fn new(ledger: MedLedger) -> Self {
        let wave = ledger
            .chain()
            .blocks()
            .iter()
            .filter_map(|b| b.header.wave)
            .max()
            .unwrap_or(0);
        LedgerService {
            ledger,
            pending: VecDeque::new(),
            deferred: VecDeque::new(),
            resolved: BTreeMap::new(),
            cascade_log: Vec::new(),
            next_ticket: 0,
            wave,
        }
    }

    /// Read access to the wrapped ledger (reads, audits, stats).
    pub fn ledger(&self) -> &MedLedger {
        &self.ledger
    }

    /// Mutable access to the wrapped ledger — for the *setup* surface
    /// (registering peers, loading sources, creating shares via the
    /// facade's sessions). Updates go through [`LedgerService::submit`].
    pub fn ledger_mut(&mut self) -> &mut MedLedger {
        &mut self.ledger
    }

    /// Consumes the service, returning the ledger.
    pub fn into_ledger(self) -> MedLedger {
        self.ledger
    }

    /// Graceful shutdown: runs waves until every queued submission and
    /// deferred cascade resolves, then flushes the ledger's durable
    /// state (a no-op for in-memory deployments). Rebuilding from the
    /// same backend and wrapping in a new service resumes exactly here —
    /// including the wave numbering.
    pub fn close(mut self) -> medledger_core::Result<()> {
        self.drain()?;
        self.ledger.close()
    }

    /// Starts staging a submission by `peer` against shared `table_id`.
    /// Writes buffer on the returned [`Submission`]; nothing touches any
    /// peer state until the wave that admits it.
    pub fn submit(&mut self, peer: PeerId, table_id: impl Into<String>) -> Submission<'_> {
        Submission {
            service: self,
            peer,
            table_id: table_id.into(),
            writes: Vec::new(),
        }
    }

    /// True iff submissions or deferred cascades await a wave.
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.deferred.is_empty()
    }

    /// Submissions waiting for the next wave.
    pub fn pending_submissions(&self) -> usize {
        self.pending.len()
    }

    /// Waves run so far.
    pub fn waves(&self) -> u64 {
        self.wave
    }

    /// The cascades the scheduler has run (or recorded as blocked) so
    /// far, in commit order.
    pub fn cascades(&self) -> &[CascadeRecord] {
        &self.cascade_log
    }

    /// True iff the ticket's outcome is ready for [`LedgerService::take`].
    pub fn is_resolved(&self, ticket: CommitTicket) -> bool {
        self.resolved.contains_key(&ticket.0)
    }

    /// Takes a resolved ticket's outcome (`None` if unknown, not yet
    /// resolved, or already taken).
    pub fn take(&mut self, ticket: CommitTicket) -> Option<Result<CommitOutcome, CommitError>> {
        self.resolved.remove(&ticket.0)
    }

    /// Drains *every* resolved outcome, in ticket order. This is the
    /// wave pump's post-tick notification source: the gateway does not
    /// know which tickets a wave resolved (cascade re-entry can resolve
    /// more than the wave admitted), so it takes them all and routes
    /// each to its waiting session.
    pub fn take_resolved(&mut self) -> Vec<(CommitTicket, Result<CommitOutcome, CommitError>)> {
        std::mem::take(&mut self.resolved)
            .into_iter()
            .map(|(t, r)| (CommitTicket(t), r))
            .collect()
    }

    /// Blocks until `ticket` resolves, driving waves as needed, and takes
    /// the outcome.
    #[allow(clippy::result_large_err)]
    pub fn wait(&mut self, ticket: CommitTicket) -> Result<CommitOutcome, CommitError> {
        loop {
            if let Some(outcome) = self.take(ticket) {
                return outcome;
            }
            if !self.has_work() {
                return Err(CommitError::Engine(CoreError::BadAgreement(format!(
                    "{ticket} is unknown or was already taken"
                ))));
            }
            self.tick().map_err(CommitError::Engine)?;
        }
    }

    /// Runs waves until no submission or cascade is left, returning the
    /// total number of tickets resolved.
    pub fn drain(&mut self) -> medledger_core::Result<usize> {
        let mut resolved = 0;
        while self.has_work() {
            resolved += self.tick()?.resolved;
        }
        Ok(resolved)
    }

    /// Forms and commits ONE wave: admits queued cascades and submission
    /// groups onto distinct shared tables, composes same-table
    /// submissions into combined members, commits everything through one
    /// block and one scheduled consensus round (plus the ack side — one
    /// aggregated threshold ack per member, so the wave's acks share a
    /// single block too), and resolves the affected
    /// tickets. Members whose tables conflict with an earlier member
    /// re-queue for the next wave.
    pub fn tick(&mut self) -> medledger_core::Result<WaveReport> {
        if !self.has_work() {
            return Ok(WaveReport::default());
        }
        self.wave += 1;
        let wave = self.wave;
        let resolved_before = self.resolved.len();

        // ---- admission: claim tables in arrival order ----------------
        // Cascades go first (they are older work: deltas already sitting
        // on their peers), then submissions grouped per table.
        let cascades: Vec<QueuedCascade> = self.deferred.drain(..).collect();
        let submissions: Vec<PendingSubmission> = self.pending.drain(..).collect();

        let mut claimed: BTreeSet<String> = BTreeSet::new();
        let mut cascade_members: Vec<QueuedCascade> = Vec::new();
        let mut requeue_cascades: Vec<QueuedCascade> = Vec::new();
        for c in cascades {
            if claimed.insert(c.table_id.clone()) {
                cascade_members.push(c);
            } else {
                requeue_cascades.push(c);
            }
        }
        let mut groups: Vec<(String, Vec<PendingSubmission>)> = Vec::new();
        let mut requeue_subs: Vec<PendingSubmission> = Vec::new();
        for s in submissions {
            if cascade_members.iter().any(|c| c.table_id == s.table_id) {
                // An older cascade already claims this table this wave.
                requeue_subs.push(s);
            } else if let Some((_, g)) = groups.iter_mut().find(|(t, _)| *t == s.table_id) {
                g.push(s);
            } else {
                groups.push((s.table_id.clone(), vec![s]));
            }
        }

        // ---- system-level screen (same-table / queued-tx / lens-
        // footprint interaction), earlier members winning --------------
        let screen_entries: Vec<GroupEntry> = cascade_members
            .iter()
            .map(|c| GroupEntry::new(c.peer, c.table_id.clone()))
            .chain(
                groups
                    .iter()
                    .map(|(t, subs)| GroupEntry::new(subs[0].peer, t.clone())),
            )
            .collect();
        let screens = {
            let system = crate::raw_system(&self.ledger);
            system.screen_group(&screen_entries)
        };
        let n_cascades = cascade_members.len();
        let mut admitted_cascades: Vec<QueuedCascade> = Vec::new();
        for (c, screen) in cascade_members.into_iter().zip(&screens[..n_cascades]) {
            if screen.is_some() {
                requeue_cascades.push(c);
            } else {
                admitted_cascades.push(c);
            }
        }
        let mut admitted_groups: Vec<(String, Vec<PendingSubmission>)> = Vec::new();
        for ((t, subs), screen) in groups.into_iter().zip(&screens[n_cascades..]) {
            if screen.is_some() {
                requeue_subs.extend(subs);
            } else {
                admitted_groups.push((t, subs));
            }
        }

        // ---- stage the admitted groups -------------------------------
        let mut members: Vec<WaveMember> = admitted_cascades
            .into_iter()
            .map(WaveMember::Cascade)
            .collect();
        for (table_id, subs) in admitted_groups {
            if let Some(group) = self.stage_group(&table_id, subs, &mut requeue_subs, &members)? {
                members.push(WaveMember::Group(group));
            }
        }

        // ---- one group commit for the whole wave ---------------------
        let entries: Vec<GroupEntry> = members
            .iter()
            .map(|m| match m {
                WaveMember::Group(g) => g.entry.clone(),
                WaveMember::Cascade(c) => GroupEntry::new(c.peer, c.table_id.clone()),
            })
            .collect();
        let outcome = {
            let system = crate::raw_system_mut(&mut self.ledger);
            system.begin_wave(wave);
            let outcome = system.commit_group(&entries);
            system.end_wave();
            outcome
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // Whole-wave engine failure before anything committed:
                // undo every staged group and resolve every ticket.
                for m in members {
                    match m {
                        WaveMember::Group(g) => {
                            let system = crate::raw_system_mut(&mut self.ledger);
                            rollback(system, g.lead_peer, &g.inverses);
                            self.resolve(g.lead_ticket, Err(CommitError::Engine(e.clone())));
                            for (ticket, _, _) in g.co {
                                self.resolve(ticket, Err(CommitError::Engine(e.clone())));
                            }
                        }
                        WaveMember::Cascade(c) => self.cascade_log.push(CascadeRecord {
                            origin: c.origin,
                            table_id: c.table_id,
                            peer: c.peer,
                            wave,
                            result: Err(e.to_string()),
                        }),
                    }
                }
                self.requeue(requeue_subs, requeue_cascades);
                return Err(e);
            }
        };

        // ---- demultiplex per member / per submitter ------------------
        let mut member_depth: BTreeMap<String, u32> = BTreeMap::new();
        for (i, (m, result)) in members.into_iter().zip(outcome.results).enumerate() {
            match m {
                WaveMember::Cascade(c) => {
                    member_depth.insert(c.table_id.clone(), c.depth);
                    let record = match result {
                        Ok(report) => Ok(report),
                        // A blocked cascade (denied / untranslatable / no
                        // longer differing) keeps the peer's pending delta
                        // for a later retry; anything else is recorded the
                        // same way — nothing was staged by this wave.
                        Err(f) => Err(f.error.to_string()),
                    };
                    self.cascade_log.push(CascadeRecord {
                        origin: c.origin,
                        table_id: c.table_id,
                        peer: c.peer,
                        wave,
                        result: record,
                    });
                }
                WaveMember::Group(g) => {
                    member_depth.insert(g.entry.table_id.clone(), 0);
                    let co_tx_list = outcome.co_txs.get(i).cloned().unwrap_or_default();
                    self.resolve_group(g, result, co_tx_list, &mut requeue_subs);
                }
            }
        }

        // ---- cascade re-entry ----------------------------------------
        let mut deferred_count = 0usize;
        for d in outcome.deferred {
            let depth = member_depth.get(&d.origin).copied().unwrap_or(0) + 1;
            if depth > MAX_CASCADE_DEPTH {
                self.cascade_log.push(CascadeRecord {
                    origin: d.origin,
                    table_id: d.table_id,
                    peer: d.peer,
                    wave,
                    result: Err(format!(
                        "cascade depth exceeded {MAX_CASCADE_DEPTH} waves — cyclic sharing \
                         topology?"
                    )),
                });
                continue;
            }
            let dup = self
                .deferred
                .iter()
                .chain(requeue_cascades.iter())
                .any(|q| q.peer == d.peer && q.table_id == d.table_id);
            if !dup {
                deferred_count += 1;
                requeue_cascades.push(QueuedCascade {
                    peer: d.peer,
                    table_id: d.table_id,
                    origin: d.origin,
                    depth,
                });
            }
        }

        let members_committed = entries.len();
        let resolved = self.resolved.len() - resolved_before;

        // Progress guard: a wave normally commits a member or resolves a
        // ticket; if it did neither (everything screened out — e.g. a
        // foreign transaction parked in the mempool claims every
        // candidate table), re-queueing verbatim would make `drain` spin.
        // Surface the blockage on the oldest submission instead.
        if members_committed == 0 && resolved == 0 {
            if !requeue_subs.is_empty() {
                let oldest = requeue_subs.remove(0);
                self.resolve(
                    oldest.ticket,
                    Err(CommitError::Conflicted {
                        table_id: oldest.table_id,
                    }),
                );
            } else if !requeue_cascades.is_empty() {
                let oldest = requeue_cascades.remove(0);
                self.cascade_log.push(CascadeRecord {
                    origin: oldest.origin,
                    table_id: oldest.table_id,
                    peer: oldest.peer,
                    wave,
                    result: Err("cascade starved: its table stays claimed by a queued \
                                 transaction outside the pipeline"
                        .into()),
                });
            }
        }

        self.requeue(requeue_subs, requeue_cascades);
        Ok(WaveReport {
            wave,
            members: members_committed,
            resolved: self.resolved.len() - resolved_before,
            cascades_deferred: deferred_count,
        })
    }

    // ------------------------------------------------------------------

    fn resolve(&mut self, ticket: u64, outcome: Result<CommitOutcome, CommitError>) {
        self.resolved.insert(ticket, outcome);
    }

    fn requeue(&mut self, subs: Vec<PendingSubmission>, cascades: Vec<QueuedCascade>) {
        // Requeued work precedes anything submitted after this wave
        // started (the queues were drained, so order is preserved).
        for s in subs {
            self.pending.push_back(s);
        }
        for c in cascades {
            self.deferred.push_back(c);
        }
    }

    /// Stages one same-table submission group: the first viable
    /// submission leads (staged on its own peer), later submissions
    /// compose onto the lead's copy — each permission-pre-screened on its
    /// own changed attributes, denied ones rolled back alone and demoted
    /// to riders. Returns `None` when no submission of the group could
    /// lead (each resolved its ticket on the way out).
    fn stage_group(
        &mut self,
        table_id: &str,
        subs: Vec<PendingSubmission>,
        requeue_subs: &mut Vec<PendingSubmission>,
        staged_so_far: &[WaveMember],
    ) -> medledger_core::Result<Option<StagedGroup>> {
        let mut queue: VecDeque<PendingSubmission> = subs.into();

        // Pick the lead: stage submissions on their own peer until one
        // sticks with a non-empty changed-attribute set.
        let (lead, lead_attrs, inverses) = loop {
            let Some(lead) = queue.pop_front() else {
                return Ok(None);
            };
            let system = crate::raw_system_mut(&mut self.ledger);
            let node = match system.peer_mut(lead.peer) {
                Ok(n) => n,
                Err(e) => {
                    self.resolve(lead.ticket, Err(CommitError::Engine(e)));
                    continue;
                }
            };
            // The lead also ships (and must declare) whatever pending
            // delta it already carries — e.g. a permission-blocked
            // cascade awaiting retry.
            let pre_attrs = match pre_existing_attrs(node, table_id) {
                Ok(a) => a,
                Err(e) => {
                    let err = CommitError::from_core(e, system);
                    self.resolve(lead.ticket, Err(err));
                    continue;
                }
            };
            match stage_writes(node, table_id, &lead.writes) {
                Ok((invs, staged_attrs, composed)) => {
                    // Writes whose composition cancels out contribute no
                    // attributes of their own (declaring the per-op union
                    // would demand permissions for a net no-op).
                    let mut attrs = if composed.is_empty() {
                        BTreeSet::new()
                    } else {
                        staged_attrs
                    };
                    attrs.extend(pre_attrs);
                    if attrs.is_empty() {
                        // Valid local edits with no observable change of
                        // the shared view: facade semantics — keep them,
                        // report NoChange, let the next submission lead.
                        self.resolve(
                            lead.ticket,
                            Err(CommitError::NoChange {
                                table_id: table_id.to_string(),
                            }),
                        );
                        continue;
                    }
                    break (lead, attrs, invs);
                }
                Err(e) => {
                    let err = CommitError::from_core(e, system);
                    self.resolve(lead.ticket, Err(err));
                    continue;
                }
            }
        };

        let mut group = StagedGroup {
            entry: GroupEntry::new(lead.peer, table_id.to_string())
                .declaring(lead_attrs.into_iter().collect()),
            lead_ticket: lead.ticket,
            co: Vec::new(),
            lead_peer: lead.peer,
            inverses,
            touched: BTreeSet::new(),
        };

        // The Fig. 3 permission matrix the co-authors are pre-screened
        // against. Invariant across the loop: nothing commits on chain
        // while a wave stages.
        let meta = if queue.is_empty() {
            None
        } else {
            match crate::raw_system(&self.ledger).share_meta(table_id) {
                Ok(m) => Some(m),
                Err(e) => {
                    // Without readable metadata nothing can combine:
                    // resolve the would-be co-authors with the error and
                    // let the lead go alone.
                    let err = {
                        let system = crate::raw_system_mut(&mut self.ledger);
                        CommitError::from_core(e, system)
                    };
                    for sub in queue.drain(..) {
                        self.resolve(sub.ticket, Err(err.clone()));
                    }
                    None
                }
            }
        };

        // Compose the rest onto the lead.
        while let Some(sub) = queue.pop_front() {
            // Cross-peer source writes cannot compose (the foreign source
            // lives on the submitter, not the lead): serialize them into
            // the next wave instead.
            let cross_peer = sub.peer != group.lead_peer;
            if cross_peer
                && sub
                    .writes
                    .iter()
                    .any(|w| matches!(w, StagedWrite::Source { .. }))
            {
                requeue_subs.push(sub);
                continue;
            }
            let system = crate::raw_system_mut(&mut self.ledger);
            // The lead staged earlier in this wave, so the lookup only
            // misses if the deployment changed under us — requeue the
            // co-submission for the next wave rather than crash.
            let Ok(node) = system.peer_mut(group.lead_peer) else {
                requeue_subs.push(sub);
                continue;
            };
            match stage_writes(node, table_id, &sub.writes) {
                Ok((invs, attrs, composed)) => {
                    if attrs.is_empty() || composed.is_empty() {
                        // No observable change of the shared view (no-op
                        // assignments, or writes whose COMPOSITION
                        // cancels out, e.g. insert-then-delete — which
                        // the per-op attribute union alone would
                        // mis-declare as touching every column). Undo
                        // the staging and retry the submission as next
                        // wave's lead, where it gets the facade's exact
                        // NoChange semantics — keeping valid local edits
                        // (e.g. a source write outside the lens
                        // footprint) on ITS OWN node instead of
                        // discarding them from the lead's.
                        node.rollback_writes(&invs);
                        requeue_subs.push(sub);
                        continue;
                    }
                    let attrs_vec: Vec<String> = attrs.into_iter().collect();
                    // Off-chain permission pre-screen on the co-author's
                    // OWN attributes: a denied submitter must not leak
                    // its delta into the composed (committed!) data.
                    // Meta is read whenever co-submitters exist; if it
                    // is somehow absent, unwind this submission's
                    // staging and retry it as next wave's lead instead
                    // of crashing the pump.
                    let Some(meta) = meta.as_ref() else {
                        node.rollback_writes(&invs);
                        requeue_subs.push(sub);
                        continue;
                    };
                    match meta.may_write_all(&sub.peer.account(), &attrs_vec) {
                        Ok(()) => {
                            group.inverses.extend(invs);
                            group.entry.co_submitters.push(CoSubmitter {
                                peer: sub.peer,
                                attrs: attrs_vec,
                            });
                            group.co.push((sub.ticket, CoState::Admitted, sub));
                        }
                        Err(reason) => {
                            // Lone-submitter rollback: only this
                            // submission's writes unwind; the lead and
                            // earlier co-authors stay staged.
                            node.rollback_writes(&invs);
                            group.entry.co_submitters.push(CoSubmitter {
                                peer: sub.peer,
                                attrs: attrs_vec,
                            });
                            group.co.push((sub.ticket, CoState::Rider { reason }, sub));
                        }
                    }
                }
                Err(e) => {
                    let err = CommitError::from_core(e, system);
                    self.resolve(sub.ticket, Err(err));
                }
            }
        }

        // A sole-authored member declares exactly what the engine's
        // prepare step computes from the composed pending delta (facade
        // parity — the per-op attribute union can over-approximate, e.g.
        // a batch that sets and then reverts an attribute). Only a
        // combined member needs the split declaration, where each
        // author's request covers its own contribution.
        if group.entry.co_submitters.is_empty() {
            group.entry.declared_attrs = None;
        }

        // Same-peer cross-member disjointness: two members staged on one
        // peer must touch disjoint local tables, or one member's
        // uncommitted writes would leak into the other's
        // payload/cascades. The later group re-queues whole.
        group.touched = group.inverses.iter().map(|(t, _)| t.clone()).collect();
        let overlap = staged_so_far.iter().any(|m| match m {
            WaveMember::Group(g) => {
                g.lead_peer == group.lead_peer && !g.touched.is_disjoint(&group.touched)
            }
            WaveMember::Cascade(_) => false,
        });
        if overlap {
            let system = crate::raw_system_mut(&mut self.ledger);
            rollback(system, group.lead_peer, &group.inverses);
            requeue_subs.push(lead);
            for (_, _, sub) in group.co {
                requeue_subs.push(sub);
            }
            return Ok(None);
        }
        Ok(Some(group))
    }

    /// Resolves every submitter of one committed (or failed) group
    /// member. `co_tx_list` is this member's `co_request_update`
    /// transactions, aligned with `g.co`.
    fn resolve_group(
        &mut self,
        g: StagedGroup,
        result: medledger_core::GroupEntryResult,
        co_tx_list: Vec<medledger_ledger::TxId>,
        requeue_subs: &mut Vec<PendingSubmission>,
    ) {
        let mut resolutions: Vec<(u64, Result<CommitOutcome, CommitError>)> = Vec::new();
        match result {
            Ok(report) => {
                let system = crate::raw_system(&self.ledger);
                // Lead: the full outcome (its receipts include the
                // request, every co-request, and all acks, in commit
                // order).
                let mut receipts = Vec::new();
                facade::collect_receipts(system, &report, &mut receipts);
                resolutions.push((
                    g.lead_ticket,
                    Ok(CommitOutcome {
                        trace: report.trace.clone(),
                        receipts,
                        report: report.clone(),
                    }),
                ));
                // Co-submitters: each demuxes to its own co-request
                // receipt; riders resolve to the typed denial carrying
                // that receipt.
                for (j, (ticket, state, _sub)) in g.co.into_iter().enumerate() {
                    let co_tx = co_tx_list.get(j).copied();
                    let receipt = co_tx.and_then(|t| system.receipt(&t).cloned());
                    let outcome = match (&state, &receipt) {
                        (_, Some(r)) if matches!(r.status, TxStatus::Success) => {
                            Ok(CommitOutcome {
                                trace: report.trace.clone(),
                                receipts: vec![r.clone()],
                                report: report.clone(),
                            })
                        }
                        (_, Some(r)) => match &r.status {
                            TxStatus::Reverted { kind, reason } => Err(co_revert_error(
                                *kind,
                                reason.clone(),
                                receipt.clone(),
                                matches!(state, CoState::Admitted),
                            )),
                            TxStatus::Success => unreachable!("matched above"),
                        },
                        (CoState::Rider { reason }, None) => Err(CommitError::PermissionDenied {
                            reason: reason.clone(),
                            receipt: None,
                        }),
                        (CoState::Admitted, None) => Err(CommitError::Engine(
                            CoreError::ConsensusFailed("co-request receipt missing".into()),
                        )),
                    };
                    resolutions.push((ticket, outcome));
                }
            }
            Err(f) => {
                let committed = f.committed_on_chain;
                let err = {
                    let system = crate::raw_system_mut(&mut self.ledger);
                    let err = CommitError::from_core(f.error, system);
                    if !committed && !err.is_no_change() {
                        rollback(system, g.lead_peer, &g.inverses);
                    }
                    err
                };
                resolutions.push((g.lead_ticket, Err(err.clone().with_commit_point(committed))));
                for (j, (ticket, state, sub)) in g.co.into_iter().enumerate() {
                    match state {
                        // A pre-screened denial stands on its own,
                        // whatever happened to the member.
                        CoState::Rider { reason } => {
                            let system = crate::raw_system(&self.ledger);
                            let receipt = co_tx_list
                                .get(j)
                                .and_then(|t| system.receipt(t).cloned())
                                .filter(|r| !matches!(r.status, TxStatus::Success));
                            resolutions.push((
                                ticket,
                                Err(CommitError::PermissionDenied { reason, receipt }),
                            ));
                        }
                        CoState::Admitted if !committed => {
                            // The composed data never reached the chain
                            // and the lead's rollback unwound this
                            // submitter's writes too: its buffered ops
                            // are intact — retry in the next wave.
                            requeue_subs.push(sub);
                        }
                        CoState::Admitted => {
                            // Post-commit failure: the composed data (and
                            // this submitter's writes) are on chain.
                            resolutions.push((ticket, Err(err.clone().with_commit_point(true))));
                        }
                    }
                }
            }
        }
        for (ticket, outcome) in resolutions {
            self.resolved.insert(ticket, outcome);
        }
    }
}

/// Maps a reverted co-request receipt to the typed commit error.
fn co_revert_error(
    kind: medledger_ledger::RevertKind,
    reason: String,
    receipt: Option<medledger_ledger::Receipt>,
    data_committed: bool,
) -> CommitError {
    use medledger_ledger::RevertKind;
    let base = match kind {
        RevertKind::PermissionDenied => CommitError::PermissionDenied { reason, receipt },
        RevertKind::StateLocked => CommitError::Barrier { reason, receipt },
        kind => CommitError::Reverted {
            kind,
            reason,
            receipt,
        },
    };
    // An admitted co-author whose co-request reverted is in the weird
    // (pre-screen raced) position that its data IS committed: surface
    // that via the commit point so the caller keeps local state.
    base.with_commit_point(data_committed)
}

fn rollback(system: &mut System, peer: PeerId, inverses: &[(String, TableDelta)]) {
    // A rollback for a peer that no longer exists has nothing to undo;
    // dropping it beats panicking mid-unwind.
    if let Ok(node) = system.peer_mut(peer) {
        node.rollback_writes(inverses);
    }
}

/// The changed-attribute set a peer's *pre-existing* pending delta of
/// `table_id` would declare (empty when the peer is clean).
fn pre_existing_attrs(node: &PeerNode, table_id: &str) -> medledger_core::Result<BTreeSet<String>> {
    let pending = node.pending_delta(table_id)?;
    if pending.is_empty() {
        return Ok(BTreeSet::new());
    }
    Ok(changed_attrs_from_delta(
        &node.baseline(table_id)?,
        &pending,
    ))
}

/// What staging one submission produced: the applied inverse deltas, the
/// changed-attribute set of the target shared table, and the
/// submission's **composed** view delta (the sequential composition of
/// every write's view-level effect — `TableDelta::compose` — relative to
/// the view state the submission started from).
type StagedWrites = (Vec<(String, TableDelta)>, BTreeSet<String>, TableDelta);

/// Stages one submission's writes on `node`, returning the applied
/// inverses, the changed-attribute set of the target shared table
/// (computed per write, against the evolving state, BEFORE applying it —
/// this is what each submitter's permission is checked on), and the
/// composed view delta (an empty composition means the submission is a
/// net no-op on the view even when individual writes were not, e.g.
/// insert-then-delete). On error the partial staging is rolled back and
/// nothing is kept.
fn stage_writes(
    node: &mut PeerNode,
    table_id: &str,
    writes: &[StagedWrite],
) -> medledger_core::Result<StagedWrites> {
    let mut inverses: Vec<(String, TableDelta)> = Vec::new();
    let mut attrs: BTreeSet<String> = BTreeSet::new();
    let mut composed = TableDelta::default();
    let view_schema = node.shared_store(table_id)?.schema().clone();
    let result = (|| -> medledger_core::Result<()> {
        for w in writes {
            match w {
                StagedWrite::Shared(op) => {
                    let current = node.shared_store(table_id)?;
                    let delta = delta_from_write_op(current, op)?;
                    attrs.extend(changed_attrs_from_delta(current, &delta));
                    composed = composed.compose(&delta, |r| view_schema.key_of(r));
                    inverses.extend(node.write_shared(table_id, op.clone())?);
                }
                StagedWrite::Source { table, op } => {
                    // Only the slice visible through this share's lens
                    // counts toward the declared attributes; the write
                    // itself may also feed sibling shares (Step-6
                    // cascade material), exactly like the facade.
                    let binding = node.binding(table_id)?.clone();
                    if binding.source_table == *table {
                        let source = node.db.table(table)?;
                        let source_delta = delta_from_write_op(source, op)?;
                        let view_delta =
                            medledger_bx::get_delta(&binding.lens, source, &source_delta)?;
                        let current_view = node.shared_store(table_id)?;
                        attrs.extend(changed_attrs_from_delta(current_view, &view_delta));
                        composed = composed.compose(&view_delta, |r| view_schema.key_of(r));
                    }
                    inverses.extend(node.write_source(table, op.clone())?);
                }
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => Ok((inverses, attrs, composed)),
        Err(e) => {
            node.rollback_writes(&inverses);
            Err(e)
        }
    }
}

/// A submission being staged against the service (the pipeline's
/// counterpart of the facade's `UpdateBatch`; writes buffer locally until
/// [`Submission::submit`] enqueues them for the next wave).
#[must_use = "staged writes do nothing until .submit()"]
pub struct Submission<'s> {
    service: &'s mut LedgerService,
    peer: PeerId,
    table_id: String,
    writes: Vec<StagedWrite>,
}

impl<'s> Submission<'s> {
    /// Stages an entry-level insert into the shared table.
    pub fn insert(mut self, row: Row) -> Self {
        self.writes
            .push(StagedWrite::Shared(WriteOp::Insert { row }));
        self
    }

    /// Stages an entry-level multi-attribute update.
    pub fn update(mut self, key: Vec<Value>, assignments: Vec<(String, Value)>) -> Self {
        self.writes
            .push(StagedWrite::Shared(WriteOp::Update { key, assignments }));
        self
    }

    /// Stages a single-attribute update (sugar over [`Submission::update`]).
    pub fn set(self, key: Vec<Value>, attr: impl Into<String>, value: Value) -> Self {
        self.update(key, vec![(attr.into(), value)])
    }

    /// Stages an entry-level delete.
    pub fn delete(mut self, key: Vec<Value>) -> Self {
        self.writes
            .push(StagedWrite::Shared(WriteOp::Delete { key }));
        self
    }

    /// Stages an update against one of the peer's *source* tables; the
    /// change reaches the shared table through the lens at wave time.
    pub fn update_source(
        mut self,
        table: impl Into<String>,
        key: Vec<Value>,
        assignments: Vec<(String, Value)>,
    ) -> Self {
        self.writes.push(StagedWrite::Source {
            table: table.into(),
            op: WriteOp::Update { key, assignments },
        });
        self
    }

    /// Stages a raw shared-table write. This is the generic entry the
    /// wire gateway replays `Submit` frames through —
    /// [`Submission::insert`] / [`Submission::update`] /
    /// [`Submission::delete`] are sugar over it.
    pub fn write(mut self, op: WriteOp) -> Self {
        self.writes.push(StagedWrite::Shared(op));
        self
    }

    /// Stages a raw write against one of the peer's *source* tables
    /// (the generic form of [`Submission::update_source`]).
    pub fn write_source(mut self, table: impl Into<String>, op: WriteOp) -> Self {
        self.writes.push(StagedWrite::Source {
            table: table.into(),
            op,
        });
        self
    }

    /// Number of staged writes.
    pub fn staged(&self) -> usize {
        self.writes.len()
    }

    /// Enqueues the submission for the next wave — **non-blocking** —
    /// returning the ticket its outcome resolves under. A submission
    /// against a table another submission already targets is NOT
    /// rejected: the scheduler composes same-table submissions into one
    /// combined member.
    #[allow(clippy::result_large_err)]
    pub fn submit(self) -> Result<CommitTicket, CommitError> {
        self.enqueue().map(|(_, ticket)| ticket)
    }

    /// The blocking convenience: [`Submission::submit`] plus
    /// [`CommitTicket::wait`] — the old `commit()` shape as a thin
    /// wrapper over the pipeline.
    #[allow(clippy::result_large_err)]
    pub fn commit(self) -> Result<CommitOutcome, CommitError> {
        let (service, ticket) = self.enqueue()?;
        service.wait(ticket)
    }

    /// Queues the staged writes, handing the service back so `commit`
    /// can go on to wait on it.
    #[allow(clippy::result_large_err)]
    fn enqueue(self) -> Result<(&'s mut LedgerService, CommitTicket), CommitError> {
        if self.writes.is_empty() {
            return Err(CommitError::EmptyBatch {
                table_id: self.table_id,
            });
        }
        let ticket = self.service.next_ticket;
        self.service.next_ticket += 1;
        self.service.pending.push_back(PendingSubmission {
            ticket,
            peer: self.peer,
            table_id: self.table_id,
            writes: self.writes,
        });
        Ok((self.service, CommitTicket(ticket)))
    }
}
