//! The ticketed front door over the core scheduler.
//!
//! [`LedgerService`] owns the [`MedLedger`]. Writers stage a batch
//! exactly as with the facade — a [`Submission`] is the facade's
//! `UpdateBatch` — but end with the non-blocking `submit()`, which
//! returns a [`CommitTicket`]. [`LedgerService::tick`] runs ONE wave of
//! the scheduler (`System::run_wave`, see `medledger_core::sched`), and
//! the tickets it resolves are taken with [`LedgerService::take`],
//! [`LedgerService::take_resolved`] or the blocking
//! [`LedgerService::wait`] / [`LedgerService::drain`].
//!
//! The facade's `UpdateBatch::commit` is the same queue, driven until its
//! own ticket and the cascades it set off are through; the service only
//! decides *when* waves run — per `tick`, or under the `medledger-node`
//! gateway's pump — and who learns which outcome.

use medledger_core::{
    CascadeRecord, CommitError, CommitOutcome, CommitTicket, CoreError, MedLedger, PeerId,
    UpdateBatch, WaveReport,
};

/// A submission staged against the service: the facade's
/// [`UpdateBatch`], ending in `submit()` for a ticket (or `commit()` to
/// block on it).
pub use medledger_core::UpdateBatch as Submission;

/// The ticketed commit pipeline service. See the module docs.
pub struct LedgerService {
    ledger: MedLedger,
}

impl LedgerService {
    /// Wraps a ledger in the pipeline service. Wave numbering continues
    /// from the ledger's own count — a recovered durable ledger resumes
    /// it from the waves stamped into its chain.
    pub fn new(ledger: MedLedger) -> Self {
        LedgerService { ledger }
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
    /// cascade resolves, then flushes the ledger's durable state (a
    /// no-op for in-memory deployments). Rebuilding from the same
    /// backend and wrapping in a new service resumes exactly here —
    /// including the wave numbering.
    pub fn close(mut self) -> medledger_core::Result<()> {
        self.drain()?;
        self.ledger.close()
    }

    /// Starts staging a submission by `peer` against shared `table_id`.
    /// Writes buffer on the returned [`Submission`]; nothing touches any
    /// peer state until the wave that admits it.
    pub fn submit(&mut self, peer: PeerId, table_id: impl Into<String>) -> Submission<'_> {
        UpdateBatch::new(crate::raw_system_mut(&mut self.ledger), peer, table_id)
    }

    /// True iff submissions or cascades await a wave.
    pub fn has_work(&self) -> bool {
        crate::raw_system(&self.ledger).has_work()
    }

    /// Submissions waiting for the next wave.
    pub fn pending_submissions(&self) -> usize {
        crate::raw_system(&self.ledger).pending_submissions()
    }

    /// Waves run so far — by this service and by the facade's commits
    /// alike, one scheduler counting both.
    pub fn waves(&self) -> u64 {
        crate::raw_system(&self.ledger).waves()
    }

    /// The cascades the scheduler has run (or recorded as blocked) so
    /// far, in commit order.
    pub fn cascades(&self) -> &[CascadeRecord] {
        crate::raw_system(&self.ledger).cascades()
    }

    /// True iff the ticket's outcome is ready for [`LedgerService::take`].
    pub fn is_resolved(&self, ticket: CommitTicket) -> bool {
        crate::raw_system(&self.ledger).is_resolved(ticket)
    }

    /// Takes a resolved ticket's outcome (`None` if unknown, not yet
    /// resolved, or already taken).
    pub fn take(&mut self, ticket: CommitTicket) -> Option<Result<CommitOutcome, CommitError>> {
        crate::raw_system_mut(&mut self.ledger).take_outcome(ticket)
    }

    /// Drains *every* resolved outcome, in ticket order. This is the
    /// wave pump's post-tick notification source: the gateway does not
    /// know which tickets a wave resolved (a requeued submission resolves
    /// in a later wave than the one that took it in), so it takes them
    /// all and routes each to its waiting session.
    pub fn take_resolved(&mut self) -> Vec<(CommitTicket, Result<CommitOutcome, CommitError>)> {
        crate::raw_system_mut(&mut self.ledger).take_resolved()
    }

    /// Blocks until `ticket` resolves, driving waves as needed, and takes
    /// the outcome (its cascades stay in [`LedgerService::cascades`]).
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

    /// Forms and commits ONE wave (see `System::run_wave`): queued
    /// cascades and submission groups onto distinct shared tables, one
    /// block and one scheduled consensus round for all of them, the
    /// affected tickets resolved, the cascades found re-entered into the
    /// next wave.
    pub fn tick(&mut self) -> medledger_core::Result<WaveReport> {
        crate::raw_system_mut(&mut self.ledger).run_wave()
    }
}
