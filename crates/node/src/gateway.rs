//! The concurrent gateway front door over `LedgerService`.
//!
//! A [`Deployment`] splits a ledger into one pump task plus one event
//! loop per peer (see [`crate::peer_loop`]), then accepts any number of
//! client sessions ([`Deployment::connect`]). Sessions speak the
//! [`crate::wire`] protocol; their submissions are multiplexed into
//! waves by the pump — the existing `tick()`/`drain()` scheduler *is*
//! the wave pump, which is what keeps the concurrent path byte-identical
//! to serial `LedgerService` use — and tickets resolve by async
//! notification: a parked [`Message::Poll`] is answered the moment the
//! wave that commits the submission drains its outcomes, with no poll
//! loop on either side.
//!
//! Backpressure: admission is bounded at
//! [`GatewayConfig::queue_depth`] queued submissions; past that, new
//! submissions are rejected with [`Message::Overloaded`] carrying a
//! retry-after hint, and the client is expected to back off and retry.
//!
//! Determinism: exactly one task (the pump) ever touches the
//! `LedgerService`, and waves compose submissions in arrival order, so
//! a fixed arrival order produces byte-identical state, receipts, and
//! audit history to the serial path — regardless of executor thread
//! count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use medledger_core::{CommitError, CommitOutcome, CoreError, PeerId, PeerNode};
use medledger_engine::{CommitTicket, LedgerService, WaveReport};
use medledger_telemetry::Recorder;

use crate::peer_loop::{self, PeerTelemetry};
use crate::rt::Runtime;
use crate::sync::{self, OneSender};
use crate::wire::{
    duplex_metered, ByteMeter, Envelope, Message, RejectKind, WireCommit, WireConn, WireError,
    WireReject, WireWrite,
};

// ---------------------------------------------------------------------
// Configuration & stats
// ---------------------------------------------------------------------

/// Knobs for a [`Deployment`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Executor worker threads. `1` gives a single-lane deterministic
    /// schedule; more overlaps sessions and peer loops.
    pub threads: usize,
    /// Bound on queued (admitted but not yet waved) submissions; the
    /// admission queue. Past it, submissions get
    /// [`Message::Overloaded`].
    pub queue_depth: usize,
    /// Retry hint carried on [`Message::Overloaded`].
    pub retry_after_ms: u64,
    /// Byte capacity per wire-pipe direction.
    pub pipe_capacity: usize,
    /// Run a wave automatically whenever the event queue goes idle with
    /// work pending. Disable ([`GatewayConfig::manual_pump`]) to drive
    /// waves explicitly via [`Deployment::pump`] — tests use this to
    /// pin wave composition.
    pub auto_pump: bool,
    /// Live-telemetry recorder. Disabled by default; install one
    /// ([`GatewayConfig::recorder`]) and the deployment feeds it
    /// gateway counters, ticket-wait histograms, per-peer wire-byte
    /// gauges, and — via [`medledger_core::System::set_recorder`] —
    /// the core's per-wave phase timings and shard heat map.
    pub telemetry: Recorder,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            threads: 2,
            queue_depth: 1024,
            retry_after_ms: 5,
            pipe_capacity: crate::wire::DEFAULT_PIPE_CAPACITY,
            auto_pump: true,
            telemetry: Recorder::disabled(),
        }
    }
}

impl GatewayConfig {
    /// Sets the executor thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the admission-queue bound.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }

    /// Sets the [`Message::Overloaded`] retry hint.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = ms;
        self
    }

    /// Disables automatic waves; drive them with [`Deployment::pump`].
    pub fn manual_pump(mut self) -> Self {
        self.auto_pump = false;
        self
    }

    /// Installs a live-telemetry recorder on the deployment.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.telemetry = recorder;
        self
    }
}

/// Deterministic counters the pump maintains.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayStats {
    /// Waves committed (mirrors `LedgerService::waves`).
    pub waves: u64,
    /// Submissions admitted into the queue.
    pub submissions: u64,
    /// Submissions rejected with [`Message::Overloaded`].
    pub overloaded: u64,
    /// Tickets resolved (commits and typed rejections both).
    pub resolved: u64,
    /// High-water mark of the admission queue.
    pub queue_high_water: usize,
    /// Most sessions open at once.
    pub sessions_peak: usize,
}

// ---------------------------------------------------------------------
// Pump internals
// ---------------------------------------------------------------------

enum PumpEvent {
    NewSession {
        id: u64,
        outbox: sync::Sender<Envelope>,
    },
    Frame {
        session: u64,
        env: Envelope,
    },
    SessionClosed {
        id: u64,
    },
    Pump {
        done: OneSender<medledger_core::Result<WaveReport>>,
    },
    Stats {
        reply: OneSender<GatewayStats>,
    },
    Shutdown {
        done: OneSender<medledger_core::Result<LedgerService>>,
    },
}

struct PeerHandle {
    id: PeerId,
    name: String,
    conn: WireConn,
    to_loop: sync::Sender<Box<PeerNode>>,
    from_loop: sync::Receiver<Box<PeerNode>>,
    /// `applied_versions` as of the last scatter — diffed after a wave
    /// to decide which fan-out notifications this peer gets.
    applied_baseline: std::collections::BTreeMap<String, u64>,
    /// This peer's wire-byte tally (chained into the deployment-wide
    /// meter), exported as the `wire.peer.<Name>.bytes` gauge.
    meter: ByteMeter,
}

struct TicketEntry {
    session: u64,
    /// Correlation id of a parked `Poll`, answered at resolution.
    parked: Option<u64>,
    /// Outcome that resolved before anyone asked.
    outcome: Option<Result<WireCommit, WireReject>>,
    /// Admission time, kept only while a recorder is installed — feeds
    /// the `gateway.ticket_wait_us` histogram at resolution.
    submitted: Option<std::time::Instant>,
}

struct Pump {
    service: LedgerService,
    peers: Vec<PeerHandle>,
    sessions: BTreeMap<u64, sync::Sender<Envelope>>,
    tickets: BTreeMap<u64, TicketEntry>,
    engine_map: BTreeMap<CommitTicket, u64>,
    next_ticket: u64,
    stats: GatewayStats,
    cfg: GatewayConfig,
}

fn wire_err(context: &str, e: WireError) -> CoreError {
    CoreError::BadAgreement(format!("{context}: {e}"))
}

/// Flattens an engine outcome into its wire form.
#[allow(clippy::result_large_err)]
fn to_wire_outcome(res: Result<CommitOutcome, CommitError>) -> Result<WireCommit, WireReject> {
    match res {
        Ok(o) => Ok(WireCommit {
            version: o.version(),
            changed_attrs: o.changed_attrs().to_vec(),
            cascades: o.cascades().len() as u64,
            visibility_latency_ms: o.visibility_latency_ms(),
            sync_latency_ms: o.sync_latency_ms(),
            receipts: o.receipts,
        }),
        Err(e) => Err(to_wire_reject(&e)),
    }
}

fn to_wire_reject(e: &CommitError) -> WireReject {
    let (kind, reason, table_id, receipt) = match e {
        CommitError::PermissionDenied { reason, receipt } => (
            RejectKind::PermissionDenied,
            reason.clone(),
            String::new(),
            receipt.clone(),
        ),
        CommitError::Barrier { reason, receipt } => (
            RejectKind::Barrier,
            reason.clone(),
            String::new(),
            receipt.clone(),
        ),
        CommitError::Reverted {
            reason, receipt, ..
        } => (
            RejectKind::Reverted,
            reason.clone(),
            String::new(),
            receipt.clone(),
        ),
        CommitError::NoChange { table_id } => (
            RejectKind::NoChange,
            "no observable change of the shared view".into(),
            table_id.clone(),
            None,
        ),
        CommitError::EmptyBatch { table_id } => (
            RejectKind::EmptyBatch,
            "no staged writes".into(),
            table_id.clone(),
            None,
        ),
        CommitError::Conflicted { table_id } => (
            RejectKind::Conflicted,
            "table already claimed by a queued update".into(),
            table_id.clone(),
            None,
        ),
        CommitError::Untranslatable { reason } => (
            RejectKind::Untranslatable,
            reason.clone(),
            String::new(),
            None,
        ),
        CommitError::Engine(e) => (RejectKind::Engine, e.to_string(), String::new(), None),
        CommitError::AfterCommit { source } => {
            let inner = to_wire_reject(source);
            (
                RejectKind::AfterCommit,
                format!("post-commit step failed: {}", inner.reason),
                inner.table_id,
                inner.receipt,
            )
        }
    };
    WireReject {
        kind,
        reason,
        table_id,
        receipt,
    }
}

impl Pump {
    async fn run(mut self, mut events: sync::Receiver<PumpEvent>) {
        loop {
            let event = match events.try_recv() {
                Ok(e) => e,
                Err(sync::TryRecvError::Empty) => {
                    if self.cfg.auto_pump && self.service.has_work() {
                        // The queue went idle with work pending: every
                        // submission that arrived during the previous
                        // wave rides the next one together.
                        let _ = self.run_wave().await;
                        continue;
                    }
                    match events.recv().await {
                        Some(e) => e,
                        None => return,
                    }
                }
                Err(sync::TryRecvError::Closed) => return,
            };
            match event {
                PumpEvent::NewSession { id, outbox } => {
                    self.sessions.insert(id, outbox);
                    self.stats.sessions_peak = self.stats.sessions_peak.max(self.sessions.len());
                    self.cfg
                        .telemetry
                        .set_max("gateway.sessions_peak", self.sessions.len() as u64);
                }
                PumpEvent::SessionClosed { id } => {
                    self.sessions.remove(&id);
                    self.tickets.retain(|_, t| t.session != id);
                }
                PumpEvent::Frame { session, env } => self.handle_frame(session, env),
                PumpEvent::Pump { done } => {
                    let report = self.run_wave().await;
                    let _ = done.send(report);
                }
                PumpEvent::Stats { reply } => {
                    let _ = reply.send(self.stats);
                }
                PumpEvent::Shutdown { done } => {
                    let _ = done.send(self.shutdown().await);
                    return;
                }
            }
        }
    }

    fn reply(&self, session: u64, corr: u64, body: Message) {
        if let Some(outbox) = self.sessions.get(&session) {
            let _ = outbox.try_send(Envelope { corr, body });
        }
    }

    fn handle_frame(&mut self, session: u64, env: Envelope) {
        let corr = env.corr;
        match env.body {
            Message::Submit {
                peer,
                table,
                writes,
            } => {
                if self.service.pending_submissions() >= self.cfg.queue_depth {
                    self.stats.overloaded += 1;
                    self.cfg.telemetry.add("gateway.overloaded", 1);
                    self.reply(
                        session,
                        corr,
                        Message::Overloaded {
                            retry_after_ms: self.cfg.retry_after_ms,
                        },
                    );
                    return;
                }
                let wire_ticket = self.next_ticket;
                self.next_ticket += 1;
                let result = self.enqueue(&peer, table, writes);
                match result {
                    Ok(engine_ticket) => {
                        self.engine_map.insert(engine_ticket, wire_ticket);
                        self.tickets.insert(
                            wire_ticket,
                            TicketEntry {
                                session,
                                parked: None,
                                outcome: None,
                                submitted: self
                                    .cfg
                                    .telemetry
                                    .is_enabled()
                                    .then(std::time::Instant::now),
                            },
                        );
                        self.stats.submissions += 1;
                        self.stats.queue_high_water = self
                            .stats
                            .queue_high_water
                            .max(self.service.pending_submissions());
                        self.cfg.telemetry.add("gateway.submissions", 1);
                        self.cfg.telemetry.set_max(
                            "gateway.queue_high_water",
                            self.service.pending_submissions() as u64,
                        );
                        self.reply(
                            session,
                            corr,
                            Message::Accepted {
                                ticket: wire_ticket,
                            },
                        );
                    }
                    Err(reject) => self.reply(
                        session,
                        corr,
                        Message::Outcome {
                            ticket: wire_ticket,
                            result: Err(reject),
                        },
                    ),
                }
            }
            Message::Poll { ticket, park } => {
                let Some(entry) = self.tickets.get_mut(&ticket) else {
                    self.reply(
                        session,
                        corr,
                        Message::Outcome {
                            ticket,
                            result: Err(WireReject {
                                kind: RejectKind::Engine,
                                reason: format!("ticket {ticket} is unknown or already taken"),
                                table_id: String::new(),
                                receipt: None,
                            }),
                        },
                    );
                    return;
                };
                if let Some(result) = entry.outcome.take() {
                    self.tickets.remove(&ticket);
                    self.reply(session, corr, Message::Outcome { ticket, result });
                } else if park {
                    entry.parked = Some(corr);
                } else {
                    self.reply(session, corr, Message::Pending { ticket });
                }
            }
            Message::StatsRequest => {
                let json = self.stats_json();
                self.reply(session, corr, Message::Stats { json });
            }
            Message::Close => self.reply(session, corr, Message::Closed),
            _ => {}
        }
    }

    /// Renders the deterministic gateway counters — plus, when a
    /// telemetry registry is installed, the full metric registry
    /// snapshot — as one JSON document for [`Message::Stats`].
    fn stats_json(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"waves\":{},\"submissions\":{},\"overloaded\":{},\
             \"resolved\":{},\"queue_high_water\":{},\"sessions_peak\":{}",
            s.waves, s.submissions, s.overloaded, s.resolved, s.queue_high_water, s.sessions_peak
        );
        if let Some(registry) = self.cfg.telemetry.registry() {
            out.push_str(",\"registry\":");
            out.push_str(&registry.snapshot().render_json());
        }
        out.push('}');
        out
    }

    #[allow(clippy::result_large_err)]
    fn enqueue(
        &mut self,
        peer: &str,
        table: String,
        writes: Vec<WireWrite>,
    ) -> Result<CommitTicket, WireReject> {
        let peer_id = self
            .service
            .ledger()
            .system()
            .peer_id(peer)
            .map_err(|e| WireReject {
                kind: RejectKind::Engine,
                reason: e.to_string(),
                table_id: table.clone(),
                receipt: None,
            })?;
        let mut sub = self.service.submit(peer_id, table);
        for w in writes {
            sub = match w {
                WireWrite::Shared(op) => sub.write(op),
                WireWrite::Source { table, op } => sub.write_source(table, op),
            };
        }
        sub.submit().map_err(|e| to_wire_reject(&e))
    }

    /// Gathers every peer, runs one wave, scatters peers back with the
    /// wave's notifications, and routes resolved outcomes to their
    /// sessions (answering parked polls).
    async fn run_wave(&mut self) -> medledger_core::Result<WaveReport> {
        if !self.service.has_work() {
            return Ok(WaveReport::default());
        }
        let wave = self.service.waves() + 1;
        self.gather(wave).await?;
        let tick_result = self.service.tick();
        let resolved = self.service.take_resolved();
        self.scatter(wave, tick_result.as_ref().ok().copied())
            .await?;
        for (engine_ticket, result) in resolved {
            self.route(engine_ticket, to_wire_outcome(result));
        }
        let report = tick_result?;
        self.stats.waves = self.service.waves();
        if self.cfg.telemetry.is_enabled() {
            for ph in &self.peers {
                self.cfg
                    .telemetry
                    .set(&format!("wire.peer.{}.bytes", ph.name), ph.meter.bytes());
            }
        }
        Ok(report)
    }

    /// Checks every peer's state out of its event loop and attaches it
    /// to the system (tick and durable flush both require the full peer
    /// set present).
    async fn gather(&mut self, wave: u64) -> medledger_core::Result<()> {
        for ph in &mut self.peers {
            ph.conn
                .send(&Envelope {
                    corr: wave,
                    body: Message::Checkout {
                        peer: ph.name.clone(),
                        wave,
                    },
                })
                .await
                .map_err(|e| wire_err("checkout send", e))?;
            match ph
                .conn
                .recv()
                .await
                .map_err(|e| wire_err("checkout ack", e))?
            {
                Some(Envelope {
                    body: Message::CheckoutAck { .. },
                    ..
                }) => {}
                other => {
                    return Err(CoreError::BadAgreement(format!(
                        "peer `{}` answered checkout with {other:?}",
                        ph.name
                    )))
                }
            }
            let node = ph.from_loop.recv().await.ok_or_else(|| {
                CoreError::BadAgreement(format!("peer `{}` loop died mid-checkout", ph.name))
            })?;
            self.service.ledger_mut().system_mut().attach_peer(*node)?;
        }
        Ok(())
    }

    /// Detaches every peer and returns it to its event loop, carrying
    /// the wave's fan-out / seal notifications when the wave committed.
    async fn scatter(
        &mut self,
        wave: u64,
        report: Option<WaveReport>,
    ) -> medledger_core::Result<()> {
        for ph in &mut self.peers {
            let before = ph.applied_baseline.clone();
            let node = self.service.ledger_mut().system_mut().detach_peer(ph.id)?;
            if let Some(report) = report {
                for (table, version) in &node.applied_versions {
                    if before.get(table) != Some(version) {
                        ph.conn
                            .send(&Envelope {
                                corr: 0,
                                body: Message::FanOut {
                                    wave,
                                    table: table.clone(),
                                    version: *version,
                                },
                            })
                            .await
                            .map_err(|e| wire_err("fan-out", e))?;
                    }
                }
                // One aggregated threshold ack per wave member seals
                // the ack round; the same members ride the wave's one
                // consensus block.
                ph.conn
                    .send(&Envelope {
                        corr: 0,
                        body: Message::AckSealed {
                            wave,
                            acks: report.members as u64,
                        },
                    })
                    .await
                    .map_err(|e| wire_err("ack-sealed", e))?;
                ph.conn
                    .send(&Envelope {
                        corr: 0,
                        body: Message::ConsensusSealed {
                            wave,
                            commits: report.members as u64,
                        },
                    })
                    .await
                    .map_err(|e| wire_err("consensus-sealed", e))?;
            }
            ph.applied_baseline = node.applied_versions.clone();
            let _ = ph.to_loop.try_send(Box::new(node));
            ph.conn
                .send(&Envelope {
                    corr: wave,
                    body: Message::Checkin {
                        peer: ph.name.clone(),
                        wave,
                    },
                })
                .await
                .map_err(|e| wire_err("checkin", e))?;
        }
        Ok(())
    }

    fn route(&mut self, engine_ticket: CommitTicket, result: Result<WireCommit, WireReject>) {
        self.stats.resolved += 1;
        self.cfg.telemetry.add("gateway.resolved", 1);
        let Some(wire_ticket) = self.engine_map.remove(&engine_ticket) else {
            return;
        };
        let Some(entry) = self.tickets.get_mut(&wire_ticket) else {
            return;
        };
        if let Some(submitted) = entry.submitted.take() {
            self.cfg.telemetry.record(
                "gateway.ticket_wait_us",
                submitted.elapsed().as_micros() as u64,
            );
        }
        if let Some(corr) = entry.parked.take() {
            let session = entry.session;
            self.tickets.remove(&wire_ticket);
            self.reply(
                session,
                corr,
                Message::Outcome {
                    ticket: wire_ticket,
                    result,
                },
            );
        } else {
            entry.outcome = Some(result);
        }
    }

    /// Drains every queued submission, pushes any still-unclaimed
    /// outcomes to their sessions, recalls every peer's state, stops
    /// the loops, and hands the (fully re-attached) service back.
    async fn shutdown(mut self) -> medledger_core::Result<LedgerService> {
        while self.service.has_work() {
            self.run_wave().await?;
        }
        // Unclaimed outcomes: push proactively (corr 0) so a client
        // mid-`wait` still gets its resolution before the `Closed`.
        let tickets = std::mem::take(&mut self.tickets);
        for (wire_ticket, entry) in tickets {
            if let Some(result) = entry.outcome {
                self.reply(
                    entry.session,
                    0,
                    Message::Outcome {
                        ticket: wire_ticket,
                        result,
                    },
                );
            }
        }
        let final_wave = self.service.waves() + 1;
        for ph in &mut self.peers {
            ph.conn
                .send(&Envelope {
                    corr: final_wave,
                    body: Message::Checkout {
                        peer: ph.name.clone(),
                        wave: final_wave,
                    },
                })
                .await
                .map_err(|e| wire_err("final checkout", e))?;
            match ph
                .conn
                .recv()
                .await
                .map_err(|e| wire_err("final checkout ack", e))?
            {
                Some(Envelope {
                    body: Message::CheckoutAck { .. },
                    ..
                }) => {}
                other => {
                    return Err(CoreError::BadAgreement(format!(
                        "peer `{}` answered final checkout with {other:?}",
                        ph.name
                    )))
                }
            }
            let node = ph.from_loop.recv().await.ok_or_else(|| {
                CoreError::BadAgreement(format!("peer `{}` loop died at shutdown", ph.name))
            })?;
            self.service.ledger_mut().system_mut().attach_peer(*node)?;
            ph.conn
                .send(&Envelope {
                    corr: final_wave,
                    body: Message::Close,
                })
                .await
                .map_err(|e| wire_err("loop close", e))?;
            // The loop replies `Closed` and exits; tolerate it dying
            // without the courtesy frame.
            let _ = ph.conn.recv().await;
        }
        for outbox in self.sessions.values() {
            let _ = outbox.try_send(Envelope {
                corr: 0,
                body: Message::Closed,
            });
        }
        Ok(self.service)
    }
}

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

/// A running multi-node deployment: one pump task owning the
/// [`LedgerService`], one event loop per peer, and a front door for
/// client sessions.
pub struct Deployment {
    rt: Runtime,
    events: sync::Sender<PumpEvent>,
    meter: ByteMeter,
    next_session: Arc<AtomicU64>,
    telemetry: Vec<(String, PeerTelemetry)>,
    pipe_capacity: usize,
}

impl Deployment {
    /// Splits `service` into per-peer event loops plus a pump task and
    /// starts serving. Every registered peer's state is detached from
    /// the system and moved into its own loop.
    pub fn start(
        mut service: LedgerService,
        cfg: GatewayConfig,
    ) -> medledger_core::Result<Deployment> {
        let rt = Runtime::new(cfg.threads);
        let meter = ByteMeter::new();
        if cfg.telemetry.is_enabled() {
            // Install the recorder while every peer is still attached,
            // so each one's shared-table stores wire into the heat map.
            service
                .ledger_mut()
                .system_mut()
                .set_recorder(cfg.telemetry.clone());
        }
        let peer_ids = service.ledger().peers();
        let mut peers = Vec::with_capacity(peer_ids.len());
        let mut telemetry = Vec::with_capacity(peer_ids.len());
        for id in peer_ids {
            let name = service.ledger().peer_name(id)?;
            let node = service.ledger_mut().system_mut().detach_peer(id)?;
            let baseline = node.applied_versions.clone();
            let peer_meter = meter.chained();
            let (pump_conn, loop_conn) = duplex_metered(cfg.pipe_capacity, &peer_meter);
            let (to_loop, loop_inbox) = sync::unbounded();
            let (loop_outbox, from_loop) = sync::unbounded();
            let tele = PeerTelemetry::default();
            telemetry.push((name.clone(), tele.clone()));
            rt.spawn(peer_loop::run(
                loop_conn,
                Box::new(node),
                loop_inbox,
                loop_outbox,
                tele,
            ));
            peers.push(PeerHandle {
                id,
                name,
                conn: pump_conn,
                to_loop,
                from_loop,
                applied_baseline: baseline,
                meter: peer_meter,
            });
        }
        let (events, inbox) = sync::unbounded();
        let pipe_capacity = cfg.pipe_capacity;
        let pump = Pump {
            service,
            peers,
            sessions: BTreeMap::new(),
            tickets: BTreeMap::new(),
            engine_map: BTreeMap::new(),
            next_ticket: 1,
            stats: GatewayStats::default(),
            cfg,
        };
        rt.spawn(pump.run(inbox));
        Ok(Deployment {
            rt,
            events,
            meter,
            next_session: Arc::new(AtomicU64::new(1)),
            telemetry,
            pipe_capacity,
        })
    }

    /// Opens a client session. The returned client owns one end of a
    /// framed duplex conn; a reader task and a writer task serve the
    /// other end, so thousands of sessions can be open at once.
    pub fn connect(&self) -> GatewayClient {
        // ordering: session-id
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let (client_conn, server_conn) = duplex_metered(self.pipe_capacity, &self.meter);
        let (mut srv_tx, mut srv_rx) = server_conn.split();
        let (outbox, mut outbox_rx) = sync::unbounded::<Envelope>();
        let _ = self.events.try_send(PumpEvent::NewSession { id, outbox });
        self.rt.spawn(async move {
            while let Some(env) = outbox_rx.recv().await {
                if srv_tx.send(&env).await.is_err() {
                    break;
                }
            }
        });
        let events = self.events.clone();
        self.rt.spawn(async move {
            while let Ok(Some(env)) = srv_rx.recv().await {
                if events
                    .try_send(PumpEvent::Frame { session: id, env })
                    .is_err()
                {
                    break;
                }
            }
            let _ = events.try_send(PumpEvent::SessionClosed { id });
        });
        GatewayClient {
            conn: client_conn,
            next_corr: 1,
            pushed: BTreeMap::new(),
        }
    }

    /// Runs one wave now (manual-pump mode; harmless no-op when no work
    /// is queued).
    pub fn pump(&self) -> medledger_core::Result<WaveReport> {
        let (tx, rx) = sync::oneshot();
        self.events
            .try_send(PumpEvent::Pump { done: tx })
            .map_err(|_| CoreError::BadAgreement("pump is gone".into()))?;
        self.rt
            .block_on(rx)
            .ok_or_else(|| CoreError::BadAgreement("pump dropped the wave request".into()))?
    }

    /// The pump's deterministic counters.
    pub fn stats(&self) -> GatewayStats {
        let (tx, rx) = sync::oneshot();
        if self
            .events
            .try_send(PumpEvent::Stats { reply: tx })
            .is_err()
        {
            return GatewayStats::default();
        }
        self.rt.block_on(rx).unwrap_or_default()
    }

    /// Total bytes pushed through every wire pipe of this deployment
    /// (frames to/from sessions and peer loops alike).
    pub fn wire_bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Per-peer event-loop telemetry, in peer account order.
    pub fn telemetry(&self) -> Vec<(String, crate::peer_loop::TelemetryCounts)> {
        self.telemetry
            .iter()
            .map(|(n, t)| (n.clone(), t.snapshot()))
            .collect()
    }

    /// Blocks on a future using the deployment's runtime — how
    /// synchronous callers drive a [`GatewayClient`].
    pub fn block_on<F: std::future::Future>(&self, fut: F) -> F::Output {
        self.rt.block_on(fut)
    }

    /// Spawns a future onto the deployment's executor (e.g. a client
    /// driven concurrently with the caller).
    pub fn spawn<F>(&self, fut: F) -> crate::rt::JoinHandle<F::Output>
    where
        F: std::future::Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.rt.spawn(fut)
    }

    /// A cloneable handle onto the deployment's executor.
    pub fn handle(&self) -> crate::rt::Handle {
        self.rt.handle()
    }

    /// Drains every queued submission, stops loops and sessions, and
    /// returns the service with all peers re-attached (state intact,
    /// nothing flushed or consumed — callers inspect or keep using it).
    pub fn shutdown(self) -> medledger_core::Result<LedgerService> {
        let (tx, rx) = sync::oneshot();
        self.events
            .try_send(PumpEvent::Shutdown { done: tx })
            .map_err(|_| CoreError::BadAgreement("pump is gone".into()))?;
        let service = self
            .rt
            .block_on(rx)
            .ok_or_else(|| CoreError::BadAgreement("pump dropped the shutdown request".into()))??;
        // Let in-flight deliveries (final outcomes, Closed frames)
        // reach their sessions before stopping the workers.
        self.rt.drain(std::time::Duration::from_secs(5));
        self.rt.shutdown();
        Ok(service)
    }

    /// Full graceful stop: [`Deployment::shutdown`] then
    /// [`LedgerService::close`] (drains, then flushes durable state).
    pub fn close(self) -> medledger_core::Result<()> {
        self.shutdown()?.close()
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Reply to a [`GatewayClient::submit`].
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitReply {
    /// Admitted; the outcome will resolve under `ticket`.
    Accepted {
        /// Ticket to [`GatewayClient::wait`] on.
        ticket: u64,
    },
    /// The admission queue is full; back off and retry.
    Overloaded {
        /// Suggested backoff.
        retry_after_ms: u64,
    },
    /// Rejected before admission (unknown peer, empty batch, …).
    Rejected(WireReject),
}

/// One client session against a [`Deployment`]'s gateway.
pub struct GatewayClient {
    conn: WireConn,
    next_corr: u64,
    /// Outcomes pushed out-of-band (shutdown flush) before we asked.
    pushed: BTreeMap<u64, Result<WireCommit, WireReject>>,
}

impl GatewayClient {
    fn corr(&mut self) -> u64 {
        let c = self.next_corr;
        self.next_corr += 1;
        c
    }

    /// Submits staged writes by `peer` against shared `table`.
    pub async fn submit(
        &mut self,
        peer: &str,
        table: &str,
        writes: Vec<WireWrite>,
    ) -> Result<SubmitReply, WireError> {
        let corr = self.corr();
        self.conn
            .send(&Envelope {
                corr,
                body: Message::Submit {
                    peer: peer.into(),
                    table: table.into(),
                    writes,
                },
            })
            .await?;
        loop {
            let env = self.conn.recv().await?.ok_or(WireError::Closed)?;
            if env.corr != corr {
                self.stash(env);
                continue;
            }
            return Ok(match env.body {
                Message::Accepted { ticket } => SubmitReply::Accepted { ticket },
                Message::Overloaded { retry_after_ms } => {
                    SubmitReply::Overloaded { retry_after_ms }
                }
                Message::Outcome {
                    result: Err(reject),
                    ..
                } => SubmitReply::Rejected(reject),
                other => {
                    return Err(WireError::Codec(medledger_storage::StorageError::Codec(
                        format!("unexpected submit reply {other:?}"),
                    )))
                }
            });
        }
    }

    /// Waits (event-driven — a parked poll, no retry loop) until
    /// `ticket` resolves and takes its outcome.
    pub async fn wait(&mut self, ticket: u64) -> Result<Result<WireCommit, WireReject>, WireError> {
        if let Some(result) = self.pushed.remove(&ticket) {
            return Ok(result);
        }
        let corr = self.corr();
        self.conn
            .send(&Envelope {
                corr,
                body: Message::Poll { ticket, park: true },
            })
            .await?;
        loop {
            let env = self.conn.recv().await?.ok_or(WireError::Closed)?;
            match env.body {
                Message::Outcome {
                    ticket: got,
                    result,
                } if got == ticket => return Ok(result),
                _ => self.stash(env),
            }
            if let Some(result) = self.pushed.remove(&ticket) {
                return Ok(result);
            }
        }
    }

    /// Asks once whether `ticket` has resolved, without parking.
    pub async fn poll(
        &mut self,
        ticket: u64,
    ) -> Result<Option<Result<WireCommit, WireReject>>, WireError> {
        if let Some(result) = self.pushed.remove(&ticket) {
            return Ok(Some(result));
        }
        let corr = self.corr();
        self.conn
            .send(&Envelope {
                corr,
                body: Message::Poll {
                    ticket,
                    park: false,
                },
            })
            .await?;
        loop {
            let env = self.conn.recv().await?.ok_or(WireError::Closed)?;
            if env.corr != corr {
                self.stash(env);
                continue;
            }
            return Ok(match env.body {
                Message::Pending { .. } => None,
                Message::Outcome { result, .. } => Some(result),
                _ => None,
            });
        }
    }

    /// Asks the gateway for a live statistics snapshot: the JSON body
    /// of the [`Message::Stats`] reply (deterministic gateway counters
    /// plus the telemetry registry when one is installed).
    pub async fn stats(&mut self) -> Result<String, WireError> {
        let corr = self.corr();
        self.conn
            .send(&Envelope {
                corr,
                body: Message::StatsRequest,
            })
            .await?;
        loop {
            let env = self.conn.recv().await?.ok_or(WireError::Closed)?;
            if env.corr != corr {
                self.stash(env);
                continue;
            }
            return match env.body {
                Message::Stats { json } => Ok(json),
                other => Err(WireError::Codec(medledger_storage::StorageError::Codec(
                    format!("unexpected stats reply {other:?}"),
                ))),
            };
        }
    }

    /// Orderly goodbye; the session's tasks wind down on EOF.
    pub async fn close(mut self) -> Result<(), WireError> {
        let corr = self.corr();
        self.conn
            .send(&Envelope {
                corr,
                body: Message::Close,
            })
            .await?;
        loop {
            match self.conn.recv().await {
                Ok(Some(env)) if env.body == Message::Closed => return Ok(()),
                Ok(Some(env)) => self.stash(env),
                Ok(None) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    fn stash(&mut self, env: Envelope) {
        if let Message::Outcome { ticket, result } = env.body {
            self.pushed.insert(ticket, result);
        }
    }
}
