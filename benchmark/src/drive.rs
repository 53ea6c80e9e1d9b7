//! The load driver: client sessions as tasks on the deployment's own
//! executor, talking to the gateway only through [`GatewayClient`].
//!
//! Each session has one operation outstanding. In a closed-loop stage it
//! sends the next one as soon as the previous outcome arrived; in an
//! open-loop stage every operation has a due time, the session sleeps
//! until then, and latency counts from the due time — so a session still
//! waiting for an earlier outcome when an operation falls due charges
//! that wait to the operation (and reports it as generator lateness).

use crate::gen::{Expect, Planned, Stage, World};
use medledger_node::rt::Handle;
use medledger_node::wire::{RejectKind, WireReject};
use medledger_node::{Deployment, GatewayClient, SubmitReply};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What came back for one operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// An `Outcome` frame carrying a commit.
    Committed {
        /// `WireCommit::sync_latency_ms` (virtual clock).
        sync_virtual_ms: u64,
    },
    /// A typed `PermissionDenied` rejection.
    Denied,
    /// Anything else: a shed, a wire error, another rejection kind.
    Other(String),
}

impl Outcome {
    /// Whether this is the outcome the generator expected.
    pub fn matches(&self, expect: Expect) -> bool {
        matches!(
            (self, expect),
            (Outcome::Committed { .. }, Expect::Commit) | (Outcome::Denied, Expect::Denied)
        )
    }
}

/// The driver's record of one operation. Times are nanoseconds since
/// the run's epoch.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the stage in the plan.
    pub stage: usize,
    /// Session that carried it.
    pub session: usize,
    /// Position in the session's list for the stage.
    pub index: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When the `Submit` frame went out.
    pub sent_ns: u64,
    /// When the admission reply arrived.
    pub accepted_ns: u64,
    /// When the outcome arrived.
    pub done_ns: u64,
    /// The gateway ticket, when admitted.
    pub ticket: Option<u64>,
    /// What came back.
    pub outcome: Outcome,
}

impl Sample {
    /// Due (or sent) → outcome, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// One finished stage.
pub struct StageRun {
    /// Every operation of the stage, session by session.
    pub samples: Vec<Sample>,
    /// First send to last outcome (the drain included).
    pub wall: Duration,
}

async fn session(
    mut client: GatewayClient,
    ops: Vec<Planned>,
    peers: Arc<Vec<String>>,
    (stage, session): (usize, usize),
    (epoch, start): (Instant, Instant),
    timer: Handle,
) -> (GatewayClient, Vec<Sample>) {
    let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut samples = Vec::with_capacity(ops.len());
    for (index, planned) in ops.into_iter().enumerate() {
        let due = planned.due_us.map(|us| start + Duration::from_micros(us));
        if let Some(due) = due {
            let now = Instant::now();
            if due > now {
                timer.sleep(due - now).await;
            }
        }
        let sent = Instant::now();
        let op = planned.op;
        let reply = client.submit(&peers[op.peer], &op.table, op.writes).await;
        let accepted = Instant::now();
        let from_reject = |reject: WireReject| match reject.kind {
            RejectKind::PermissionDenied => Outcome::Denied,
            _ => Outcome::Other(reject.to_string()),
        };
        let (ticket, outcome) = match reply {
            Ok(SubmitReply::Accepted { ticket }) => {
                let outcome = match client.wait(ticket).await {
                    Ok(Ok(commit)) => Outcome::Committed {
                        sync_virtual_ms: commit.sync_latency_ms,
                    },
                    Ok(Err(reject)) => from_reject(reject),
                    Err(e) => Outcome::Other(format!("wire error: {e}")),
                };
                (Some(ticket), outcome)
            }
            Ok(SubmitReply::Rejected(reject)) => (None, from_reject(reject)),
            Ok(SubmitReply::Overloaded { .. }) => (None, Outcome::Other("shed".into())),
            Err(e) => (None, Outcome::Other(format!("wire error: {e}"))),
        };
        let done = Instant::now();
        samples.push(Sample {
            stage,
            session,
            index,
            due_ns: since_epoch(due.unwrap_or(sent)),
            sent_ns: since_epoch(sent),
            accepted_ns: since_epoch(accepted),
            done_ns: since_epoch(done),
            ticket,
            outcome,
        });
    }
    (client, samples)
}

/// Runs one stage to completion (every session's last outcome in) and
/// hands the clients back for the next one.
pub fn run_stage(
    dep: &Deployment,
    clients: Vec<GatewayClient>,
    world: &World,
    (stage_index, stage): (usize, &Stage),
    epoch: Instant,
) -> (Vec<GatewayClient>, StageRun) {
    let peers = Arc::new(world.peers.clone());
    let start = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .zip(stage.sessions.iter().cloned())
        .enumerate()
        .map(|(s, (client, ops))| {
            dep.spawn(session(
                client,
                ops,
                Arc::clone(&peers),
                (stage_index, s),
                (epoch, start),
                dep.handle(),
            ))
        })
        .collect();
    let mut clients = Vec::with_capacity(handles.len());
    let mut samples = Vec::new();
    for handle in handles {
        let (client, mut s) = dep.block_on(handle);
        clients.push(client);
        samples.append(&mut s);
    }
    let wall = start.elapsed();
    (clients, StageRun { samples, wall })
}
