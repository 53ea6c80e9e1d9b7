//! Set-up: a generated [`World`] becomes a ledger, a running
//! [`Deployment`] and connected client sessions.
//!
//! This is what `setup_s` times. Everything is the production default
//! (`auto_pump`, `queue_depth 1024`, aggregated acks, delta propagation,
//! `pipeline_depth 1`, `snapshot_every 8`, 4 MiB segments) except the
//! values the plan names: the seed, `pbft(100)`, the planned key
//! capacity and the shard count.

use crate::gen::{Plan, World};
use medledger_core::system::SystemStats;
use medledger_core::{MedLedger, PeerId};
use medledger_engine::LedgerService;
use medledger_node::{Deployment, GatewayClient, GatewayConfig};
use medledger_telemetry::Recorder;
use std::path::Path;

/// Executor threads of the gateway under test.
pub const GATEWAY_THREADS: usize = 2;

/// Boots a ledger for `plan` (recovering instead when `dir` already
/// holds a store) without loading anything into it.
pub fn boot(
    plan: &Plan,
    key_capacity: usize,
    dir: Option<&Path>,
) -> medledger_core::Result<MedLedger> {
    let mut builder = MedLedger::builder()
        .seed(plan.label.clone())
        .pbft(100)
        .peer_key_capacity(key_capacity)
        .shards_per_table(plan.world.shards);
    if let Some(dir) = dir {
        builder = builder.durable(dir);
    }
    builder.build()
}

/// Registers the peers, loads the sources and creates the shares.
pub fn populate(ledger: &mut MedLedger, world: &World) -> medledger_core::Result<Vec<PeerId>> {
    let ids = world
        .peers
        .iter()
        .map(|name| ledger.add_peer(name))
        .collect::<medledger_core::Result<Vec<PeerId>>>()?;
    for (peer, name, table) in &world.sources {
        ledger
            .session(ids[*peer])
            .load_source(name, table.clone())?;
    }
    for share in &world.shares {
        let authority = &share.bindings[0];
        let mut session = ledger.session(ids[authority.peer]);
        let mut builder = session
            .share(share.table.clone())
            .bind(authority.source.clone(), authority.lens.clone());
        for b in &share.bindings[1..] {
            builder = builder.with(ids[b.peer], b.source.clone(), b.lens.clone());
        }
        for (attr, writers) in &share.writers {
            let writers: Vec<PeerId> = writers.iter().map(|w| ids[*w]).collect();
            builder = builder.writers(attr.clone(), &writers);
        }
        builder.create()?;
    }
    Ok(ids)
}

/// A deployment serving `plan`, with one connected client per session.
pub struct Live {
    /// The running deployment.
    pub dep: Deployment,
    /// One client per session of the plan.
    pub clients: Vec<GatewayClient>,
    /// Chain statistics as set-up left them (per-commit figures count
    /// from here).
    pub stats: SystemStats,
    /// One-time keys each peer had spent when set-up ended.
    pub keys_spent: Vec<u64>,
}

/// The whole set-up path: build the ledger (key generation), load
/// sources, create shares, start the deployment, connect the sessions.
pub fn setup(plan: &Plan, dir: Option<&Path>, recorder: Recorder) -> medledger_core::Result<Live> {
    let mut ledger = boot(plan, plan.key_capacity, dir)?;
    let ids = populate(&mut ledger, &plan.world)?;
    let stats = ledger.stats();
    let keys_spent = ids
        .iter()
        .map(|id| Ok(plan.key_capacity as u64 - ledger.remaining_keys(*id)?))
        .collect::<medledger_core::Result<Vec<u64>>>()?;
    let cfg = GatewayConfig::default()
        .threads(GATEWAY_THREADS)
        .recorder(recorder);
    let dep = Deployment::start(LedgerService::new(ledger), cfg)?;
    let sessions = plan.stages[0].sessions.len();
    let clients = (0..sessions).map(|_| dep.connect()).collect();
    Ok(Live {
        dep,
        clients,
        stats,
        keys_spent,
    })
}
