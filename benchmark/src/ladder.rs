//! The per-layer ladder: after a traced run, the artifacts it left
//! behind — the generated operations and the view deltas they imply, the
//! committed blocks and transactions — are replayed through each crate's
//! public functions, from outside, and the calls are timed.
//!
//! The rungs `relational.apply_delta` → `bx.put_delta` →
//! `core.commit_us` → `engine.tick_us` → gateway (`commit_p50_ms`) →
//! durable are the ladder of ROADMAP item 1; every other number prices
//! one layer's share of a rung.

use crate::gen::{self, Expect, Op, Plan, Share};
use crate::report::Metrics;
use crate::trace::Trace;
use crate::world;
use medledger_bx::{get_delta, put_delta};
use medledger_consensus::{PbftConfig, PbftRound};
use medledger_contracts::ContractRuntime;
use medledger_core::{MedLedger, PeerBinding, PeerId, PeerNode, PropagationMode, SystemConfig};
use medledger_crypto::{sha256, Hash256, KeyPair, MerkleTree, Prg};
use medledger_engine::LedgerService;
use medledger_ledger::{Block, Chain, SignedTransaction};
use medledger_node::wire::{self, Envelope, Message, WireWrite};
use medledger_relational::{
    delta_from_write_op, diff_tables, ShardMap, Table, TableDelta, WriteOp,
};
use medledger_storage::{Decode, DurableStore, Encode, StorageBackend};
use medledger_telemetry::{Recorder, Registry};
use std::path::Path;
use std::time::Instant;

/// Timed operations each replay rung runs (after the warm-up ones).
pub const LADDER_OPS: usize = 60;
/// Blocks, transactions and frames a micro-rung samples at most.
const SAMPLE: usize = 200;

type Rung = Result<(), String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The operations the replay rungs run: the whole warm-up (so every
/// later operation finds the rows it expects), then the first
/// [`LADDER_OPS`] of the timed window; sessions interleaved round-robin,
/// which preserves each session's own order.
fn replay_ops(plan: &Plan) -> (Vec<&Op>, Vec<&Op>) {
    fn interleave(stage: &gen::Stage) -> Vec<&Op> {
        let longest = stage.sessions.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| stage.sessions.iter().filter_map(move |s| s.get(i)))
            .map(|p| &p.op)
            .collect()
    }
    let mut stages = plan.stages.iter();
    let warmup = stages.next().map(interleave).unwrap_or_default();
    let timed = stages.flat_map(interleave).take(LADDER_OPS).collect();
    (warmup, timed)
}

/// Accumulates `(seconds, units)` pairs into a mean.
#[derive(Default)]
struct Acc {
    secs: f64,
    units: f64,
}

impl Acc {
    fn add(&mut self, secs: f64, units: usize) {
        self.secs += secs;
        self.units += units as f64;
    }

    /// Mean microseconds per unit.
    fn us(&self) -> f64 {
        if self.units == 0.0 {
            0.0
        } else {
            self.secs * 1e6 / self.units
        }
    }
}

/// Everything the ladder needs from the run it follows.
pub struct Artifacts<'a> {
    /// The plan that ran.
    pub plan: &'a Plan,
    /// The service handed back by `Deployment::shutdown`.
    pub service: &'a LedgerService,
    /// A directory on the repo's filesystem for scratch stores.
    pub tmp: &'a Path,
}

/// Runs every rung; returns what went wrong, one line per failed rung.
pub fn run(art: &Artifacts<'_>, trace: &mut Trace, m: &mut Metrics) -> Vec<String> {
    let root = trace.open("ladder", None);
    let mut ctx = Ctx {
        art,
        trace,
        root,
        m,
    };
    let results = [
        ("views", ctx.views()),
        ("facade", ctx.facade()),
        ("engine", ctx.engine()),
        ("ledger", ctx.ledger()),
        ("contracts+consensus", ctx.chain_side()),
        ("storage", ctx.storage()),
        ("crypto", ctx.crypto()),
        ("node", ctx.node()),
        ("telemetry", ctx.telemetry()),
    ];
    let failures = results
        .into_iter()
        .filter_map(|(name, r)| r.err().map(|e| format!("ladder rung `{name}`: {e}")))
        .collect();
    trace.close(root);
    failures
}

struct Ctx<'a, 'b> {
    art: &'a Artifacts<'b>,
    trace: &'a mut Trace,
    root: usize,
    m: &'a mut Metrics,
}

/// The replay model of one share: the view, every binding's source, a
/// shard map of the view, and one sharing peer as a stand-alone node.
struct ShareModel<'w> {
    share: &'w Share,
    view: Table,
    sources: Vec<Table>,
    shards: ShardMap,
    receiver: PeerNode,
    version: u64,
}

impl<'w> ShareModel<'w> {
    fn new(plan: &'w Plan, share: &'w Share) -> Result<Self, String> {
        let world = &plan.world;
        let sources: Vec<Table> = share
            .bindings
            .iter()
            .map(|b| world.source(b.peer, &b.source).clone())
            .collect();
        let view = medledger_bx::exec::get(&share.bindings[0].lens, &sources[0])
            .map_err(err("initial view"))?;
        let b = &share.bindings[1];
        let mut receiver = PeerNode::new(
            world.peers[b.peer].clone(),
            &plan.label,
            4,
            PropagationMode::Delta,
            world.shards,
        );
        receiver
            .add_source_table(&b.source, sources[1].clone())
            .map_err(err("receiver source"))?;
        receiver
            .join_share(
                &share.table,
                PeerBinding {
                    source_table: b.source.clone(),
                    lens: b.lens.clone(),
                },
            )
            .map_err(err("receiver join"))?;
        Ok(ShareModel {
            share,
            shards: ShardMap::from_table(&view, world.shards),
            view,
            sources,
            receiver,
            version: 0,
        })
    }

    /// The view delta `op` implies, and — for a source-side write — the
    /// source delta it started from (already applied to the model).
    fn view_delta(&mut self, op: &Op, get: &mut Acc) -> Result<TableDelta, String> {
        let lead = self
            .share
            .bindings
            .iter()
            .position(|b| b.peer == op.peer)
            .ok_or("submitter does not share the table")?;
        let key_of = {
            let schema = self.view.schema().clone();
            move |r: &medledger_relational::Row| schema.key_of(r)
        };
        let mut composed = TableDelta::default();
        for w in &op.writes {
            let delta = match w {
                WireWrite::Shared(op) => {
                    delta_from_write_op(&self.view, op).map_err(err("view write"))?
                }
                WireWrite::Source { op, .. } => {
                    let source = &mut self.sources[lead];
                    let sd = delta_from_write_op(source, op).map_err(err("source write"))?;
                    let t = Instant::now();
                    let vd = get_delta(&self.share.bindings[lead].lens, source, &sd)
                        .map_err(err("get_delta"))?;
                    get.add(t.elapsed().as_secs_f64(), sd.row_count());
                    source.apply_delta(&sd).map_err(err("source apply"))?;
                    vd
                }
            };
            composed = composed.compose(&delta, &key_of);
        }
        Ok(composed)
    }
}

#[derive(Default)]
struct ViewAccs {
    apply: Acc,
    hash: Acc,
    shard_apply: Acc,
    shard_hash: Acc,
    put: Acc,
    get: Acc,
    remote: Acc,
    bytes: Acc,
}

impl Ctx<'_, '_> {
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.trace.time(name, Some(self.root), f)
    }

    /// `relational.*`, `bx.*` and `core.apply_remote_us`: the view
    /// deltas of the replayed operations through `Table::apply_delta`,
    /// the chunked and the sharded content hash, every sharing peer's
    /// lens, and a stand-alone receiving `PeerNode`.
    fn views(&mut self) -> Rung {
        let plan = self.art.plan;
        let mut models: Vec<ShareModel<'_>> = plan
            .world
            .shares
            .iter()
            .map(|s| ShareModel::new(plan, s))
            .collect::<Result<_, _>>()?;
        let initial: Vec<Table> = models.iter().map(|m| m.view.clone()).collect();
        let (warmup, timed) = replay_ops(plan);
        let mut accs = ViewAccs::default();
        let mut scratch = ViewAccs::default();
        let span = self.trace.open("views.replay", Some(self.root));
        for (op, acc) in warmup
            .iter()
            .map(|op| (op, false))
            .chain(timed.iter().map(|op| (op, true)))
        {
            if op.expect == Expect::Denied {
                continue;
            }
            let model = models
                .iter_mut()
                .find(|m| m.share.table == op.table)
                .ok_or("operation names an unknown share")?;
            replay_on_views(model, op, if acc { &mut accs } else { &mut scratch })?;
        }
        self.trace.close(span);
        let m = &mut *self.m;
        m.set("relational.apply_delta_us_per_row", accs.apply.us());
        m.set("relational.content_hash_us", accs.hash.us());
        m.set("relational.shard_apply_us_per_row", accs.shard_apply.us());
        m.set("relational.shard_hash_us", accs.shard_hash.us());
        m.set(
            "relational.delta_bytes_per_row",
            accs.bytes.secs / accs.bytes.units.max(1.0),
        );
        m.set("bx.put_delta_us_per_row", accs.put.us());
        m.set("bx.get_delta_us_per_row", accs.get.us());
        m.set("core.apply_remote_us", accs.remote.us());

        let mut diff = Acc::default();
        for (before, model) in initial.iter().zip(&models) {
            let (delta, secs) = self.span("relational.diff_tables", || {
                diff_tables(before, &model.view)
            });
            std::hint::black_box(delta);
            diff.add(secs, model.view.len());
        }
        self.m.set("relational.diff_us_per_row", diff.us());
        Ok(())
    }

    /// `core.commit_us` (and `core.flush_us` on the durable workload):
    /// the same operations through the in-process facade `commit`.
    fn facade(&mut self) -> Rung {
        let plan = self.art.plan;
        let in_memory = self.facade_mean("core.commit", None)?;
        self.m.set("core.commit_us", in_memory);
        if plan.durable {
            let dir = self.art.tmp.join("ladder-facade");
            let durable = self.facade_mean("core.commit_durable", Some(&dir))?;
            self.m.set("core.flush_us", (durable - in_memory).max(0.0));
        }
        Ok(())
    }

    fn facade_mean(&mut self, name: &str, dir: Option<&Path>) -> Result<f64, String> {
        let (mut ledger, ids) = replica(self.art.plan, dir)?;
        let (warmup, timed) = replay_ops(self.art.plan);
        for op in warmup {
            let _ = facade_commit(&mut ledger, &ids, op);
        }
        let mut acc = Acc::default();
        for op in timed {
            let (result, secs) = self.span(name, || facade_commit(&mut ledger, &ids, op));
            if result.is_ok() != (op.expect == Expect::Commit) {
                return Err(format!("facade {}: {:?}", op.class, result.err()));
            }
            acc.add(secs, 1);
        }
        ledger.check_consistency().map_err(err("facade replica"))?;
        Ok(acc.us())
    }

    /// `engine.tick_us`: the same operations through
    /// `LedgerService::submit` / `tick` / `take`, one at a time, each
    /// with the cascade waves it triggers.
    fn engine(&mut self) -> Rung {
        let (ledger, ids) = replica(self.art.plan, None)?;
        let mut service = LedgerService::new(ledger);
        let (warmup, timed) = replay_ops(self.art.plan);
        let mut acc = Acc::default();
        for (op, timed) in warmup
            .iter()
            .map(|op| (op, false))
            .chain(timed.iter().map(|op| (op, true)))
        {
            let (result, secs) = self.span("engine.tick", || engine_commit(&mut service, &ids, op));
            if result? != (op.expect == Expect::Commit) {
                return Err(format!("service {}: unexpected outcome", op.class));
            }
            if timed {
                acc.add(secs, 1);
            }
        }
        service
            .ledger()
            .check_consistency()
            .map_err(err("service replica"))?;
        self.m.set("engine.tick_us", acc.us());
        Ok(())
    }

    /// `ledger.validate_block_us` and `ledger.block_bytes`: the wave
    /// blocks re-validated onto a chain rebuilt from genesis.
    fn ledger(&mut self) -> Rung {
        let chain = self.art.service.ledger().chain();
        let blocks = chain.blocks();
        let mut rebuilt = Chain::new(chain.membership().clone(), blocks[0].header.proposer);
        let (mut validate, mut bytes) = (Acc::default(), Acc::default());
        for block in &blocks[1..] {
            let timed = block.header.wave.is_some() && validate.units < SAMPLE as f64;
            let copy = block.clone();
            let (result, secs) = self.span("ledger.validate_block", || {
                let r = rebuilt.validate_block(&copy);
                (r, copy)
            });
            let (valid, copy) = result;
            valid.map_err(err("validate_block"))?;
            rebuilt.append(copy).map_err(err("append"))?;
            if timed {
                validate.add(secs, 1);
                bytes.add(block.encoded_len() as f64, 1);
            }
            if validate.units >= SAMPLE as f64 {
                break;
            }
        }
        self.m.set("ledger.validate_block_us", validate.us());
        self.m
            .set("ledger.block_bytes", bytes.secs / bytes.units.max(1.0));
        Ok(())
    }

    /// `contracts.*` and `consensus.round_*`: every committed
    /// transaction through a fresh `ContractRuntime`, and the wave
    /// blocks through one `PbftRound` each.
    fn chain_side(&mut self) -> Rung {
        let blocks = self.art.service.ledger().chain().blocks();
        let mut runtime = ContractRuntime::new();
        let mut execute = Acc::default();
        for block in blocks {
            let timed = block.header.wave.is_some() && execute.units < SAMPLE as f64;
            for stx in &block.txs {
                let t = Instant::now();
                let receipt = runtime.execute(stx, block.header.height, block.header.timestamp_ms);
                if timed {
                    execute.add(t.elapsed().as_secs_f64(), 1);
                }
                std::hint::black_box(receipt);
            }
        }
        self.m.set("contracts.execute_us", execute.us());
        let mut root = Acc::default();
        for _ in 0..8 {
            let (h, secs) = self.span("contracts.state_root", || runtime.state_root());
            std::hint::black_box(h);
            root.add(secs, 1);
        }
        self.m.set("contracts.state_root_us", root.us());

        let defaults = SystemConfig::default();
        let (mut round, mut virtual_ms) = (Acc::default(), Acc::default());
        for block in blocks
            .iter()
            .filter(|b| b.header.wave.is_some())
            .take(SAMPLE)
        {
            let payload: usize = block.txs.iter().map(SignedTransaction::encoded_len).sum();
            let pbft = PbftRound::new(PbftConfig {
                n: defaults.n_validators,
                latency: defaults.validator_latency.clone(),
                drop_rate: 0.0,
                timeout_ms: 2_000,
                seed: format!("{}-pbft", self.art.plan.label),
            })
            .payload_bytes(payload.max(64));
            let digest = Block::tx_root(&block.txs);
            let (out, secs) = self.span("consensus.round", || {
                pbft.run(block.header.height, digest, 3_600_000)
            });
            round.add(secs, 1);
            virtual_ms.add(out.all_commit_ms.unwrap_or(0) as f64, 1);
        }
        self.m.set("consensus.round_us", round.us());
        self.m.set(
            "consensus.round_virtual_ms",
            virtual_ms.secs / virtual_ms.units.max(1.0),
        );
        Ok(())
    }

    /// `storage.*` timings: the committed blocks appended to, synced on
    /// and read back from a scratch `DurableStore` on the same
    /// filesystem, a shared table written as a snapshot, and the codec
    /// over both.
    fn storage(&mut self) -> Rung {
        let ledger = self.art.service.ledger();
        let blocks: Vec<&Block> = ledger
            .chain()
            .blocks()
            .iter()
            .filter(|b| b.header.wave.is_some())
            .take(SAMPLE)
            .collect();
        let (encoded, secs) = self.span("storage.encode", || {
            blocks.iter().map(|b| b.encoded()).collect::<Vec<Vec<u8>>>()
        });
        let total: usize = encoded.iter().map(Vec::len).sum();
        self.m
            .set("storage.encode_mb_per_s", total as f64 / 1e6 / secs);
        let (decoded, secs) = self.span("storage.decode", || {
            encoded
                .iter()
                .map(|b| Block::decode(b).is_ok())
                .filter(|ok| *ok)
                .count()
        });
        if decoded != encoded.len() {
            return Err("a committed block failed to decode".into());
        }
        self.m
            .set("storage.decode_mb_per_s", total as f64 / 1e6 / secs);

        let dir = self.art.tmp.join("ladder-store");
        let mut store = DurableStore::open(&dir).map_err(err("open"))?;
        let (mut append, mut sync) = (Acc::default(), Acc::default());
        for payload in &encoded {
            let (r, secs) = self.span("storage.append", || store.append("chain", payload));
            r.map_err(err("append"))?;
            append.add(secs, 1);
            let (r, secs) = self.span("storage.sync", || store.sync());
            r.map_err(err("sync"))?;
            sync.add(secs, 1);
        }
        self.m.set("storage.append_us", append.us());
        self.m.set("storage.sync_us", sync.us());

        let share = &self.art.plan.world.shares[0];
        let name = &self.art.plan.world.peers[share.bindings[0].peer];
        let table = ledger
            .peer_id(name)
            .and_then(|id| ledger.reader(id).read(&share.table))
            .map_err(err("read share"))?
            .encoded();
        let mut snapshot = Acc::default();
        for id in 1..=4 {
            let (r, secs) = self.span("storage.snapshot_write", || {
                store.write_snapshot(id, &table)
            });
            r.map_err(err("snapshot"))?;
            snapshot.add(secs, 1);
        }
        self.m.set("storage.snapshot_write_us", snapshot.us());

        let (read, secs) = self.span("storage.read", || store.read_from("chain", 0));
        let read: usize = read.map_err(err("read"))?.iter().map(Vec::len).sum();
        self.m
            .set("storage.read_mb_per_s", read as f64 / 1e6 / secs);
        drop(store);
        std::fs::remove_dir_all(&dir).map_err(err("clean up"))
    }

    /// `crypto.*`: Lamport keygen, sign and verify over the digests of
    /// committed transactions, SHA-256 bulk rate, Merkle root.
    fn crypto(&mut self) -> Rung {
        let messages: Vec<Hash256> = self
            .art
            .service
            .ledger()
            .chain()
            .blocks()
            .iter()
            .filter(|b| b.header.wave.is_some())
            .flat_map(|b| &b.txs)
            .take(64)
            .map(|stx| stx.tx.digest())
            .collect();
        const KEYS: usize = 64;
        let (mut keys, secs) = self.span("crypto.keygen", || {
            KeyPair::generate("medbench-ladder", KEYS)
        });
        self.m
            .set("crypto.keygen_us_per_key", secs * 1e6 / KEYS as f64);
        let (mut sign, mut verify) = (Acc::default(), Acc::default());
        for msg in &messages {
            let (sig, secs) = self.span("crypto.sign", || keys.sign(msg.as_bytes()));
            let sig = sig.map_err(err("sign"))?;
            sign.add(secs, 1);
            let public = keys.public();
            let (ok, secs) = self.span("crypto.verify", || sig.verify(&public, msg.as_bytes()));
            if !ok {
                return Err("a fresh signature failed to verify".into());
            }
            verify.add(secs, 1);
        }
        self.m.set("crypto.sign_us", sign.us());
        self.m.set("crypto.verify_us", verify.us());

        let buffer = vec![0xa5u8; 4 << 20];
        let (h, secs) = self.span("crypto.sha256", || sha256(&buffer));
        std::hint::black_box(h);
        self.m
            .set("crypto.sha256_mb_per_s", buffer.len() as f64 / 1e6 / secs);

        let mut prg = Prg::from_label("medbench-ladder-leaves");
        let leaves: Vec<Hash256> = (0..4096).map(|_| prg.next_hash()).collect();
        let n = leaves.len();
        let (root, secs) = self.span("crypto.merkle_root", || {
            MerkleTree::from_leaves(leaves).root()
        });
        std::hint::black_box(root);
        self.m
            .set("crypto.merkle_root_us_per_leaf", secs * 1e6 / n as f64);
        Ok(())
    }

    /// `node.wire_*`, `node.pipe_rtt_us`, `network.fanout_dispatch_us`:
    /// the `Submit` frames of the run through the frame codec, a small
    /// frame bounced off an echo task over a wire pipe, and no-op jobs
    /// through the fan-out pool at the workload's receiver count.
    fn node(&mut self) -> Rung {
        let world = &self.art.plan.world;
        let frames: Vec<Envelope> = self
            .art
            .plan
            .ops()
            .skip(gen::WARMUP_OPS)
            .take(SAMPLE)
            .map(|p| gen::submit_frame(world, &p.op))
            .collect();
        let (encoded, secs) = self.span("node.wire_encode", || {
            frames.iter().map(Envelope::encoded).collect::<Vec<_>>()
        });
        self.m
            .set("node.wire_encode_us", secs * 1e6 / frames.len() as f64);
        let (decoded, secs) = self.span("node.wire_decode", || {
            encoded
                .iter()
                .filter(|b| Envelope::from_frame(b).is_ok())
                .count()
        });
        if decoded != frames.len() {
            return Err("a Submit frame failed to decode".into());
        }
        self.m
            .set("node.wire_decode_us", secs * 1e6 / frames.len() as f64);

        const PINGS: usize = 2000;
        let rt = medledger_node::Runtime::new(world::GATEWAY_THREADS);
        let (mut near, mut far) = wire::duplex(wire::DEFAULT_PIPE_CAPACITY);
        rt.spawn(async move {
            while let Ok(Some(env)) = far.recv().await {
                if far.send(&env).await.is_err() {
                    break;
                }
            }
        });
        let ping = Envelope {
            corr: 1,
            body: Message::Pending { ticket: 1 },
        };
        let (ok, secs) = self.span("node.pipe_rtt", || {
            rt.block_on(async {
                for _ in 0..PINGS {
                    if near.send(&ping).await.is_err() || !matches!(near.recv().await, Ok(Some(_)))
                    {
                        return false;
                    }
                }
                true
            })
        });
        near.close();
        rt.shutdown();
        if !ok {
            return Err("the echo task hung up".into());
        }
        self.m.set("node.pipe_rtt_us", secs * 1e6 / PINGS as f64);

        let receivers = world
            .shares
            .iter()
            .map(|s| s.bindings.len() - 1)
            .max()
            .unwrap_or(1);
        const ROUNDS: usize = 200;
        let ((), secs) = self.span("network.fanout_dispatch", || {
            for _ in 0..ROUNDS {
                let done = medledger_network::fanout::run_partitioned(
                    vec![(); receivers],
                    receivers,
                    |()| (),
                );
                std::hint::black_box(done);
            }
        });
        self.m
            .set("network.fanout_dispatch_us", secs * 1e6 / ROUNDS as f64);
        Ok(())
    }

    /// `telemetry.record_ns`: one histogram observation through an
    /// installed recorder's pre-resolved handle.
    fn telemetry(&mut self) -> Rung {
        const N: u64 = 1_000_000;
        let registry = Registry::shared();
        let probe = Recorder::new(&registry).histogram("medbench.probe");
        let ((), secs) = self.span("telemetry.record", || {
            for v in 0..N {
                probe.record(std::hint::black_box(v));
            }
        });
        self.m.set("telemetry.record_ns", secs * 1e9 / N as f64);
        Ok(())
    }
}

fn replay_on_views(model: &mut ShareModel<'_>, op: &Op, a: &mut ViewAccs) -> Rung {
    let delta = model.view_delta(op, &mut a.get)?;
    let rows = delta.row_count();
    if rows == 0 {
        return Err(format!("{} implies no view change", op.class));
    }
    a.bytes.add(delta.encoded_size() as f64, rows);

    let t = Instant::now();
    model.view.apply_delta(&delta).map_err(err("apply_delta"))?;
    a.apply.add(t.elapsed().as_secs_f64(), rows);
    let t = Instant::now();
    let hash = model.view.content_hash();
    a.hash.add(t.elapsed().as_secs_f64(), 1);

    let t = Instant::now();
    model
        .shards
        .apply_delta(&delta)
        .map_err(err("shard apply"))?;
    a.shard_apply.add(t.elapsed().as_secs_f64(), rows);
    let t = Instant::now();
    let shard_hash = model.shards.content_hash();
    a.shard_hash.add(t.elapsed().as_secs_f64(), 1);
    if shard_hash != hash {
        return Err("shard fold disagrees with the table digest".into());
    }

    // Every binding's source follows the view; a source-side write was
    // already applied to the submitter's own source.
    let wrote_source = op
        .writes
        .iter()
        .any(|w| matches!(w, WireWrite::Source { .. }));
    for (b, source) in model.share.bindings.iter().zip(&mut model.sources) {
        if b.peer == op.peer && wrote_source {
            continue;
        }
        let t = Instant::now();
        let sd = put_delta(&b.lens, source, &delta).map_err(err("put_delta"))?;
        if b.peer != op.peer {
            a.put.add(t.elapsed().as_secs_f64(), rows);
            if !wrote_source {
                // Forward again, so every workload prices `get_delta`
                // on its own lens shapes.
                let t = Instant::now();
                let back = get_delta(&b.lens, source, &sd).map_err(err("get_delta"))?;
                a.get.add(t.elapsed().as_secs_f64(), sd.row_count());
                std::hint::black_box(back);
            }
        }
        source.apply_delta(&sd).map_err(err("source follow"))?;
    }

    model.version += 1;
    let table = &model.share.table;
    let sd = model
        .receiver
        .translate_remote_delta(table, &delta)
        .map_err(err("translate_remote_delta"))?;
    let t = Instant::now();
    model
        .receiver
        .apply_remote_delta(table, &delta, &sd, hash, model.version)
        .map_err(err("apply_remote_delta"))?;
    a.remote.add(t.elapsed().as_secs_f64(), 1);
    Ok(())
}

/// A populated ledger sized for the replayed operations only.
fn replica(plan: &Plan, dir: Option<&Path>) -> Result<(MedLedger, Vec<PeerId>), String> {
    let (warmup, timed) = replay_ops(plan);
    let predicted = gen::predict_keys(&plan.world, warmup.into_iter().chain(timed));
    let mut ledger = world::boot(plan, gen::key_capacity(&predicted), dir).map_err(err("boot"))?;
    let ids = world::populate(&mut ledger, &plan.world).map_err(err("populate"))?;
    Ok((ledger, ids))
}

fn facade_commit(ledger: &mut MedLedger, ids: &[PeerId], op: &Op) -> Result<(), String> {
    let mut session = ledger.session(ids[op.peer]);
    let mut batch = session.begin(op.table.clone());
    for w in &op.writes {
        batch = match w.clone() {
            WireWrite::Shared(WriteOp::Update { key, assignments }) => {
                batch.update(key, assignments)
            }
            WireWrite::Shared(WriteOp::Insert { row }) => batch.insert(row),
            WireWrite::Shared(WriteOp::Delete { key }) => batch.delete(key),
            WireWrite::Source {
                table,
                op: WriteOp::Update { key, assignments },
            } => batch.update_source(table, key, assignments),
            other => unreachable!("the generator emits no {other:?}"),
        };
    }
    batch.commit().map(|_| ()).map_err(|e| e.to_string())
}

/// Submits `op`, runs waves until it and its cascades are through, and
/// says whether it committed.
fn engine_commit(service: &mut LedgerService, ids: &[PeerId], op: &Op) -> Result<bool, String> {
    let mut submission = service.submit(ids[op.peer], op.table.clone());
    for w in &op.writes {
        submission = match w.clone() {
            WireWrite::Shared(op) => submission.write(op),
            WireWrite::Source { table, op } => submission.write_source(table, op),
        };
    }
    let ticket = submission.submit().map_err(err("submit"))?;
    let committed = service.wait(ticket).is_ok();
    service.drain().map_err(err("drain"))?;
    Ok(committed)
}
