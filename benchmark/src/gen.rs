//! The seeded generator: worlds, operation lists, arrival schedules and
//! the key-budget plan.
//!
//! Everything here is a pure function of `(workload, seed, scale)`. The
//! program under test only ever sees what this module produced: the
//! source tables and shares of a [`World`], and the `Submit` frames of
//! the [`Op`]s. Expected outcomes are decided here, before anything
//! runs, from a model of the state the operations leave behind; the
//! operations of two sessions never touch the same row, so the
//! expectation does not depend on how the sessions interleave.

use medledger_bx::LensSpec;
use medledger_crypto::Prg;
use medledger_node::wire::{Envelope, Message, WireWrite};
use medledger_relational::{
    CmpOp, Column, Predicate, Row, Schema, Table, Value, ValueType, WriteOp,
};
use medledger_workload::{EhrGenerator, UpdateKind, UpdateStream};
use std::collections::{BTreeMap, VecDeque};

/// Operations run before the timed window of every workload, untimed.
pub const WARMUP_OPS: usize = 50;

/// `--seconds` value at which every workload runs at its catalogue size
/// (`scale == 1.0`); other values scale operation counts and stage
/// durations linearly.
pub const NOMINAL_SECONDS: f64 = 5.0;

/// Rows of every shared table.
pub const TABLE_ROWS: usize = 1024;
/// Hot rows of the ward hotspot stream.
pub const HOT_ROWS: usize = 64;
/// Client sessions of `ward_paced`. Sessions that keep one operation
/// outstanding on the same table settle, run by run, into one of two
/// ways of sharing the waves — all of them in every wave, or two groups
/// on alternate waves — and the two differ by one wave's fixed cost per
/// round: with four sessions the overloaded top stage served ≈690/s or
/// ≈525/s, half the runs each (and two or four closed-loop sessions on
/// `ward_durable` were bimodal the same way). With 32 sessions the
/// fixed cost is spread over so many members that the two ways are
/// within 5 % of each other, and only the second was ever observed.
pub const PACED_SESSIONS: usize = 32;
/// `ward_durable` and `wide_batch` run one closed-loop session, so every
/// wave carries exactly one submission and the figures repeat;
/// `clinic_mixed`, whose two sessions work on different tables, keeps
/// two.
pub const SOLO_SESSIONS: usize = 1;
/// Open-loop stage rates of `ward_paced` (operations per second over all
/// sessions): ≈30 % and ≈60 % of what one commit per wave sustains on
/// the seed commit (≈330/s) — ≈11 % and ≈22 % of the saturated
/// 32-session capacity (≈900/s) — then ≈2.7 × that capacity, so the top
/// stage is overloaded from its first wave; frozen.
pub const PACED_RATES: [u32; 3] = [100, 200, 2400];
/// Stage durations of `ward_paced` at scale 1 (seconds of arrivals; the
/// top stage takes about three times as long to drain). The lowest
/// stage is the longest because the latency figures are taken there.
pub const PACED_SECS: [f64; 3] = [5.0, 3.0, 0.45];
/// Latency limit a `ward_paced` stage must meet at p95 to count as
/// sustained (milliseconds).
pub const PACED_P95_LIMIT_MS: f64 = 15.0;
/// Timed commits of `ward_durable` at scale 1.
pub const DURABLE_OPS: usize = 1000;
/// Timed commits of `wide_batch` at scale 1.
pub const WIDE_OPS: usize = 450;
/// Columns of the `wide_batch` table (SNIPPETS.md §1 record width).
pub const WIDE_COLS: usize = 152;
/// Rows and columns one `wide_batch` submission updates.
pub const WIDE_BATCH: (usize, usize) = (8, 4);
/// Timed operations of `clinic_mixed` at scale 1.
pub const CLINIC_OPS: usize = 900;
/// `clinic_mixed` operation classes and their shares of the mix.
pub const CLINIC_MIX: [(&str, f64); 8] = [
    ("doctor_dosage", 0.35),
    ("portal_clinical", 0.20),
    ("portal_source", 0.10),
    ("researcher_source", 0.10),
    ("insert", 0.10),
    ("delete", 0.07),
    ("rename", 0.04),
    ("denied", 0.04),
];
/// A row inserted by `clinic_mixed` is deleted no sooner than this many
/// operations of its session later, so the insert's Step-6 cascade has
/// committed (each operation takes at least one wave).
const DELETE_MIN_AGE: usize = 16;
/// Keys every peer may spend outside the planned operations (share
/// registration at set-up).
const KEY_SLACK: u64 = 8;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, three fixed rates, in memory.
    WardPaced,
    /// Closed loop on a directory-backed store, then copy-and-recover.
    WardDurable,
    /// Closed loop, one session, fat deltas on a 152-column table.
    WideBatch,
    /// Closed loop, eight operation classes over four peers.
    ClinicMixed,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::WardPaced,
        Workload::WardDurable,
        Workload::WideBatch,
        Workload::ClinicMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WardPaced => "ward_paced",
            Workload::WardDurable => "ward_durable",
            Workload::WideBatch => "wide_batch",
            Workload::ClinicMixed => "clinic_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The outcome the generator expects of an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The submission commits.
    Commit,
    /// The contract denies it and the submitter is rolled back alone.
    Denied,
}

/// One submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Submitting peer (index into [`World::peers`]).
    pub peer: usize,
    /// Target shared table.
    pub table: String,
    /// The staged writes of the one `Submit` frame.
    pub writes: Vec<WireWrite>,
    /// What must come back.
    pub expect: Expect,
    /// Operation class (for the per-class report).
    pub class: &'static str,
    /// The share the commit triggers a Step-6 cascade wave into.
    pub cascades: Option<&'static str>,
}

/// An operation with its place in the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// The submission.
    pub op: Op,
    /// Open loop: microseconds after the stage start at which it is due.
    pub due_us: Option<u64>,
}

/// One stage of a run; stages run one after the other, each drained
/// before the next starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// `warmup`, `timed`, or `rate<N>` for an open-loop stage.
    pub label: String,
    /// Open-loop arrival rate (operations per second over all sessions).
    pub rate: Option<u32>,
    /// Whether the stage belongs to the timed window.
    pub timed: bool,
    /// Per-session operation lists.
    pub sessions: Vec<Vec<Planned>>,
}

/// One peer's binding of a share.
#[derive(Clone, Debug)]
pub struct Binding {
    /// Index into [`World::peers`].
    pub peer: usize,
    /// The peer-local source table.
    pub source: String,
    /// Source → shared view.
    pub lens: LensSpec,
}

/// One sharing agreement; the first binding is the authority's.
#[derive(Clone, Debug)]
pub struct Share {
    /// Shared table id.
    pub table: String,
    /// Every sharing peer's binding.
    pub bindings: Vec<Binding>,
    /// The Fig. 3 permission row.
    pub writers: Vec<(String, Vec<usize>)>,
}

/// Everything set-up loads into a fresh ledger.
#[derive(Clone, Debug)]
pub struct World {
    /// Peer names, in registration order.
    pub peers: Vec<String>,
    /// `(peer, source table name, contents)`.
    pub sources: Vec<(usize, String, Table)>,
    /// The sharing agreements.
    pub shares: Vec<Share>,
    /// `shards_per_table` (1 everywhere but `wide_batch`).
    pub shards: usize,
}

impl World {
    /// The share with id `table`.
    pub fn share(&self, table: &str) -> &Share {
        self.shares
            .iter()
            .find(|s| s.table == table)
            .expect("operations only name generated shares")
    }

    /// A source table by owner and name.
    pub fn source(&self, peer: usize, name: &str) -> &Table {
        self.sources
            .iter()
            .find(|(p, n, _)| *p == peer && n == name)
            .map(|(_, _, t)| t)
            .expect("bindings only name generated sources")
    }
}

/// A complete, runnable plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Deployment seed (`SystemConfig::seed`), derived from `--seed`.
    pub label: String,
    /// Tables, peers and shares.
    pub world: World,
    /// Warm-up first, then the timed stage(s).
    pub stages: Vec<Stage>,
    /// Whether the deployment runs on a directory-backed store.
    pub durable: bool,
    /// One-time keys each peer is predicted to spend (upper bound).
    pub predicted_keys: Vec<u64>,
    /// `peer_key_capacity`: the next power of two above the prediction.
    pub key_capacity: usize,
}

impl Plan {
    /// Every planned operation, stage by stage, session by session.
    pub fn ops(&self) -> impl Iterator<Item = &Planned> {
        self.stages.iter().flat_map(|s| s.sessions.iter().flatten())
    }

    /// A byte string that is identical iff the operation list, the
    /// session assignment and the arrival schedule are.
    #[cfg(test)]
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for stage in &self.stages {
            out.extend(stage.label.as_bytes());
            for (s, session) in stage.sessions.iter().enumerate() {
                for p in session {
                    out.extend((s as u64).to_be_bytes());
                    out.extend(p.due_us.unwrap_or(u64::MAX).to_be_bytes());
                    out.push(u8::from(p.op.expect == Expect::Commit));
                    out.extend(submit_frame(&self.world, &p.op).encoded());
                }
            }
        }
        out
    }
}

/// The `Submit` frame of an operation as the client puts it on the wire.
pub fn submit_frame(world: &World, op: &Op) -> Envelope {
    Envelope {
        corr: 0,
        body: Message::Submit {
            peer: world.peers[op.peer].clone(),
            table: op.table.clone(),
            writes: op.writes.clone(),
        },
    }
}

/// Builds the plan of `workload` for `seed` at `scale` (1.0 = the
/// catalogue size, i.e. `--seconds` = [`NOMINAL_SECONDS`]).
pub fn plan(workload: Workload, seed: u64, scale: f64) -> Plan {
    let label = format!("medbench-{}-{seed}", workload.name());
    let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
    let (world, stages) = match workload {
        Workload::WardPaced => {
            let world = ward_world(&label);
            let mut stream = ward_stream(&label);
            let mut stages = vec![closed_stage(
                "warmup",
                false,
                PACED_SESSIONS,
                &mut stream,
                WARMUP_OPS,
            )];
            let mut jitter = Prg::from_label(&format!("{label}-arrivals"));
            for (rate, secs) in PACED_RATES.into_iter().zip(PACED_SECS) {
                let n = ((f64::from(rate) * secs * scale).round() as usize).max(1);
                stages.push(open_stage(
                    rate,
                    PACED_SESSIONS,
                    &mut stream,
                    n,
                    &mut jitter,
                ));
            }
            (world, stages)
        }
        Workload::WardDurable => {
            let world = ward_world(&label);
            let mut stream = ward_stream(&label);
            let stages = vec![
                closed_stage("warmup", false, SOLO_SESSIONS, &mut stream, WARMUP_OPS),
                closed_stage(
                    "timed",
                    true,
                    SOLO_SESSIONS,
                    &mut stream,
                    scaled(DURABLE_OPS),
                ),
            ];
            (world, stages)
        }
        Workload::WideBatch => {
            let world = wide_world(&label);
            let mut stream = wide_stream(&label);
            let stages = vec![
                closed_stage("warmup", false, SOLO_SESSIONS, &mut stream, WARMUP_OPS),
                closed_stage("timed", true, SOLO_SESSIONS, &mut stream, scaled(WIDE_OPS)),
            ];
            (world, stages)
        }
        Workload::ClinicMixed => {
            let (world, mut model) = clinic_world(&label);
            let warmup = model.stage("warmup", false, WARMUP_OPS);
            let timed = model.stage("timed", true, scaled(CLINIC_OPS));
            (world, vec![warmup, timed])
        }
    };
    let all_ops = stages.iter().flat_map(|s| s.sessions.iter().flatten());
    let predicted_keys = predict_keys(&world, all_ops.map(|p| &p.op));
    let key_capacity = key_capacity(&predicted_keys);
    Plan {
        workload,
        label,
        world,
        stages,
        durable: workload == Workload::WardDurable,
        predicted_keys,
        key_capacity,
    }
}

/// Upper bound on the one-time keys each peer spends on `ops`: a
/// committing submitter signs its request and the aggregated ack (2),
/// every other sharing peer signs one ack share (1); a denied submitter
/// signs only the request; a cascade is one more wave on the cascaded
/// share, led by the peer that led the parent.
pub fn predict_keys<'a>(world: &World, ops: impl Iterator<Item = &'a Op>) -> Vec<u64> {
    let mut keys = vec![KEY_SLACK; world.peers.len()];
    let wave = |keys: &mut [u64], lead: usize, table: &str| {
        for b in &world.share(table).bindings {
            keys[b.peer] += if b.peer == lead { 2 } else { 1 };
        }
    };
    for op in ops {
        match op.expect {
            Expect::Commit => {
                wave(&mut keys, op.peer, &op.table);
                if let Some(cascaded) = op.cascades {
                    wave(&mut keys, op.peer, cascaded);
                }
            }
            Expect::Denied => keys[op.peer] += 1,
        }
    }
    keys
}

/// `peer_key_capacity` for a prediction: every peer gets the same
/// capacity, and the signer rounds it up to a power of two anyway.
pub fn key_capacity(predicted: &[u64]) -> usize {
    predicted
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .next_power_of_two() as usize
}

/// A source of operations for the stage builders.
trait OpStream {
    fn next_op(&mut self) -> Op;
}

fn closed_stage(
    label: &str,
    timed: bool,
    sessions: usize,
    stream: &mut dyn OpStream,
    n: usize,
) -> Stage {
    let mut lists = vec![Vec::new(); sessions];
    for i in 0..n {
        lists[i % sessions].push(Planned {
            op: stream.next_op(),
            due_us: None,
        });
    }
    Stage {
        label: label.into(),
        rate: None,
        timed,
        sessions: lists,
    }
}

/// A fixed-rate stage: operation `i` is due at `(i + j)/rate` with a
/// seeded jitter `j` in `[0, 0.5)`, assigned round-robin to the sessions.
fn open_stage(
    rate: u32,
    sessions: usize,
    stream: &mut dyn OpStream,
    n: usize,
    jitter: &mut Prg,
) -> Stage {
    let mut lists = vec![Vec::new(); sessions];
    for i in 0..n {
        let slot = i as f64 + jitter.next_f64() * 0.5;
        lists[i % sessions].push(Planned {
            op: stream.next_op(),
            due_us: Some((slot * 1e6 / f64::from(rate)) as u64),
        });
    }
    Stage {
        label: format!("rate{rate}"),
        rate: Some(rate),
        timed: true,
        sessions: lists,
    }
}

// ---------------------------------------------------------------------
// ward_paced / ward_durable
// ---------------------------------------------------------------------

const WARD: &str = "ward";
const WARD_ATTRS: [&str; 4] = ["patient_id", "medication_name", "clinical_data", "dosage"];
const DOCTOR: usize = 0;

fn int_key(pid: i64) -> Vec<Value> {
    vec![Value::Int(pid)]
}

fn set_cell(key: Vec<Value>, attr: &str, value: Value) -> WriteOp {
    WriteOp::Update {
        key,
        assignments: vec![(attr.into(), value)],
    }
}

/// The doctor's source table D3 (Fig. 1): a0, a1, a2, a3, a4 of the full
/// records.
fn doctor_source(full: &Table) -> Table {
    full.project(
        &[
            "patient_id",
            "medication_name",
            "clinical_data",
            "mechanism_of_action",
            "dosage",
        ],
        &["patient_id"],
    )
    .expect("D3 projection")
}

/// Doctor + Patient sharing the Fig. 1 slice a0, a1, a2, a4 of a
/// 1 024-row ward.
fn ward_world(label: &str) -> World {
    let full = EhrGenerator::new(label).full_records(TABLE_ROWS);
    let d3 = doctor_source(&full);
    let p1 = full
        .project(&WARD_ATTRS, &["patient_id"])
        .expect("P1 projection");
    World {
        peers: vec!["Doctor".into(), "Patient".into()],
        sources: vec![(DOCTOR, "D3".into(), d3), (1, "P1".into(), p1)],
        shares: vec![Share {
            table: WARD.into(),
            bindings: vec![
                Binding {
                    peer: DOCTOR,
                    source: "D3".into(),
                    lens: LensSpec::project_with_defaults(
                        &WARD_ATTRS,
                        &["patient_id"],
                        &[("mechanism_of_action", Value::text("unknown"))],
                    ),
                },
                Binding {
                    peer: 1,
                    source: "P1".into(),
                    lens: LensSpec::project(&WARD_ATTRS, &["patient_id"]),
                },
            ],
            writers: vec![
                ("patient_id".into(), vec![DOCTOR]),
                ("medication_name".into(), vec![DOCTOR]),
                ("dosage".into(), vec![DOCTOR]),
                ("clinical_data".into(), vec![DOCTOR, 1]),
            ],
        }],
        shards: 1,
    }
}

/// The seeded hotspot stream: 70 % doctor `dosage`, 30 % patient
/// `clinical_data`, one cell per submission.
struct WardStream(UpdateStream);

fn ward_stream(label: &str) -> WardStream {
    let ids = (0..TABLE_ROWS as i64).map(|i| 1000 + i).collect();
    WardStream(UpdateStream::hotspot(label, ids, HOT_ROWS))
}

impl OpStream for WardStream {
    fn next_op(&mut self) -> Op {
        let u = self.0.next_update();
        let (peer, attr, class) = match u.kind {
            UpdateKind::Dosage => (DOCTOR, "dosage", "doctor_dosage"),
            _ => (1, "clinical_data", "patient_clinical"),
        };
        Op {
            peer,
            table: WARD.into(),
            writes: vec![WireWrite::Shared(set_cell(
                vec![u.target],
                attr,
                u.new_value,
            ))],
            expect: Expect::Commit,
            class,
            cascades: None,
        }
    }
}

// ---------------------------------------------------------------------
// wide_batch
// ---------------------------------------------------------------------

const WIDE: &str = "wide";

fn wide_attr(i: usize) -> String {
    format!("f{i:03}")
}

fn hex_cell(prg: &mut Prg) -> Value {
    Value::text(format!("{:016x}{:016x}", prg.next_u64(), prg.next_u64()))
}

/// Hub + two receivers sharing one 1 024-row × 152-column table of
/// 32-hex-character cells, identity-shaped lenses, four shards.
fn wide_world(label: &str) -> World {
    let mut columns = vec![Column::new("patient_id", ValueType::Int)];
    columns.extend((1..WIDE_COLS).map(|i| Column::new(wide_attr(i), ValueType::Text)));
    let schema = Schema::new(columns, &["patient_id"]).expect("wide schema");
    let mut prg = Prg::from_label(&format!("{label}-table"));
    let mut table = Table::new(schema);
    for pid in 0..TABLE_ROWS as i64 {
        let mut cells = vec![Value::Int(pid)];
        cells.extend((1..WIDE_COLS).map(|_| hex_cell(&mut prg)));
        table.insert(Row::new(cells)).expect("wide row");
    }
    let attrs: Vec<String> = std::iter::once("patient_id".to_string())
        .chain((1..WIDE_COLS).map(wide_attr))
        .collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let lens = LensSpec::project(&attr_refs, &["patient_id"]);
    let peers = vec!["Hub".to_string(), "R0".to_string(), "R1".to_string()];
    World {
        sources: (0..peers.len())
            .map(|p| (p, "records".to_string(), table.clone()))
            .collect(),
        shares: vec![Share {
            table: WIDE.into(),
            bindings: (0..peers.len())
                .map(|peer| Binding {
                    peer,
                    source: "records".into(),
                    lens: lens.clone(),
                })
                .collect(),
            writers: attrs.into_iter().map(|a| (a, vec![0])).collect(),
        }],
        peers,
        shards: 4,
    }
}

struct WideStream(Prg);

fn wide_stream(label: &str) -> WideStream {
    WideStream(Prg::from_label(&format!("{label}-ops")))
}

/// `k` distinct values below `n`, in draw order.
fn distinct(prg: &mut Prg, k: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let x = prg.next_below(n as u64) as usize;
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

impl OpStream for WideStream {
    fn next_op(&mut self) -> Op {
        let prg = &mut self.0;
        let writes = distinct(prg, WIDE_BATCH.0, TABLE_ROWS)
            .into_iter()
            .map(|row| {
                let assignments = distinct(prg, WIDE_BATCH.1, WIDE_COLS - 1)
                    .into_iter()
                    .map(|c| (wide_attr(c + 1), hex_cell(prg)))
                    .collect();
                WireWrite::Shared(WriteOp::Update {
                    key: int_key(row as i64),
                    assignments,
                })
            })
            .collect();
        Op {
            peer: 0,
            table: WIDE.into(),
            writes,
            expect: Expect::Commit,
            class: "hub_batch",
            cascades: None,
        }
    }
}

// ---------------------------------------------------------------------
// clinic_mixed
// ---------------------------------------------------------------------

/// The Researcher ↔ Doctor share of `clinic_mixed`.
const CLINIC_RESEARCH: &str = "research";
const RESEARCHER: usize = 3;
/// First patient id of ward 1; ward 0 holds `[1, WARD_SPLIT)`.
const WARD_SPLIT: i64 = 1000 + (TABLE_ROWS / 2) as i64;

fn ward_table(k: usize) -> String {
    format!("ward-{k}")
}

fn ward_range(k: usize) -> Predicate {
    let ge = |v| Predicate::cmp("patient_id", CmpOp::Ge, Value::Int(v));
    if k == 0 {
        ge(1).and(Predicate::cmp(
            "patient_id",
            CmpOp::Lt,
            Value::Int(WARD_SPLIT),
        ))
    } else {
        ge(WARD_SPLIT)
    }
}

/// Generator-side model of one ward: which rows exist, which were
/// renamed, and which were inserted when.
struct WardModel {
    initial: Vec<i64>,
    /// Current medication of every initial row.
    medication: BTreeMap<i64, String>,
    /// `(pid, session operation count at insertion)`, oldest first.
    inserted: VecDeque<(i64, usize)>,
    next_pid: i64,
    ops: usize,
    dosage: UpdateStream,
    clinical: UpdateStream,
}

struct ClinicModel {
    prg: Prg,
    wards: [WardModel; 2],
    /// Rows of the doctor's source per base medication; a rename never
    /// takes the last one, so the Researcher's rows never disappear
    /// under its own updates.
    med_rows: BTreeMap<String, usize>,
    mechanism: UpdateStream,
    ehr: EhrGenerator,
    renames: usize,
    researcher_ops: usize,
}

/// Doctor (1 024-row D3), two ward portals and a Researcher.
fn clinic_world(label: &str) -> (World, ClinicModel) {
    let full = EhrGenerator::new(label).full_records(TABLE_ROWS);
    let d3 = doctor_source(&full);
    let d2 = full
        .project_distinct(
            &["medication_name", "mechanism_of_action", "mode_of_action"],
            &["medication_name"],
        )
        .expect("medication → mechanism holds by construction");
    let portal_attrs = [
        "patient_id",
        "medication_name",
        "clinical_data",
        "address",
        "dosage",
    ];
    let mut sources = vec![(DOCTOR, "D3".to_string(), d3.clone())];
    let mut shares = Vec::new();
    for k in 0..2 {
        let portal = 1 + k;
        let records = full
            .select(&ward_range(k))
            .and_then(|t| t.project(&portal_attrs, &["patient_id"]))
            .expect("portal source");
        sources.push((portal, "records".to_string(), records));
        shares.push(Share {
            table: ward_table(k),
            bindings: vec![
                Binding {
                    peer: DOCTOR,
                    source: "D3".into(),
                    lens: LensSpec::select(ward_range(k)).compose(LensSpec::project_with_defaults(
                        &WARD_ATTRS,
                        &["patient_id"],
                        &[("mechanism_of_action", Value::text("unknown"))],
                    )),
                },
                Binding {
                    peer: portal,
                    source: "records".into(),
                    lens: LensSpec::project_with_defaults(
                        &WARD_ATTRS,
                        &["patient_id"],
                        &[("address", Value::text("unknown"))],
                    ),
                },
            ],
            writers: vec![
                ("patient_id".into(), vec![DOCTOR]),
                ("medication_name".into(), vec![DOCTOR]),
                ("dosage".into(), vec![DOCTOR]),
                ("clinical_data".into(), vec![DOCTOR, portal]),
            ],
        });
    }
    sources.push((RESEARCHER, "D2".to_string(), d2));
    let research_attrs = ["medication_name", "mechanism_of_action"];
    shares.push(Share {
        table: CLINIC_RESEARCH.into(),
        bindings: vec![
            Binding {
                peer: RESEARCHER,
                source: "D2".into(),
                lens: LensSpec::project_with_defaults(
                    &research_attrs,
                    &["medication_name"],
                    &[("mode_of_action", Value::text("unknown"))],
                ),
            },
            Binding {
                peer: DOCTOR,
                source: "D3".into(),
                lens: LensSpec::project_distinct(&research_attrs, &["medication_name"]),
            },
        ],
        // The doctor may write the mechanism too, so the cascades of its
        // renames, inserts and deletes commit instead of blocking.
        writers: vec![
            ("medication_name".into(), vec![DOCTOR, RESEARCHER]),
            ("mechanism_of_action".into(), vec![DOCTOR, RESEARCHER]),
        ],
    });

    let mut med_rows: BTreeMap<String, usize> = BTreeMap::new();
    let mut medication: [BTreeMap<i64, String>; 2] = Default::default();
    for row in d3.rows() {
        let (pid, med) = (
            row[0].as_int().expect("integer key"),
            row[1].as_text().expect("text medication").to_string(),
        );
        *med_rows.entry(med.clone()).or_default() += 1;
        medication[usize::from(pid >= WARD_SPLIT)].insert(pid, med);
    }
    let ward = |k: usize, medication: BTreeMap<i64, String>| {
        let initial: Vec<i64> = medication.keys().copied().collect();
        let one_kind = |kind, tag: &str| {
            UpdateStream::new(&format!("{label}-{tag}-{k}"), initial.clone(), 0.0)
                .with_mix(vec![(kind, 1.0)])
        };
        WardModel {
            dosage: one_kind(UpdateKind::Dosage, "dosage"),
            clinical: one_kind(UpdateKind::ClinicalData, "clinical"),
            initial,
            medication,
            inserted: VecDeque::new(),
            next_pid: if k == 0 {
                1
            } else {
                1000 + 2 * TABLE_ROWS as i64
            },
            ops: 0,
        }
    };
    let [m0, m1] = medication;
    let model = ClinicModel {
        prg: Prg::from_label(&format!("{label}-mix")),
        wards: [ward(0, m0), ward(1, m1)],
        med_rows,
        mechanism: UpdateStream::new(&format!("{label}-mechanism"), vec![0], 0.0)
            .with_mix(vec![(UpdateKind::Mechanism, 1.0)]),
        ehr: EhrGenerator::new(&format!("{label}-inserts")),
        renames: 0,
        researcher_ops: 0,
    };
    let world = World {
        peers: vec![
            "Doctor".into(),
            "Ward0".into(),
            "Ward1".into(),
            "Researcher".into(),
        ],
        sources,
        shares,
        shards: 1,
    };
    (world, model)
}

impl ClinicModel {
    /// Draws `n` operations. Everything that touches ward `k` goes to
    /// session `k`, so no two sessions ever touch the same row; the
    /// Researcher's operations alternate between the sessions.
    fn stage(&mut self, label: &str, timed: bool, n: usize) -> Stage {
        let mut sessions = vec![Vec::new(), Vec::new()];
        for _ in 0..n {
            let (session, op) = self.next();
            sessions[session].push(Planned { op, due_us: None });
        }
        Stage {
            label: label.into(),
            rate: None,
            timed,
            sessions,
        }
    }

    fn next(&mut self) -> (usize, Op) {
        let mut x = self.prg.next_f64();
        let mut class = CLINIC_MIX[0].0;
        for (name, share) in CLINIC_MIX {
            class = name;
            if x < share {
                break;
            }
            x -= share;
        }
        let k = self.prg.next_below(2) as usize;
        if class == "researcher_source" {
            let u = self.mechanism.next_update();
            self.researcher_ops += 1;
            let op = Op {
                peer: RESEARCHER,
                table: CLINIC_RESEARCH.into(),
                writes: vec![WireWrite::Source {
                    table: "D2".into(),
                    op: set_cell(vec![u.target], "mechanism_of_action", u.new_value),
                }],
                expect: Expect::Commit,
                class,
                cascades: None,
            };
            return (self.researcher_ops % 2, op);
        }
        let portal = 1 + k;
        let w = &mut self.wards[k];
        w.ops += 1;
        let shared = |op| vec![WireWrite::Shared(op)];
        let (peer, writes, expect, class, cascades) = match class {
            "doctor_dosage" => {
                let u = w.dosage.next_update();
                let op = set_cell(vec![u.target], "dosage", u.new_value);
                (DOCTOR, shared(op), Expect::Commit, class, None)
            }
            "portal_clinical" => {
                let u = w.clinical.next_update();
                let op = set_cell(vec![u.target], "clinical_data", u.new_value);
                (portal, shared(op), Expect::Commit, class, None)
            }
            "portal_source" => {
                let u = w.clinical.next_update();
                let write = WireWrite::Source {
                    table: "records".into(),
                    op: set_cell(vec![u.target], "clinical_data", u.new_value),
                };
                (portal, vec![write], Expect::Commit, class, None)
            }
            "denied" => {
                let u = w.dosage.next_update();
                let op = set_cell(vec![u.target], "dosage", u.new_value);
                (portal, shared(op), Expect::Denied, class, None)
            }
            "rename" => {
                // An initial row whose medication still has other rows.
                let start = self.prg.next_below(w.initial.len() as u64) as usize;
                let pick = (0..w.initial.len())
                    .map(|i| w.initial[(start + i) % w.initial.len()])
                    .find(|pid| {
                        self.med_rows
                            .get(&w.medication[pid])
                            .is_some_and(|n| *n > 1)
                    })
                    .expect("1 024 rows over 8 medications never run out");
                self.renames += 1;
                let fresh = format!("Trial-R{}", self.renames);
                let old = w
                    .medication
                    .insert(pick, fresh.clone())
                    .expect("initial row");
                *self.med_rows.get_mut(&old).expect("counted") -= 1;
                let op = set_cell(int_key(pick), "medication_name", Value::text(fresh));
                (
                    DOCTOR,
                    shared(op),
                    Expect::Commit,
                    class,
                    Some(CLINIC_RESEARCH),
                )
            }
            // `delete` falls back to `insert` until a row is old enough.
            "delete"
                if w.inserted
                    .front()
                    .is_some_and(|(_, born)| w.ops - born >= DELETE_MIN_AGE) =>
            {
                let (pid, _) = w.inserted.pop_front().expect("checked");
                let op = WriteOp::Delete { key: int_key(pid) };
                (
                    DOCTOR,
                    shared(op),
                    Expect::Commit,
                    "delete",
                    Some(CLINIC_RESEARCH),
                )
            }
            _ => {
                let pid = w.next_pid;
                w.next_pid += 1;
                w.inserted.push_back((pid, w.ops));
                // A fresh medication name per row keeps medication →
                // mechanism functional on the doctor's source.
                let row = Row::new(vec![
                    Value::Int(pid),
                    Value::text(format!("Trial-I{pid}")),
                    Value::text(self.ehr.sample_clinical()),
                    Value::text(self.ehr.sample_dosage()),
                ]);
                (
                    DOCTOR,
                    shared(WriteOp::Insert { row }),
                    Expect::Commit,
                    "insert",
                    Some(CLINIC_RESEARCH),
                )
            }
        };
        let op = Op {
            peer,
            table: ward_table(k),
            writes,
            expect,
            class,
            cascades,
        };
        (k, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in Workload::ALL {
            let a = plan(w, 7, 0.05);
            let b = plan(w, 7, 0.05);
            let c = plan(w, 8, 0.05);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
            assert_eq!(a.key_capacity, b.key_capacity);
            for (x, y) in a.world.sources.iter().zip(&b.world.sources) {
                assert_eq!(x.2.content_hash(), y.2.content_hash());
            }
        }
    }

    #[test]
    fn paced_schedule_is_ordered_and_at_the_stated_rate() {
        let p = plan(Workload::WardPaced, 1, 1.0);
        assert_eq!(p.stages.len(), 4);
        for (stage, rate) in p.stages[1..].iter().zip(PACED_RATES) {
            assert_eq!(stage.rate, Some(rate));
            let mut due: Vec<u64> = stage
                .sessions
                .iter()
                .flatten()
                .map(|p| p.due_us.expect("open loop"))
                .collect();
            for s in &stage.sessions {
                assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us));
            }
            due.sort_unstable();
            let span_s = *due.last().unwrap() as f64 / 1e6;
            let measured = (due.len() - 1) as f64 / span_s;
            assert!(
                (measured / f64::from(rate) - 1.0).abs() < 0.02,
                "{measured}"
            );
        }
    }

    #[test]
    fn clinic_mix_has_every_class_and_partitions_wards_by_session() {
        let p = plan(Workload::ClinicMixed, 3, 1.0);
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for stage in &p.stages {
            for (s, session) in stage.sessions.iter().enumerate() {
                for planned in session {
                    *seen.entry(planned.op.class).or_default() += 1;
                    if planned.op.table != CLINIC_RESEARCH {
                        assert_eq!(planned.op.table, ward_table(s));
                    }
                }
            }
        }
        for (class, _) in CLINIC_MIX {
            assert!(seen.get(class).copied().unwrap_or(0) > 0, "{class}");
        }
    }
}
