//! The cascade rules beyond one hop, through both front doors of the one
//! scheduler — the facade's blocking `UpdateBatch::commit` and the
//! ticketed `LedgerService` — and, for the share chain, against the
//! Fig. 5 model:
//!
//! * a share chain A → B → C whose last hop feeds back into A: the
//!   back-edge cascade is detected (the peer really holds a pending change
//!   of A) and skipped because A is on its path;
//! * a chain of cascades longer than `MAX_CASCADE_DEPTH`: the one past the
//!   guard is recorded as blocked, and the root commit stands.

mod common;

use common::fig5_model::{Fig5Model, Write};
use medledger::bx::LensSpec;
use medledger::core::{CascadeRecord, MAX_CASCADE_DEPTH};
use medledger::relational::{Column, Schema, ValueType, WriteOp};
use medledger::{
    CommitOutcome, ConsensusKind, LedgerService, MedLedger, PeerId, Row, Table, Value,
};

fn ledger(seed: &str) -> MedLedger {
    MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 50,
        })
        .peer_key_capacity(64)
        .build()
        .expect("boots")
}

/// A one-row table keyed by `id` whose other columns all hold `v0`.
fn table(columns: &[&str]) -> Table {
    let mut cols = vec![Column::new("id", ValueType::Int)];
    cols.extend(columns.iter().map(|c| Column::new(*c, ValueType::Text)));
    let mut t = Table::new(Schema::new(cols, &["id"]).expect("schema"));
    let mut row = vec![Value::Int(1)];
    row.extend(columns.iter().map(|_| Value::text("v0")));
    t.insert(Row::new(row)).expect("seed row");
    t
}

/// `(peer, source, columns)` per peer of a world.
type Sources = [(&'static str, &'static str, &'static [&'static str])];

/// `(share, [(peer, lens)], [(attr, writers)])`: one share of a world,
/// each peer binding its one source.
type Share = (
    String,
    Vec<(&'static str, LensSpec)>,
    Vec<(&'static str, &'static [&'static str])>,
);

/// Builds the same world on a ledger and on the model.
fn build(seed: &str, sources: &Sources, shares: &[Share]) -> (MedLedger, Fig5Model) {
    let (mut ledger, mut model) = (ledger(seed), Fig5Model::default());
    for (peer, source, columns) in sources {
        let id = ledger.add_peer(peer).expect("peer");
        (ledger.session(id))
            .load_source(source, table(columns))
            .expect("source");
        model.add_peer(peer).load_source(source, table(columns));
    }
    let source_of = |peer: &str| sources.iter().find(|s| s.0 == peer).expect("peer").1;
    for (share, bindings, writers) in shares {
        let id = |name: &str| ledger.peer_id(name).expect("peer");
        let ids: Vec<PeerId> = bindings.iter().map(|(peer, _)| id(peer)).collect();
        let writer_ids: Vec<Vec<PeerId>> = (writers.iter())
            .map(|(_, names)| names.iter().map(|n| id(n)).collect())
            .collect();
        let mut session = ledger.session(ids[0]);
        let mut builder = session.share(share.clone());
        builder = builder.bind(source_of(bindings[0].0), bindings[0].1.clone());
        for ((peer, lens), id) in bindings.iter().zip(&ids).skip(1) {
            builder = builder.with(*id, source_of(peer), lens.clone());
        }
        for ((attr, _), ids) in writers.iter().zip(&writer_ids) {
            builder = builder.writers(*attr, ids);
        }
        builder.create().expect("share");
        let model_bindings: Vec<(&str, &str, LensSpec)> = (bindings.iter())
            .map(|(peer, lens)| (*peer, source_of(peer), lens.clone()))
            .collect();
        model.create_share(share, &model_bindings, writers);
    }
    (ledger, model)
}

/// What both front doors must agree on: per peer its fingerprint and per
/// share its committed hash there, and per share the contract version.
fn state(ledger: &MedLedger, shares: &[Share]) -> Vec<String> {
    let mut out = Vec::new();
    for id in ledger.peers() {
        let node = ledger.system().peer(id).expect("peer");
        out.push(format!("{} {:?}", node.name, node.fingerprint()));
        for (share, _, _) in shares {
            if let Ok(hash) = node.committed_hash(share) {
                out.push(format!("{} `{share}` {hash:?}", node.name));
            }
        }
    }
    for (share, _, _) in shares {
        let meta = ledger.share_meta(share).expect("meta");
        out.push(format!(
            "`{share}` v{} {:?}",
            meta.version, meta.content_hash
        ));
    }
    out
}

/// A cascade record, comparable across the two front doors.
fn record_line(ledger: &MedLedger, r: &CascadeRecord) -> String {
    let peer = ledger.peer_name(r.peer).expect("peer");
    let result = match &r.result {
        Ok(report) => format!("v{}", report.version),
        Err(reason) => format!("blocked: {reason}"),
    };
    format!(
        "wave {} {} → {} by {peer}: {result}",
        r.wave, r.origin, r.table_id
    )
}

fn set_x(value: &str) -> WriteOp {
    WriteOp::Update {
        key: vec![Value::Int(1)],
        assignments: vec![("x".into(), Value::text(value))],
    }
}

/// Commits `op` on `share` by `peer` through the facade on one copy of
/// the world and through the service on another, and returns both
/// ledgers, the facade's outcome and the service's cascade records.
fn commit_both_ways(
    world: impl Fn(&str) -> MedLedger,
    peer: &str,
    share: &str,
    op: WriteOp,
) -> (MedLedger, CommitOutcome, MedLedger, Vec<String>) {
    let mut facade = world("cascade-rules");
    let id = facade.peer_id(peer).expect("peer");
    let outcome = (facade.session(id).begin(share))
        .write(op.clone())
        .commit()
        .expect("the root commit stands");

    let mut service = LedgerService::new(world("cascade-rules"));
    let ticket = (service.submit(id, share))
        .write(op)
        .submit()
        .expect("submit");
    service.drain().expect("drain");
    let root = service.take(ticket).expect("resolved").expect("commits");
    assert_eq!(root.version(), outcome.version());
    assert_eq!(service.waves(), facade.system().waves(), "one wave count");
    let records: Vec<String> = (service.cascades().iter())
        .map(|r| record_line(service.ledger(), r))
        .collect();
    (facade, outcome, service.into_ledger(), records)
}

// ----- A → B → C, and back into A -----------------------------------------

/// Origin writes `x` of share A. Hop1 binds A and B to one source, so
/// A's change is B's; Hop2 likewise carries B into C. Back holds A and C,
/// but its C reads a column (`x2`) its A shows as `z`, not A's `x`: A's
/// own commit leaves Back's C alone, while C's commit changes Back's A.
fn chain_sources() -> &'static Sources {
    &[
        ("Origin", "S0", &["x", "z"]),
        ("Hop1", "S1", &["x", "z"]),
        ("Hop2", "S2", &["x"]),
        ("Back", "S3", &["x", "x2"]),
    ]
}

fn chain_shares() -> Vec<Share> {
    let a = || LensSpec::project(&["id", "x", "z"], &["id"]);
    let x = || LensSpec::project(&["id", "x"], &["id"]);
    let back_c = LensSpec::project(&["id", "x2"], &["id"]).compose(LensSpec::rename("x2", "x"));
    vec![
        (
            "A".into(),
            vec![
                ("Origin", a()),
                ("Hop1", a()),
                ("Back", LensSpec::rename("x2", "z")),
            ],
            vec![("id", &["Origin"]), ("x", &["Origin"]), ("z", &["Origin"])],
        ),
        (
            "B".into(),
            vec![("Hop1", x()), ("Hop2", x())],
            vec![("id", &["Hop1"]), ("x", &["Hop1"])],
        ),
        (
            "C".into(),
            vec![("Hop2", x()), ("Back", back_c)],
            vec![("id", &["Hop2"]), ("x", &["Hop2"])],
        ),
    ]
}

/// The chain cascades two hops deep — B, then C — in the same order,
/// with the same versions, records and end state through both front
/// doors and in the model. C's commit really leaves Back with a pending
/// change of A, and that back-edge is skipped by the path rule alone: it
/// is neither run nor recorded, and Back keeps the change.
#[test]
fn a_share_chain_cascades_two_hops_and_skips_its_back_edge() {
    let shares = chain_shares();
    let world = |seed: &str| build(seed, chain_sources(), &shares).0;
    let (facade, outcome, service, records) = commit_both_ways(world, "Origin", "A", set_x("v1"));

    // The model: Steps 7–11 recurse under an `active` set.
    let (_, mut model) = build("cascade-rules", chain_sources(), &shares);
    let expected = model
        .commit("Origin", "A", &[Write::Shared(set_x("v1"))])
        .expect("model commits");
    common::assert_matches_model(&facade, &model, "facade");
    common::assert_matches_model(&service, &model, "service");
    let flat: Vec<(String, u64)> = (expected.flatten().iter())
        .map(|c| (c.share.clone(), c.version))
        .collect();
    assert_eq!(flat, [("A".into(), 1), ("B".into(), 1), ("C".into(), 1)]);

    // The facade nests what the model does: A → B → C, nothing blocked.
    let b = outcome.cascades();
    assert_eq!((b.len(), b[0].table_id.as_str()), (1, "B"));
    let c = &b[0].cascades;
    assert_eq!((c.len(), c[0].table_id.as_str()), (1, "C"));
    assert!(c[0].cascades.is_empty() && c[0].failed_cascades.is_empty());
    assert!(outcome.failed_cascades().is_empty());

    // Both front doors: one scheduler, the same records and state.
    let facade_records: Vec<String> = (facade.system().cascades().iter())
        .map(|r| record_line(&facade, r))
        .collect();
    assert_eq!(facade_records, records);
    assert_eq!(
        records,
        ["wave 2 A → B by Hop1: v1", "wave 3 B → C by Hop2: v1"]
    );
    assert_eq!(state(&facade, &shares), state(&service, &shares));

    // The back-edge: C's Step 6 found Back's A changed and deferred it;
    // the next wave dropped it for its path (A, B, C), not for want of a
    // change — Back still holds it, uncommitted.
    let c_trace = c[0].trace.render();
    assert!(
        c_trace.contains("`A` overlaps `C`; content changed → cascade deferred"),
        "{c_trace}"
    );
    for ledger in [&facade, &service] {
        let back = ledger.peer_id("Back").expect("back");
        let pending = ledger
            .system()
            .peer(back)
            .and_then(|p| p.has_pending_change("A"));
        assert!(pending.expect("check"), "Back keeps its change of A");
        assert_eq!(ledger.share_meta("A").expect("meta").version, 1);
        ledger.check_consistency().expect("consistent");
    }
}

// ----- deeper than the guard --------------------------------------------

/// Shares in the deep chain: one more cascade than the guard admits.
const DEEP: usize = MAX_CASCADE_DEPTH + 2;

/// Two peers and a chain of `DEEP` shares T0, T1, …, each a one-column
/// view. Every share's receiver binds it to the same source column as the
/// next share, which that receiver updates in turn: P updates the even
/// shares, Q the odd ones, so a commit of T0 cascades T1, T2, … in a
/// wave each. P reads Tk from column `c⌈k/2⌉`, Q from `c⌊k/2⌋`.
fn deep_shares() -> Vec<Share> {
    let column = |c: usize| {
        let name = COLUMNS[c];
        LensSpec::project(&["id", name], &["id"]).compose(LensSpec::rename(name, "v"))
    };
    (0..DEEP)
        .map(|k| {
            let updater: &'static [&'static str] = if k % 2 == 0 { &["P"] } else { &["Q"] };
            (
                format!("T{k}"),
                vec![("P", column(k.div_ceil(2))), ("Q", column(k / 2))],
                vec![("id", updater), ("v", updater)],
            )
        })
        .collect()
}

const COLUMNS: [&str; DEEP / 2 + 1] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"];

/// The root commit stands, the cascades up to the guard commit, and the
/// one past it is recorded as blocked — identically through both front
/// doors. Its peer keeps the change for a later retry.
#[test]
fn a_cascade_past_the_depth_guard_is_recorded_as_blocked() {
    let shares = deep_shares();
    let sources: &Sources = &[("P", "SP", &COLUMNS), ("Q", "SQ", &COLUMNS)];
    let world = |seed: &str| build(seed, sources, &shares).0;
    let op = WriteOp::Update {
        key: vec![Value::Int(1)],
        assignments: vec![("v".into(), Value::text("v1"))],
    };
    let (facade, outcome, service, records) = commit_both_ways(world, "P", "T0", op);

    let facade_records: Vec<String> = (facade.system().cascades().iter())
        .map(|r| record_line(&facade, r))
        .collect();
    assert_eq!(facade_records, records);
    assert_eq!(state(&facade, &shares), state(&service, &shares));

    // T1 … T16 commit, a wave each; T17 is one too deep.
    assert_eq!(records.len(), DEEP - 1);
    let last = DEEP - 1;
    for (k, line) in records.iter().enumerate().take(last - 1) {
        let by = if (k + 1) % 2 == 0 { "P" } else { "Q" };
        let expected = format!("wave {} T{k} → T{} by {by}: v1", k + 2, k + 1);
        assert_eq!(line, &expected);
    }
    let blocked = format!(
        "wave {DEEP} T{} → T{last} by Q: blocked: cascade depth exceeded \
         {MAX_CASCADE_DEPTH} — cyclic sharing topology?",
        last - 1
    );
    assert_eq!(records[last - 1], blocked);

    // The facade nests the blocked one under the cascade that found it.
    let mut report = &outcome.report;
    for _ in 1..last {
        assert_eq!(report.cascades.len(), 1);
        report = &report.cascades[0];
    }
    assert_eq!(report.table_id, format!("T{}", last - 1));
    assert_eq!(report.failed_cascades.len(), 1);
    assert_eq!(report.failed_cascades[0].0, format!("T{last}"));

    for ledger in [&facade, &service] {
        let q = ledger.peer_id("Q").expect("q");
        let pending = ledger
            .system()
            .peer(q)
            .and_then(|p| p.has_pending_change(&format!("T{last}")));
        assert!(pending.expect("check"), "Q keeps its change of T{last}");
        ledger.check_consistency().expect("consistent");
    }
}
