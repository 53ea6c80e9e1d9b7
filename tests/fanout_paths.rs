//! The receiver side of the fan-out (Fig. 5 steps 4–5), pinned on the
//! two paths a committed delta can take into a receiver.
//!
//! 1. **A wide delta to several receivers.** One batch rewrites every row
//!    of a 300-row share held by a hub and two receivers, at one shard
//!    per table and at four. The peers' fingerprints, the committed
//!    content hash, the SHA-256 of the rendered trace, the receipts' tx
//!    ids and the virtual visibility and sync times are pinned as golden
//!    constants, the same at both shard counts: how the receivers apply
//!    the delta may change, what they end up holding and what the chain
//!    and the trace say may not.
//! 2. **A receiver with a pending change.** Peer B binds one source to
//!    two overlapping shares, T (with the authority A) and U (with C). C
//!    commits an update of U; B's Step-6 cascade into T is denied, since
//!    only A writes T, so B keeps a pending change of T. Then A commits an
//!    update of T, and B takes the conflict path: the remote view wins on
//!    T, and what B's source now holds against its committed U survives
//!    as a pending delta (whose own cascade is denied too). Every step is
//!    held against the Fig. 5 reference model (`tests/common`), and the
//!    peers' fingerprints are pinned.
//!
//! A failure here means a receiver applied a committed delta to a
//! different end state, or the virtual schedule, the trace or the chain
//! moved — never "update the constants".

mod common;

use common::commit_on_both;
use common::fig5_model::{Fig5Model, Write};
use medledger::bx::LensSpec;
use medledger::crypto::sha256;
use medledger::relational::{row, Column, Schema, ValueType, WriteOp};
use medledger::{ConsensusKind, MedLedger, PeerId, Table, Value};

/// Rows of the wide share.
const WIDE_ROWS: i64 = 300;

fn builder(seed: &str) -> medledger::MedLedgerBuilder {
    MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        })
        .peer_key_capacity(64)
}

fn fingerprint(ledger: &MedLedger, peer: PeerId) -> String {
    let node = ledger.system().peer(peer).expect("peer");
    node.fingerprint().to_hex()
}

// ----- 1. a wide delta to two receivers ----------------------------------

/// Everything a wide commit is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct WidePins {
    /// Hub, then the two receivers.
    fingerprints: [String; 3],
    /// The content hash the contract committed.
    committed: String,
    /// SHA-256 of `outcome.trace.render()`.
    trace: String,
    tx_ids: Vec<String>,
    visible_ms: u64,
    synced_ms: u64,
}

fn wide_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
            Column::new("ward", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema")
}

fn wide_table() -> Table {
    let mut t = Table::new(wide_schema());
    for pid in 0..WIDE_ROWS {
        let ward = format!("ward-{}", pid % 7);
        t.insert(row![pid, "10 mg", ward]).expect("seed row");
    }
    t
}

/// A hub and two receivers share a 300-row table through the identity
/// projection; the hub rewrites every row's dosage in one batch.
fn wide_commit(shards: usize) -> WidePins {
    let mut ledger = builder("fanout-wide")
        .shards_per_table(shards)
        .build()
        .expect("ledger boots");
    let hub = ledger.add_peer("Hub").expect("hub");
    let receivers = [
        ledger.add_peer("R0").expect("R0"),
        ledger.add_peer("R1").expect("R1"),
    ];
    let lens = LensSpec::project(&["patient_id", "dosage", "ward"], &["patient_id"]);
    ledger
        .session(hub)
        .load_source("H", wide_table())
        .expect("hub source");
    for (i, r) in receivers.iter().enumerate() {
        let source = format!("R{i}");
        ledger
            .session(*r)
            .load_source(&source, wide_table())
            .expect("receiver source");
    }
    let mut session = ledger.session(hub);
    let mut share = session.share("wide").bind("H", lens.clone());
    for (i, r) in receivers.iter().enumerate() {
        share = share.with(*r, format!("R{i}"), lens.clone());
    }
    share
        .writers("patient_id", &[hub])
        .writers("dosage", &[hub])
        .writers("ward", &[hub])
        .create()
        .expect("create share");

    let mut session = ledger.session(hub);
    let mut batch = session.begin("wide");
    for pid in 0..WIDE_ROWS {
        let dosage = format!("{} mg", 20 + pid % 5);
        batch = batch.set(vec![Value::Int(pid)], "dosage", Value::text(dosage));
    }
    let outcome = batch.commit().expect("commit");
    assert_eq!(outcome.report.rows_moved, WIDE_ROWS as u64);
    ledger.check_consistency().expect("consistent");
    let hub_view = ledger.reader(hub).read("wide").expect("hub view");
    for r in receivers {
        assert_eq!(ledger.reader(r).read("wide").expect("view"), hub_view);
    }

    WidePins {
        fingerprints: [hub, receivers[0], receivers[1]].map(|p| fingerprint(&ledger, p)),
        committed: ledger
            .share_meta("wide")
            .expect("meta")
            .content_hash
            .to_hex(),
        trace: sha256(outcome.trace.render().as_bytes()).to_hex(),
        tx_ids: outcome.receipts.iter().map(|r| r.tx_id.to_hex()).collect(),
        visible_ms: outcome.report.visible_ms,
        synced_ms: outcome.report.synced_ms,
    }
}

#[test]
fn a_wide_delta_to_two_receivers_is_pinned_at_any_shard_count() {
    let expected = WidePins {
        fingerprints: [
            "e91c3e4cb4397fcb6a7c0d3d0c86f430a15b27de4d3f3c6ecfe81362d2eecb3d".into(),
            "59c760be5d7a29a635868f9d842b54eb452e0d6dcc01d59299273072efc3fe43".into(),
            "76549d7a4d759f624cb851f3ec5debde0aef9a002fe811db8ca560e6c9fe3b4d".into(),
        ],
        committed: "83e6f54a32afa2cb4a8f3f202fd8ffc6c82fd3ff1a169f8d2de941f4980cf780".into(),
        trace: "c39b62db177fb640fb9e53620db18674efe0125fa449e786129347e77066f800".into(),
        tx_ids: vec![
            "307f209ab8cfcdc5dfd2f6a6f6c1e2071d80773bdb8069d56da1ad8cae058df9".into(),
            "154821a70a5f304d05a29e9de24cf0a5e71306e4d6a7e3d2f8f51be487a191f0".into(),
        ],
        visible_ms: 585,
        synced_ms: 600,
    };
    for shards in [1, 4] {
        assert_eq!(wide_commit(shards), expected, "shards_per_table={shards}");
    }
}

// ----- 2. a receiver with a pending change --------------------------------

fn xy_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("x", ValueType::Text),
            Column::new("y", ValueType::Text),
        ],
        &["id"],
    )
    .expect("schema")
}

fn xy_table() -> Table {
    let mut t = Table::new(xy_schema());
    for id in 1..=4i64 {
        t.insert(row![id, format!("x{id}"), format!("y{id}")])
            .expect("seed row");
    }
    t
}

fn set(id: i64, attr: &str, value: &str) -> Write {
    Write::Shared(WriteOp::Update {
        key: vec![Value::Int(id)],
        assignments: vec![(attr.into(), Value::text(value))],
    })
}

#[test]
fn a_conflicted_receiver_takes_the_remote_view_and_keeps_its_residual() {
    let lens_t = LensSpec::project(&["id", "x", "y"], &["id"]);
    let lens_u = LensSpec::project(&["id", "x"], &["id"]);
    let x_table = xy_table().project(&["id", "x"], &["id"]).expect("project");

    let mut ledger = builder("fanout-conflict").build().expect("ledger boots");
    let mut model = Fig5Model::default();
    let a = ledger.add_peer("A").expect("A");
    let b = ledger.add_peer("B").expect("B");
    let c = ledger.add_peer("C").expect("C");
    for (peer, name, source, table) in [
        (a, "A", "SA", xy_table()),
        (b, "B", "SB", xy_table()),
        (c, "C", "SC", x_table),
    ] {
        let session = &mut ledger.session(peer);
        session.load_source(source, table.clone()).expect("load");
        model.add_peer(name).load_source(source, table);
    }
    ledger
        .session(a)
        .share("T")
        .bind("SA", lens_t.clone())
        .with(b, "SB", lens_t.clone())
        .writers("id", &[a])
        .writers("x", &[a])
        .writers("y", &[a])
        .create()
        .expect("share T");
    model.create_share(
        "T",
        &[("A", "SA", lens_t.clone()), ("B", "SB", lens_t)],
        &[("id", &["A"]), ("x", &["A"]), ("y", &["A"])],
    );
    ledger
        .session(c)
        .share("U")
        .bind("SC", lens_u.clone())
        .with(b, "SB", lens_u.clone())
        .writers("id", &[c])
        .writers("x", &[c])
        .create()
        .expect("share U");
    model.create_share(
        "U",
        &[("C", "SC", lens_u.clone()), ("B", "SB", lens_u)],
        &[("id", &["C"]), ("x", &["C"])],
    );

    // C's update of U reaches B's source; B's cascade into T is denied.
    let (first, _) = commit_on_both(
        &mut ledger,
        &mut model,
        ("C", "U", &[set(1, "x", "x1-lab")]),
        "C updates U",
    );
    let first = first.expect("U commits");
    assert_eq!(first.failed_cascades().len(), 1);
    assert_eq!(first.failed_cascades()[0].0, "T");
    let node_b = ledger.system().peer(b).expect("B");
    assert!(
        node_b.has_pending_change("T").expect("T"),
        "B keeps T pending"
    );

    // A's update of T arrives at B over that pending change.
    let (second, _) = commit_on_both(
        &mut ledger,
        &mut model,
        ("A", "T", &[set(2, "y", "y2-ward")]),
        "A updates T",
    );
    let second = second.expect("T commits");
    assert_eq!(second.failed_cascades().len(), 1);
    assert_eq!(second.failed_cascades()[0].0, "U");

    // The remote view wins on T ...
    let node_b = ledger.system().peer(b).expect("B");
    assert!(!node_b.has_pending_change("T").expect("T"));
    let t_at_a = ledger.reader(a).read("T").expect("T at A");
    assert_eq!(ledger.reader(b).read("T").expect("T at B"), t_at_a);
    let row1 = t_at_a.get(&[Value::Int(1)]).expect("row 1");
    assert_eq!(row1[1], Value::text("x1"));
    // ... and B's residual difference survives as a pending delta of U.
    let residual = node_b.pending_delta("U").expect("U");
    assert_eq!(
        residual.updates,
        vec![(vec![Value::Int(1)], row![1i64, "x1"])]
    );
    assert!(residual.inserts.is_empty() && residual.deletes.is_empty());
    ledger.check_consistency().expect("consistent");

    let pinned = [a, b, c].map(|p| fingerprint(&ledger, p));
    assert_eq!(
        pinned,
        [
            "3333561d37fe8c1a8a612ec0500b676714930dc78ed78e8c0602fa01750e1629",
            "21228495f59dacacd3dc18b6ac5a831f7839f9996454c09cd71d835ab72df67c",
            "da2315e21b89182d87d1417901247868102f7dafd48d3d71f0d0a7f9887a66d0",
        ]
    );
}
