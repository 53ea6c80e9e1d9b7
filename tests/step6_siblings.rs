//! Step 6 reaches every other share a peer binds to the same source,
//! whichever columns the two lenses show: an insert or delete through any
//! view rewrites whole source rows, so no attribute set can separate two
//! shares on one source. Through both front doors of the one scheduler —
//! the facade's blocking `UpdateBatch::commit` and the ticketed
//! `LedgerService` — and against the Fig. 5 model.
//!
//! In each world peer P binds two shares to its one source `S`: X, shared
//! with Q, and Y = `project(id, b)`, shared with R.
//!
//! * X is a bare `rename` of `S`: Q's update of `b` through X is P's
//!   change of Y, and P cascades it to R;
//! * X is a `project_distinct` group view of `S`: Q's delete of the one
//!   group drops every row of `S`, and so P's Y;
//! * X and Y claimed in one wave: they hold the binding `(P, S)` between
//!   them, so the second waits for the next wave.

mod common;

use common::fig5_model::{Fig5Model, Write};
use medledger::bx::LensSpec;
use medledger::relational::{Column, Schema, ValueType, WriteOp};
use medledger::{ConsensusKind, LedgerService, MedLedger, Row, Table, Value};

const SEED: &str = "step6-siblings";

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

/// One world: the columns of P's source and the lens P views X through;
/// Q's source columns and lens; X's view columns, all Q's to write.
struct World {
    p_source: &'static [&'static str],
    p_x: LensSpec,
    q_source: &'static [&'static str],
    q_x: LensSpec,
    x_columns: &'static [&'static str],
}

/// X is `S` with `a` renamed: every column of `S`, `b` among them.
fn renamed() -> World {
    World {
        p_source: &["a", "b"],
        p_x: LensSpec::rename("a", "a2"),
        q_source: &["a2", "b"],
        q_x: LensSpec::project(&["id", "a2", "b"], &["id"]),
        x_columns: &["id", "a2", "b"],
    }
}

/// X is the distinct `(med, mech)` groups of `S`: not a column of Y.
fn grouped() -> World {
    let groups = || LensSpec::project_distinct(&["med", "mech"], &["med"]);
    World {
        p_source: &["med", "mech", "b"],
        p_x: groups(),
        q_source: &["med", "mech"],
        q_x: groups(),
        x_columns: &["med", "mech"],
    }
}

fn y_lens() -> LensSpec {
    LensSpec::project(&["id", "b"], &["id"])
}

impl World {
    /// The world on a ledger and on the model.
    fn build(&self) -> (MedLedger, Fig5Model) {
        let mut ledger = MedLedger::builder()
            .seed(SEED)
            .consensus(ConsensusKind::PrivatePbft {
                block_interval_ms: 50,
            })
            .peer_key_capacity(32)
            .build()
            .expect("boots");
        let mut model = Fig5Model::default();
        let sources: [(&str, &[&str]); 3] =
            [("P", self.p_source), ("Q", self.q_source), ("R", &["b"])];
        for (peer, columns) in sources {
            let id = ledger.add_peer(peer).expect("peer");
            (ledger.session(id))
                .load_source("S", table(columns))
                .expect("source");
            model.add_peer(peer).load_source("S", table(columns));
        }
        let id = |name: &str| ledger.peer_id(name).expect("peer");
        let (p, q, r) = (id("P"), id("Q"), id("R"));

        let x_writers: Vec<(&str, &[&str])> =
            (self.x_columns.iter()).map(|c| (*c, &["Q"][..])).collect();
        let mut session = ledger.session(p);
        let mut x = (session.share("X"))
            .bind("S", self.p_x.clone())
            .with(q, "S", self.q_x.clone());
        for column in self.x_columns {
            x = x.writers(*column, &[q]);
        }
        x.create().expect("share X");
        let x_bindings = [("P", "S", self.p_x.clone()), ("Q", "S", self.q_x.clone())];
        model.create_share("X", &x_bindings, &x_writers);

        (ledger.session(p).share("Y"))
            .bind("S", y_lens())
            .with(r, "S", y_lens())
            .writers("id", &[p])
            .writers("b", &[p, r])
            .create()
            .expect("share Y");
        let y_bindings = [("P", "S", y_lens()), ("R", "S", y_lens())];
        model.create_share("Y", &y_bindings, &[("id", &["P"]), ("b", &["P", "R"])]);
        (ledger, model)
    }
}

/// `wave N origin → table by peer: vK` per cascade the ledger ran.
fn cascade_lines(ledger: &MedLedger) -> Vec<String> {
    let line = |r: &medledger::core::CascadeRecord| {
        let peer = ledger.peer_name(r.peer).expect("peer");
        let result = match &r.result {
            Ok(report) => format!("v{}", report.version),
            Err(reason) => format!("blocked: {reason}"),
        };
        format!(
            "wave {} {} → {} by {peer}: {result}",
            r.wave, r.origin, r.table_id
        )
    };
    ledger.system().cascades().iter().map(line).collect()
}

/// Q commits `op` on X through the facade, held against the model at
/// every step, and through the service on a second copy of the world.
/// Both copies must end as the model does, with the same cascades; they
/// are returned for the caller's own checks.
fn commit_x_both_ways(world: &World, op: WriteOp) -> [MedLedger; 2] {
    let (mut facade, mut model) = world.build();
    let writes = [Write::Shared(op.clone())];
    let (got, _) = common::commit_on_both(&mut facade, &mut model, ("Q", "X", &writes), "facade");
    let outcome = got.expect("Q's commit stands");

    let mut service = LedgerService::new(world.build().0);
    let q = service.ledger().peer_id("Q").expect("peer");
    let ticket = (service.submit(q, "X")).write(op).submit().expect("submit");
    service.drain().expect("drain");
    let root = service.take(ticket).expect("resolved").expect("commits");
    assert_eq!(root.version(), outcome.version());
    assert_eq!(service.waves(), facade.system().waves(), "one wave count");
    let service = service.into_ledger();
    service.check_consistency().expect("consistent");
    common::assert_matches_model(&service, &model, "service");
    assert_eq!(cascade_lines(&facade), cascade_lines(&service));
    [facade, service]
}

/// After Q's commit of X: P cascaded Y to R, holds no change of it, and
/// R's copy is P's.
fn assert_y_cascaded(ledger: &MedLedger) {
    assert_eq!(cascade_lines(ledger), ["wave 2 X → Y by P: v1"]);
    let node = |name: &str| {
        let id = ledger.peer_id(name).expect("peer");
        ledger.system().peer(id).expect("node")
    };
    let p_y = node("P").shared_table("Y").expect("P's Y");
    assert_eq!(node("R").shared_table("Y").expect("R's Y"), p_y);
    assert!(!node("P").has_pending_change("Y").expect("check"));
    ledger.check_consistency().expect("consistent");
}

#[test]
fn an_update_through_a_rename_share_cascades_into_its_sibling() {
    let op = WriteOp::Update {
        key: vec![Value::Int(1)],
        assignments: vec![("b".into(), Value::text("v1"))],
    };
    for ledger in commit_x_both_ways(&renamed(), op) {
        assert_y_cascaded(&ledger);
        let r = ledger.peer_id("R").expect("peer");
        let y = ledger.system().peer(r).and_then(|p| p.shared_table("Y"));
        let row = y.expect("R's Y").get(&[Value::Int(1)]).cloned();
        assert_eq!(row, Some(Row::new(vec![Value::Int(1), Value::text("v1")])));
    }
}

#[test]
fn a_group_delete_through_a_distinct_share_cascades_into_its_sibling() {
    let op = WriteOp::Delete {
        key: vec![Value::text("v0")],
    };
    for ledger in commit_x_both_ways(&grouped(), op) {
        assert_y_cascaded(&ledger);
        let r = ledger.peer_id("R").expect("peer");
        let y = ledger.system().peer(r).and_then(|p| p.shared_table("Y"));
        assert!(y.expect("R's Y").is_empty(), "R lost the row too");
    }
}

/// X and Y submitted together: Q updates X's `mech` (not a column of
/// Y), R updates Y's `b` (not a column of X). Neither changes the other
/// share, but both are bound to P's `S`, so they take a wave each — and
/// end as the model does, committing one after the other.
#[test]
fn two_shares_on_one_source_take_a_wave_each() {
    let (ledger, mut model) = grouped().build();
    let mut service = LedgerService::new(ledger);
    let set = |key: Value, column: &str, value: &str| WriteOp::Update {
        key: vec![key],
        assignments: vec![(column.into(), Value::text(value))],
    };
    let x_op = set(Value::text("v0"), "mech", "m1");
    let y_op = set(Value::Int(1), "b", "r1");
    let id = |name: &str| service.ledger().peer_id(name).expect("peer");
    let (q, r) = (id("Q"), id("R"));
    let before = service.waves();
    let x = (service.submit(q, "X"))
        .write(x_op.clone())
        .submit()
        .expect("submit");
    let y = (service.submit(r, "Y"))
        .write(y_op.clone())
        .submit()
        .expect("submit");
    service.drain().expect("drain");
    assert_eq!(
        service.waves() - before,
        2,
        "X and Y share the binding (P, S)"
    );
    for ticket in [x, y] {
        let outcome = service.take(ticket).expect("resolved").expect("commits");
        assert_eq!(outcome.version(), 1);
    }
    assert!(service.cascades().is_empty());

    model
        .commit("Q", "X", &[Write::Shared(x_op)])
        .expect("model commits X");
    model
        .commit("R", "Y", &[Write::Shared(y_op)])
        .expect("model commits Y");
    let ledger = service.into_ledger();
    ledger.check_consistency().expect("consistent");
    common::assert_matches_model(&ledger, &model, "service");
}
