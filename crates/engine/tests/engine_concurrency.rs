//! Concurrency-safety and determinism tests for the commit engine.
//!
//! The contract under test: one `LedgerService` wave over N fan-out
//! worker threads and M distinct shared tables ends in a final state
//! **byte-identical** to serial facade commits of the same updates, with
//! receipt and trace ordering fully deterministic; a denied wave member
//! rolls back alone and every ticket resolves to its own outcome; and
//! members whose tables interact are kept apart — the later one re-queues
//! unstaged and commits in the next wave.

#![allow(clippy::result_large_err)]

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::fig5_model::{Fig5Model, Write};
use medledger_bx::LensSpec;
use medledger_core::{CommitError, CommitOutcome, ConsensusKind, MedLedger, PeerId};
use medledger_engine::{CommitTicket, LedgerService};
use medledger_relational::{row, Column, Schema, Table, Value, ValueType, WriteOp};

const ROWS_PER_TABLE: i64 = 3;

fn ward_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema")
}

fn ward_table() -> Table {
    let mut t = Table::new(ward_schema());
    for pid in 1..=ROWS_PER_TABLE {
        t.insert(row![pid, "10 mg"]).expect("seed row");
    }
    t
}

struct Hub {
    service: LedgerService,
    hub: PeerId,
    receivers: Vec<PeerId>,
    tables: Vec<String>,
}

/// A hub peer sharing `n_tables` distinct tables with `n_receivers`
/// receiver peers. `deny_hub_on` marks tables whose `dosage` attribute
/// the hub may NOT write (the first receiver holds the permission).
fn hub_ledger(
    seed: &str,
    n_tables: usize,
    n_receivers: usize,
    fanout_workers: usize,
    deny_hub_on: &[usize],
    key_capacity: usize,
) -> Hub {
    let mut ledger = MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        })
        .fanout_workers(fanout_workers)
        .peer_key_capacity(key_capacity)
        .build()
        .expect("ledger boots");
    let hub = ledger.add_peer("Hub").expect("add hub");
    let receivers: Vec<PeerId> = (0..n_receivers)
        .map(|i| ledger.add_peer(&format!("R{i}")).expect("add receiver"))
        .collect();
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    let tables: Vec<String> = (0..n_tables).map(|i| format!("ward-{i}")).collect();
    for (i, t) in tables.iter().enumerate() {
        ledger
            .session(hub)
            .load_source(&format!("H-{t}"), ward_table())
            .expect("hub source");
        for (j, r) in receivers.iter().enumerate() {
            ledger
                .session(*r)
                .load_source(&format!("R{j}-{t}"), ward_table())
                .expect("receiver source");
        }
        let mut session = ledger.session(hub);
        let mut share = session
            .share(t.clone())
            .bind(format!("H-{t}"), lens.clone());
        for (j, r) in receivers.iter().enumerate() {
            share = share.with(*r, format!("R{j}-{t}"), lens.clone());
        }
        let dosage_writers: Vec<PeerId> = if deny_hub_on.contains(&i) {
            vec![receivers[0]]
        } else {
            vec![hub]
        };
        share
            .writers("dosage", &dosage_writers)
            .writers("patient_id", &[hub])
            .create()
            .expect("create share");
    }
    Hub {
        service: LedgerService::new(ledger),
        hub,
        receivers,
        tables,
    }
}

/// Fingerprints of every peer's database, in peer order.
fn fingerprints(hub: &Hub) -> Vec<String> {
    let mut peers = vec![hub.hub];
    peers.extend(hub.receivers.iter().copied());
    peers
        .iter()
        .map(|p| {
            format!(
                "{:?}",
                ledger(hub).system().peer(*p).expect("peer").fingerprint()
            )
        })
        .collect()
}

fn ledger(hub: &Hub) -> &MedLedger {
    hub.service.ledger()
}

/// Submits one dosage update of `pid` per table, without running a wave.
fn submit_round(hub: &mut Hub, pid: i64, rev: usize) -> Vec<CommitTicket> {
    hub.tables
        .clone()
        .into_iter()
        .map(|t| {
            hub.service
                .submit(hub.hub, t)
                .set(
                    vec![Value::Int(pid)],
                    "dosage",
                    Value::text(format!("rev-{rev}")),
                )
                .submit()
                .expect("submit")
        })
        .collect()
}

/// One update per table, all in ONE wave; the outcomes in table order.
fn wave_round(hub: &mut Hub, pid: i64, rev: usize) -> Vec<Result<CommitOutcome, CommitError>> {
    let tickets = submit_round(hub, pid, rev);
    let wave = hub.service.tick().expect("wave runs");
    assert_eq!(wave.members, tickets.len(), "distinct tables share a wave");
    assert_eq!(wave.resolved, tickets.len());
    tickets
        .into_iter()
        .map(|t| hub.service.take(t).expect("resolved by the one wave"))
        .collect()
}

/// Under a denied MIDDLE member, every ticket must resolve — exactly
/// once — to the outcome of the submission it was handed out for: its
/// own table on success, its own on-chain denial on failure.
#[test]
fn every_ticket_resolves_to_its_own_outcome_under_denied_middle_member() {
    // Three tables; the hub may not write dosage on the MIDDLE one.
    let mut hub = hub_ledger("eng-ticketmap", 3, 1, 0, &[1], 32);
    let tickets = submit_round(&mut hub, 1, 1);
    let wave = hub.service.tick().expect("wave runs");
    assert_eq!(wave.members, 3, "the denied member still rides the wave");
    assert_eq!(wave.resolved, 3);
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(hub.service.is_resolved(*ticket));
        let outcome = hub.service.take(*ticket).expect("resolved");
        if i == 1 {
            let err = outcome.unwrap_err();
            assert!(err.is_permission_denied(), "middle member denied: {err}");
            assert!(err.receipt().is_some());
        } else {
            let ok = outcome.expect("outer members commit");
            assert_eq!(ok.report.table_id, hub.tables[i]);
        }
        assert!(hub.service.take(*ticket).is_none(), "taken exactly once");
    }
    ledger(&hub).check_consistency().expect("consistent");
}

#[test]
fn group_commit_matches_serial_commits_byte_identically() {
    const TABLES: usize = 5;
    let mut grouped = hub_ledger("eng-vs-serial", TABLES, 2, 0, &[], 32);
    let mut serial = hub_ledger("eng-vs-serial", TABLES, 2, 0, &[], 32);

    let blocks_before = ledger(&grouped).stats().blocks;
    for r in wave_round(&mut grouped, 1, 1) {
        r.expect("group member commits");
    }
    let grouped_blocks = ledger(&grouped).stats().blocks - blocks_before;

    let blocks_before = ledger(&serial).stats().blocks;
    for t in serial.tables.clone() {
        serial
            .service
            .ledger_mut()
            .session(serial.hub)
            .begin(t)
            .set(vec![Value::Int(1)], "dosage", Value::text("rev-1"))
            .commit()
            .expect("serial commit");
    }
    let serial_blocks = ledger(&serial).stats().blocks - blocks_before;

    // Same final bytes on every peer...
    assert_eq!(fingerprints(&grouped), fingerprints(&serial));
    ledger(&grouped)
        .check_consistency()
        .expect("grouped consistent");
    ledger(&serial)
        .check_consistency()
        .expect("serial consistent");
    // ...at a fraction of the consensus cost: the group pays one request
    // block for all five updates (serial pays five), and its ack rounds
    // amortize across tables.
    assert!(
        grouped_blocks < serial_blocks,
        "grouped {grouped_blocks} blocks vs serial {serial_blocks}"
    );
    assert!(
        grouped_blocks as usize <= 1 + 2,
        "1 request block + <= receiver-count ack blocks, got {grouped_blocks}"
    );
}

#[test]
fn stress_thread_counts_and_tables_stay_byte_identical() {
    const TABLES: usize = 4;
    const ROUNDS: usize = 2;
    let mut reference: Option<Vec<String>> = None;
    for workers in [1usize, 2, 4] {
        let mut hub = hub_ledger("eng-stress", TABLES, 2, workers, &[], 32);
        for rev in 1..=ROUNDS {
            for r in wave_round(&mut hub, 1, rev) {
                r.expect("member commits");
            }
        }
        ledger(&hub).check_consistency().expect("consistent");
        let fp = fingerprints(&hub);
        match &reference {
            None => reference = Some(fp),
            Some(expected) => assert_eq!(
                &fp, expected,
                "{workers} fan-out workers changed the final state"
            ),
        }
    }
}

#[test]
fn receipt_and_trace_ordering_is_deterministic() {
    // Same seed, same workload; `0` (auto threads, every receiver on its
    // own virtual channel) vs an explicit channel per receiver must agree
    // byte-for-byte on receipts AND traces — thread scheduling must never
    // leak into results.
    let run = |workers: usize| {
        let mut hub = hub_ledger("eng-det", 3, 2, workers, &[], 16);
        let mut receipts: Vec<String> = Vec::new();
        let mut traces = String::new();
        for rev in 1..=2 {
            for o in wave_round(&mut hub, 2, rev) {
                let outcome = o.expect("commits");
                receipts.extend(outcome.receipts.iter().map(|r| r.tx_id.short()));
                traces.push_str(&outcome.trace.render());
            }
        }
        (receipts, traces, fingerprints(&hub))
    };
    let (receipts_auto, traces_auto, fp_auto) = run(0);
    let (receipts_three, traces_three, fp_three) = run(3);
    assert_eq!(receipts_auto, receipts_three);
    assert_eq!(traces_auto, traces_three);
    assert_eq!(fp_auto, fp_three);
    // Repeatability: the exact same call produces the exact same bytes.
    let (receipts_again, traces_again, fp_again) = run(0);
    assert_eq!(receipts_auto, receipts_again);
    assert_eq!(traces_auto, traces_again);
    assert_eq!(fp_auto, fp_again);
}

/// The world `hub_ledger` builds (every permission with the hub), in the
/// Fig. 5 reference model.
fn hub_model(hub: &Hub) -> Fig5Model {
    let mut model = Fig5Model::default();
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    // (peer name, prefix of its source tables), as `hub_ledger` names them.
    let mut peers = vec![("Hub".to_string(), "H".to_string())];
    peers.extend((0..hub.receivers.len()).map(|j| (format!("R{j}"), format!("R{j}"))));
    for (peer, prefix) in &peers {
        for t in &hub.tables {
            (model.add_peer(peer)).load_source(&format!("{prefix}-{t}"), ward_table());
        }
    }
    for t in &hub.tables {
        let sources: Vec<String> = peers.iter().map(|(_, pre)| format!("{pre}-{t}")).collect();
        let bindings: Vec<_> = (peers.iter().zip(&sources))
            .map(|((peer, _), source)| (peer.as_str(), source.as_str(), lens.clone()))
            .collect();
        let writers: [(&str, &[&str]); 2] = [("dosage", &["Hub"]), ("patient_id", &["Hub"])];
        model.create_share(t, &bindings, &writers);
    }
    model
}

#[test]
fn group_commit_delta_and_full_table_modes_agree() {
    // Two rounds of one wave each, over two tables and two receivers,
    // end where the Fig. 5 reference model ends after committing the
    // same four updates one at a time, whole tables and full lenses.
    let mut hub = hub_ledger("eng-modes", 2, 2, 0, &[], 16);
    let mut model = hub_model(&hub);
    for rev in 1..=2 {
        for r in wave_round(&mut hub, 1, rev) {
            r.expect("member commits");
        }
        for t in &hub.tables {
            let set = Write::Shared(WriteOp::Update {
                key: vec![Value::Int(1)],
                assignments: vec![("dosage".into(), Value::text(format!("rev-{rev}")))],
            });
            model.commit("Hub", t, &[set]).expect("model commits");
        }
        common::assert_matches_model(ledger(&hub), &model, &format!("round {rev}"));
    }
    ledger(&hub).check_consistency().expect("consistent");
}

#[test]
fn denied_member_rolls_back_alone() {
    // The hub may not write dosage on ward-1; ward-0 and ward-2 are
    // fine. All three go into one group.
    let mut hub = hub_ledger("eng-denied", 3, 1, 0, &[1], 16);
    let before = ledger(&hub)
        .reader(hub.hub)
        .read("ward-1")
        .expect("read ward-1");
    let outcomes = wave_round(&mut hub, 1, 1);
    outcomes[0].as_ref().expect("ward-0 commits");
    outcomes[2].as_ref().expect("ward-2 commits");
    let err = outcomes[1].as_ref().unwrap_err();
    assert!(err.is_permission_denied(), "got {err}");
    assert!(
        err.receipt().is_some(),
        "denial carries the reverted on-chain receipt"
    );
    // The denied batch's staged writes were rolled back — the hub's
    // ward-1 copy is untouched — while the committed members stand.
    let after = ledger(&hub)
        .reader(hub.hub)
        .read("ward-1")
        .expect("read ward-1");
    assert_eq!(before, after, "denied member rolled back");
    let ward0 = ledger(&hub).reader(hub.hub).read("ward-0").expect("ward-0");
    assert_eq!(
        ward0.get(&[Value::Int(1)]).expect("row")[1],
        Value::text("rev-1"),
        "committed member stands"
    );
    // Every receiver converged on the committed members too.
    for r in &hub.receivers {
        let w0 = ledger(&hub).reader(*r).read("ward-0").expect("ward-0");
        assert_eq!(
            w0.get(&[Value::Int(1)]).expect("row")[1],
            Value::text("rev-1")
        );
    }
    ledger(&hub).check_consistency().expect("consistent");
}

/// Regression: a wave reserves every one-time signature it will need —
/// its receivers' ack shares included — across all of its members,
/// before any request is queued. Three hubs each share one table with the
/// one receiver `R`, whose 16 keys cover five full waves and a third of the
/// sixth. The members `R` cannot acknowledge any more must be refused
/// alone and up front; checked member by member and for the updater only
/// (as it used to be), their requests committed, `R` failed to sign, and
/// their tables stayed locked for good.
#[test]
fn a_wave_reserves_its_receivers_signatures_before_anything_is_queued() {
    const KEYS: u64 = 16;
    let mut ledger = MedLedger::builder()
        .seed("eng-reserve")
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        })
        .peer_key_capacity(KEYS as usize)
        .build()
        .expect("ledger boots");
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    let r = ledger.add_peer("R").expect("receiver");
    let hubs: Vec<PeerId> = (0..3)
        .map(|i| {
            let hub = ledger.add_peer(&format!("H{i}")).expect("hub");
            let mut session = ledger.session(r);
            (session.load_source(&format!("R-{i}"), ward_table())).expect("source");
            let mut session = ledger.session(hub);
            session.load_source("H", ward_table()).expect("source");
            (session.share(format!("ward-{i}")).bind("H", lens.clone()))
                .with(r, format!("R-{i}"), lens.clone())
                .writers("dosage", &[hub])
                .writers("patient_id", &[hub])
                .create()
                .expect("share");
            hub
        })
        .collect();
    let mut service = LedgerService::new(ledger);

    // Per round, one update per hub, all three in one wave.
    let round = |service: &mut LedgerService, rev: usize| -> Vec<bool> {
        let tickets: Vec<CommitTicket> = (hubs.iter().enumerate())
            .map(|(i, hub)| {
                (service.submit(*hub, format!("ward-{i}")))
                    .set(
                        vec![Value::Int(1)],
                        "dosage",
                        Value::text(format!("rev-{rev}")),
                    )
                    .submit()
                    .expect("submit")
            })
            .collect();
        let wave = service.tick().expect("wave runs");
        assert_eq!((wave.members, wave.resolved), (3, 3), "round {rev}");
        let outcomes = tickets.into_iter().map(|t| {
            let outcome = service.take(t).expect("resolved by the one wave");
            if let Err(e) = &outcome {
                assert!(
                    matches!(
                        e,
                        CommitError::Engine(medledger_core::CoreError::KeysExhausted)
                    ),
                    "round {rev}: {e}"
                );
                assert!(
                    !e.committed_on_chain(),
                    "round {rev}: refused before the chain"
                );
            }
            outcome.is_ok()
        });
        outcomes.collect()
    };
    for rev in 1..=5 {
        assert_eq!(round(&mut service, rev), [true; 3], "round {rev}");
    }
    assert_eq!(round(&mut service, 6), [true, false, false]);
    assert_eq!(round(&mut service, 7), [false; 3]);

    let ledger = service.ledger();
    assert_eq!(ledger.remaining_keys(r).expect("keys"), 0);
    // One key to register the share, two per committed update (request,
    // aggregate ack) — and none for an update refused.
    for (hub, committed) in hubs.iter().zip([6, 5, 5]) {
        let left = ledger.remaining_keys(*hub).expect("keys");
        assert_eq!(left, KEYS - 1 - 2 * committed);
    }
    for (i, committed) in [6u64, 5, 5].into_iter().enumerate() {
        let table = format!("ward-{i}");
        let meta = ledger.share_meta(&table).expect("meta");
        assert!(meta.synced(), "`{table}` is unlocked");
        assert_eq!(meta.version, committed);
        // A refused member's staged write was rolled back.
        for peer in [hubs[i], r] {
            let view = ledger.reader(peer).read(&table).expect("read");
            let dose = view.get(&[Value::Int(1)]).expect("row")[1].clone();
            assert_eq!(dose, Value::text(format!("rev-{committed}")), "`{table}`");
        }
    }
    ledger.check_consistency().expect("consistent");
}

#[test]
fn serial_fanout_channel_is_slower_in_virtual_time() {
    // One table, 8 receivers: with one virtual channel the last receiver
    // sees the data after the *sum* of the transfer latencies; with one
    // channel per receiver, after the *max*. Virtual wall-clock must
    // reflect that ordering.
    let visibility = |workers: usize| {
        let mut hub = hub_ledger("eng-chan", 1, 8, workers, &[], 8);
        let outcome = hub
            .service
            .ledger_mut()
            .session(hub.hub)
            .begin("ward-0")
            .set(vec![Value::Int(1)], "dosage", Value::text("x"))
            .commit()
            .expect("commit");
        outcome.visibility_latency_ms()
    };
    let parallel = visibility(0);
    let serial = visibility(1);
    assert!(
        serial > parallel,
        "serial fan-out ({serial} ms) must be slower than parallel ({parallel} ms)"
    );
}

/// Topology for the interaction-conflict tests: hub X binds ONE source
/// to two shares with overlapping lens footprints (`medication` appears
/// in both), T1 shared with Y and T2 shared with Z.
fn overlapping_shares_ledger(seed: &str) -> (MedLedger, PeerId, PeerId, PeerId) {
    let schema = Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("medication", ValueType::Text),
            Column::new("dosage", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema");
    let mut source = Table::new(schema);
    source
        .insert(row![1i64, "ibuprofen", "10 mg"])
        .expect("row");
    source.insert(row![2i64, "aspirin", "20 mg"]).expect("row");

    let mut ledger = MedLedger::builder()
        .seed(seed)
        .consensus(ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        })
        .peer_key_capacity(16)
        .build()
        .expect("boot");
    let x = ledger.add_peer("X").expect("x");
    let y = ledger.add_peer("Y").expect("y");
    let z = ledger.add_peer("Z").expect("z");

    let full_lens = LensSpec::project(&["patient_id", "medication", "dosage"], &["patient_id"]);
    let med_lens = LensSpec::project(&["patient_id", "medication"], &["patient_id"]);
    ledger
        .session(x)
        .load_source("SX", source.clone())
        .expect("sx");
    ledger
        .session(y)
        .load_source("SY", source.clone())
        .expect("sy");
    ledger
        .session(z)
        .load_source(
            "SZ",
            source
                .project(&["patient_id", "medication"], &["patient_id"])
                .expect("proj"),
        )
        .expect("sz");

    ledger
        .session(x)
        .share("t-dose")
        .bind("SX", full_lens.clone())
        .with(y, "SY", full_lens)
        .writers("dosage", &[x])
        .writers("medication", &[x])
        .writers("patient_id", &[x])
        .create()
        .expect("t-dose");
    ledger
        .session(x)
        .share("t-med")
        .bind("SX", med_lens.clone())
        .with(z, "SZ", med_lens)
        .writers("medication", &[x, z])
        .writers("patient_id", &[x])
        .create()
        .expect("t-med");
    (ledger, x, y, z)
}

/// Both isolation regressions, one script: X updates `t-dose`, X or Z
/// (`med_by_x`) updates the interacting `t-med`, submitted together.
/// Wave 1 must commit `t-dose` alone and re-queue `t-med` **unstaged**;
/// wave 2 commits it.
fn interacting_tables_take_two_waves(seed: &str, med_by_x: bool) {
    let (ledger, x, y, z) = overlapping_shares_ledger(seed);
    let med_by = if med_by_x { x } else { z };
    let med_before = ledger.reader(x).read("t-med").expect("read");
    let z_before = ledger.system().peer(z).expect("z").fingerprint();
    let mut service = LedgerService::new(ledger);
    let dose_ticket = service
        .submit(x, "t-dose")
        .set(vec![Value::Int(1)], "dosage", Value::text("15 mg"))
        .submit()
        .expect("submit t-dose");
    let med_ticket = service
        .submit(med_by, "t-med")
        .set(vec![Value::Int(2)], "medication", Value::text("naproxen"))
        .submit()
        .expect("submit t-med (distinct table name)");

    let wave1 = service.tick().expect("wave 1");
    assert_eq!((wave1.members, wave1.resolved), (1, 1));
    let dose = service
        .take(dose_ticket)
        .expect("resolved in wave 1")
        .expect("t-dose commits");
    // The committed payload carries ONLY the dosage edit — the held-back
    // member's medication change did not leak into it.
    assert_eq!(dose.changed_attrs(), ["dosage"]);
    // The interacting member was re-queued, never staged: no local copy
    // of `t-med` moved, and Z's database is bit-identical.
    assert!(!service.is_resolved(med_ticket));
    assert_eq!(service.pending_submissions(), 1);
    let ledger = service.ledger();
    assert_eq!(med_before, ledger.reader(x).read("t-med").expect("read"));
    assert_eq!(z_before, ledger.system().peer(z).expect("z").fingerprint());
    ledger.check_consistency().expect("consistent after wave 1");

    let wave2 = service.tick().expect("wave 2");
    assert_eq!((wave2.members, wave2.resolved), (1, 1));
    service
        .take(med_ticket)
        .expect("resolved in wave 2")
        .expect("t-med commits in its own wave");
    service
        .ledger()
        .check_consistency()
        .expect("consistent after wave 2");

    // X's source now carries the medication change, so its `t-dose`
    // share differs: the Step-6 cascade re-enters and reaches Y.
    service.drain().expect("cascade wave");
    let ledger = service.ledger();
    for (peer, table) in [(z, "t-med"), (y, "t-dose")] {
        let view = ledger.reader(peer).read(table).expect("read");
        assert_eq!(
            view.get(&[Value::Int(2)]).expect("row")[1],
            Value::text("naproxen")
        );
    }
    ledger.check_consistency().expect("consistent after drain");
}

#[test]
fn same_peer_sibling_share_batches_conflict_and_stay_isolated() {
    // Regression: two submissions from ONE peer whose shares sit on the
    // same source must not share a wave — the second one's staged write
    // cascades into the first's share (sibling refresh), so its
    // uncommitted rows would ride along with the first member's commit
    // and a later rollback would corrupt committed state.
    interacting_tables_take_two_waves("eng-sibling", true);
}

#[test]
fn cross_peer_overlapping_tables_conflict_before_staging() {
    // Regression: members on DIFFERENT updaters whose tables overlap
    // through a third peer's bindings (X binds both t-dose and t-med to
    // one source) must not share a wave either — X's fan-out of the
    // first member would stash a Step-6 cascade that absorbs the second
    // member's still-staged writes.
    interacting_tables_take_two_waves("eng-xpeer", false);
}
