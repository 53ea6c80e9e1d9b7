//! Shared fixtures for the chain-cost tests, the `report` binary and the
//! `telemetry_overhead` bench.
//!
//! `tests/counts.rs` pins the deterministic chain costs (blocks, waves,
//! rows and bytes per commit) as exact integers; the `report` binary runs
//! the experiments (`report -- e1` … `e13`) and prints the *virtual-time*
//! results that correspond to the paper's claims; wall-clock numbers come
//! from `medbench` (`benchmark/`). Everything drives the system through
//! the typed facade (`MedLedger` / `PeerSession` / `UpdateBatch`) or the
//! engine's `LedgerService`.

pub mod baselines;

use medledger_bx::LensSpec;
use medledger_core::{ConsensusKind, MedLedger, PeerId, SystemConfig};
use medledger_engine::LedgerService;
use medledger_relational::{row, Column, Schema, Table, Value, ValueType};
use medledger_storage::SharedBackend;
use medledger_workload::EhrGenerator;

/// A fast PBFT config for benches (100 ms blocks).
pub fn fast_pbft_config(seed: &str) -> SystemConfig {
    SystemConfig {
        consensus: ConsensusKind::PrivatePbft {
            block_interval_ms: 100,
        },
        seed: seed.into(),
        peer_key_capacity: 256,
        ..Default::default()
    }
}

/// A doctor+patient deployment sharing one "ward" table, ready for
/// repeated dosage updates through the facade.
pub struct WardBench {
    /// The running ledger.
    pub ledger: MedLedger,
    /// The hospital side (holds all records; authority of the share).
    pub doctor: PeerId,
    /// The patient side.
    pub patient: PeerId,
}

/// Builds a doctor+patient ledger sharing one table over `n_patients`
/// records.
pub fn two_peer_system(seed: &str, consensus: ConsensusKind, n_patients: usize) -> WardBench {
    let ledger = MedLedger::builder()
        .seed(seed)
        .consensus(consensus)
        .peer_key_capacity(1024)
        .build()
        .expect("boot");
    populate_ward(ledger, seed, n_patients)
}

/// [`two_peer_system`] on a *durable* ledger over a fresh
/// [`SharedBackend`]; the returned backend handle sees every byte the
/// deployment flushes.
pub fn two_peer_system_durable(
    seed: &str,
    consensus: ConsensusKind,
    n_patients: usize,
) -> (WardBench, SharedBackend) {
    let backend = SharedBackend::new();
    let ledger = MedLedger::builder()
        .seed(seed)
        .consensus(consensus)
        .peer_key_capacity(1024)
        .storage_backend(Box::new(backend.clone()))
        .build()
        .expect("boot durable");
    (populate_ward(ledger, seed, n_patients), backend)
}

/// Loads the ward scenario (doctor + patient, one shared table over
/// `n_patients` records) onto an already-built ledger.
fn populate_ward(mut ledger: MedLedger, seed: &str, n_patients: usize) -> WardBench {
    let doctor = ledger.add_peer("Doctor").expect("add");
    let patient = ledger.add_peer("Patient").expect("add");

    let full = EhrGenerator::new(seed).full_records(n_patients);
    let d3 = full
        .project(
            &[
                "patient_id",
                "medication_name",
                "clinical_data",
                "mechanism_of_action",
                "dosage",
            ],
            &["patient_id"],
        )
        .expect("D3");
    let p_src = full
        .project(
            &["patient_id", "medication_name", "clinical_data", "dosage"],
            &["patient_id"],
        )
        .expect("patient source");
    ledger.session(doctor).load_source("D3", d3).expect("add");
    ledger
        .session(patient)
        .load_source("P1", p_src)
        .expect("add");

    let shared_attrs = &["patient_id", "medication_name", "clinical_data", "dosage"];
    ledger
        .session(doctor)
        .share("ward")
        .bind(
            "D3",
            LensSpec::project_with_defaults(
                shared_attrs,
                &["patient_id"],
                &[("mechanism_of_action", Value::text("unknown"))],
            ),
        )
        .with(
            patient,
            "P1",
            LensSpec::project(shared_attrs, &["patient_id"]),
        )
        .writers("patient_id", &[doctor])
        .writers("medication_name", &[doctor])
        .writers("dosage", &[doctor])
        .writers("clinical_data", &[doctor, patient])
        .create()
        .expect("create share");
    WardBench {
        ledger,
        doctor,
        patient,
    }
}

/// Performs one doctor-side dosage update through the full workflow and
/// returns (visibility latency, sync latency) in virtual ms.
pub fn one_dosage_update(bench: &mut WardBench, pid: i64, rev: usize) -> (u64, u64) {
    let outcome = bench
        .ledger
        .session(bench.doctor)
        .begin("ward")
        .set(
            vec![Value::Int(pid)],
            "dosage",
            Value::text(format!("rev-{rev}")),
        )
        .commit()
        .expect("commit");
    (outcome.visibility_latency_ms(), outcome.sync_latency_ms())
}

/// Commits one doctor-side batch touching `pids` (one dosage edit per
/// row) and returns the rows/bytes the propagation moved.
pub fn one_batch_update(bench: &mut WardBench, pids: &[i64], rev: usize) -> (u64, u64) {
    let mut session = bench.ledger.session(bench.doctor);
    let mut batch = session.begin("ward");
    for pid in pids {
        batch = batch.set(
            vec![Value::Int(*pid)],
            "dosage",
            Value::text(format!("rev-{rev}-{pid}")),
        );
    }
    let outcome = batch.commit().expect("commit");
    (outcome.report.rows_moved, outcome.report.bytes_moved)
}

/// A hub-and-spokes deployment for the group-commit tests: one hub
/// peer shares `n_tables` **distinct** shared tables, each with the same
/// `n_receivers` receiver peers — the shape where group commit amortizes
/// consensus cost.
pub struct HubBench {
    /// The pipeline service owning the ledger.
    pub service: LedgerService,
    /// The hub (holds write permission on every table's `dosage`).
    pub hub: PeerId,
    /// The shared-table ids, `ward-0` … `ward-{n-1}`.
    pub tables: Vec<String>,
}

/// Builds a [`HubBench`]: `n_tables` distinct tables of `rows_per_table`
/// rows, each shared between the hub and all `n_receivers` receivers.
/// Peers hold the signing keys for one commit per table (the hub signs a
/// registration, a request and an ack fold for each), so a debug build
/// does not spend minutes deriving keys nobody uses.
pub fn hub_system(
    seed: &str,
    n_tables: usize,
    n_receivers: usize,
    rows_per_table: usize,
) -> HubBench {
    let mut ledger = MedLedger::builder()
        .seed(seed)
        .pbft(100)
        .peer_key_capacity(4 * n_tables)
        .build()
        .expect("boot");
    let hub = ledger.add_peer("Hub").expect("add hub");
    let receivers: Vec<PeerId> = (0..n_receivers)
        .map(|i| ledger.add_peer(&format!("R{i}")).expect("add receiver"))
        .collect();
    let schema = Schema::new(
        vec![
            Column::new("patient_id", ValueType::Int),
            Column::new("dosage", ValueType::Text),
        ],
        &["patient_id"],
    )
    .expect("schema");
    let mut table = Table::new(schema);
    for pid in 0..rows_per_table as i64 {
        table.insert(row![pid, "10 mg"]).expect("seed row");
    }
    let lens = LensSpec::project(&["patient_id", "dosage"], &["patient_id"]);
    let tables: Vec<String> = (0..n_tables).map(|i| format!("ward-{i}")).collect();
    for t in &tables {
        ledger
            .session(hub)
            .load_source(&format!("H-{t}"), table.clone())
            .expect("hub source");
        for (j, r) in receivers.iter().enumerate() {
            ledger
                .session(*r)
                .load_source(&format!("R{j}-{t}"), table.clone())
                .expect("receiver source");
        }
        let mut session = ledger.session(hub);
        let mut share = session
            .share(t.clone())
            .bind(format!("H-{t}"), lens.clone());
        for (j, r) in receivers.iter().enumerate() {
            share = share.with(*r, format!("R{j}-{t}"), lens.clone());
        }
        share
            .writers("patient_id", &[hub])
            .writers("dosage", &[hub])
            .create()
            .expect("create share");
    }
    HubBench {
        service: LedgerService::new(ledger),
        hub,
        tables,
    }
}

/// Commits one dosage update on each of the first `batch` tables as ONE
/// [`LedgerService`] wave (`submit` × batch, one `tick`). Returns the
/// blocks the wave consumed.
pub fn one_group_commit(bench: &mut HubBench, batch: usize, rev: usize) -> u64 {
    let blocks_before = bench.service.ledger().stats().blocks;
    let tickets: Vec<_> = bench
        .tables
        .iter()
        .take(batch)
        .map(|t| {
            bench
                .service
                .submit(bench.hub, t.clone())
                .set(
                    vec![Value::Int(0)],
                    "dosage",
                    Value::text(format!("rev-{rev}")),
                )
                .submit()
                .expect("submit")
        })
        .collect();
    bench.service.tick().expect("wave commits");
    for t in tickets {
        bench
            .service
            .take(t)
            .expect("resolved by the one wave")
            .expect("group member commits");
    }
    bench.service.ledger().stats().blocks - blocks_before
}

/// Counts, among the newest `window` blocks of the chain, how many carry
/// at least one ack transaction (`ack_update` or `ack_update_aggregate`)
/// — the chain cost of a wave's ack side in consensus rounds. With
/// aggregated acks, a whole group-commit wave pays exactly one.
pub fn ack_rounds_in_last_blocks(ledger: &MedLedger, window: u64) -> u64 {
    let blocks = ledger.chain().blocks();
    let skip = blocks.len().saturating_sub(window as usize);
    blocks
        .iter()
        .skip(skip)
        .filter(|b| {
            b.txs.iter().any(|stx| {
                matches!(
                    &stx.tx.payload,
                    medledger_ledger::TxPayload::CallContract { method, .. }
                        if method == "ack_update" || method == "ack_update_aggregate"
                )
            })
        })
        .count() as u64
}

/// The serial baseline for [`one_group_commit`]: the same updates, one
/// facade commit (one block + ack rounds) at a time. Returns the blocks
/// consumed.
pub fn serial_commits(bench: &mut HubBench, batch: usize, rev: usize) -> u64 {
    let blocks_before = bench.service.ledger().stats().blocks;
    for t in bench.tables.iter().take(batch).cloned().collect::<Vec<_>>() {
        bench
            .service
            .ledger_mut()
            .session(bench.hub)
            .begin(t)
            .set(
                vec![Value::Int(0)],
                "dosage",
                Value::text(format!("rev-{rev}")),
            )
            .commit()
            .expect("serial commit");
    }
    bench.service.ledger().stats().blocks - blocks_before
}

// ----------------------------------------------------------------------
// Ticketed pipeline / write-combining contention
// ----------------------------------------------------------------------

/// A deployment where `n_submitters` writer peers contend on ONE shared
/// table: the pipeline's write-combining workload. Each writer owns one
/// attribute column (`attr-i`) of the shared `ward` table, so combined
/// same-table waves exercise per-submitter permissions.
pub struct ContentionBench {
    /// The pipeline service owning the ledger.
    pub service: LedgerService,
    /// The contending writers, in registration order.
    pub writers: Vec<PeerId>,
}

/// Builds a [`ContentionBench`] over `rows` seeded rows.
pub fn contention_system(seed: &str, n_submitters: usize, rows: usize) -> ContentionBench {
    let mut columns = vec![Column::new("patient_id", ValueType::Int)];
    let mut attrs = vec!["patient_id".to_string()];
    for i in 0..n_submitters {
        columns.push(Column::new(format!("attr-{i}"), ValueType::Text));
        attrs.push(format!("attr-{i}"));
    }
    let schema = Schema::new(columns, &["patient_id"]).expect("schema");
    let mut table = Table::new(schema);
    for pid in 0..rows as i64 {
        let mut cells = vec![Value::Int(pid)];
        cells.extend((0..n_submitters).map(|i| Value::text(format!("init-{i}"))));
        table
            .insert(medledger_relational::Row::new(cells))
            .expect("seed row");
    }
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let lens = LensSpec::project(&attr_refs, &["patient_id"]);

    let mut ledger = MedLedger::builder()
        .config(fast_pbft_config(seed))
        .build()
        .expect("boot");
    let writers: Vec<PeerId> = (0..n_submitters)
        .map(|i| ledger.add_peer(&format!("W{i}")).expect("add writer"))
        .collect();
    for (i, w) in writers.iter().enumerate() {
        ledger
            .session(*w)
            .load_source(&format!("S{i}"), table.clone())
            .expect("source");
    }
    // A share needs at least two peers: with a single submitter, a
    // silent reader joins so the fan-out/ack path still runs.
    let reader = if writers.len() == 1 {
        let reader = ledger.add_peer("Reader").expect("reader");
        ledger
            .session(reader)
            .load_source("SR", table)
            .expect("source");
        Some(reader)
    } else {
        None
    };
    let mut session = ledger.session(writers[0]);
    let mut share = session.share("ward").bind("S0", lens.clone());
    for (i, w) in writers.iter().enumerate().skip(1) {
        share = share.with(*w, format!("S{i}"), lens.clone());
    }
    if let Some(reader) = reader {
        share = share.with(reader, "SR", lens.clone());
    }
    share = share.writers("patient_id", &[writers[0]]);
    for (i, w) in writers.iter().enumerate() {
        share = share.writers(format!("attr-{i}"), &[*w]);
    }
    share.create().expect("share");
    ContentionBench {
        service: LedgerService::new(ledger),
        writers,
    }
}

/// One pipeline round: every writer submits an update of its own
/// attribute against the SAME table, then the service drains. Returns
/// `(blocks consumed, tickets resolved)` — with write combining this is
/// one wave: one request block (request + co-requests) plus the batched
/// ack blocks.
pub fn one_contended_wave(bench: &mut ContentionBench, rev: usize) -> (u64, usize) {
    let blocks_before = bench.service.ledger().stats().blocks;
    let tickets: Vec<_> = bench
        .writers
        .clone()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            bench
                .service
                .submit(w, "ward")
                .set(
                    vec![Value::Int(0)],
                    format!("attr-{i}"),
                    Value::text(format!("rev-{rev}-{i}")),
                )
                .submit()
                .expect("submit")
        })
        .collect();
    let resolved = bench.service.drain().expect("drain");
    for t in tickets {
        bench
            .service
            .take(t)
            .expect("resolved")
            .expect("contended submission commits");
    }
    (
        bench.service.ledger().stats().blocks - blocks_before,
        resolved,
    )
}

/// The serial baseline for [`one_contended_wave`]: the same updates, one
/// blocking facade commit at a time — what same-table writers pay under
/// the paper's one-update-per-table-per-block rule when nothing combines
/// their writes. Returns blocks consumed.
pub fn serial_contended_commits(bench: &mut ContentionBench, rev: usize) -> u64 {
    let blocks_before = bench.service.ledger().stats().blocks;
    for (i, w) in bench.writers.clone().into_iter().enumerate() {
        bench
            .service
            .ledger_mut()
            .session(w)
            .begin("ward")
            .set(
                vec![Value::Int(0)],
                format!("attr-{i}"),
                Value::text(format!("serial-{rev}-{i}")),
            )
            .commit()
            .expect("serial commit");
    }
    bench.service.ledger().stats().blocks - blocks_before
}

/// Remaining signing keys of the scarcest writer (the bench rebuilds
/// before keys run dry).
pub fn contention_keys_left(bench: &ContentionBench) -> u64 {
    bench
        .writers
        .iter()
        .map(|w| {
            bench
                .service
                .ledger()
                .remaining_keys(*w)
                .expect("known peer")
        })
        .min()
        .unwrap_or(0)
}

// ----------------------------------------------------------------------
// Both peers over the shared view
// ----------------------------------------------------------------------

/// A doctor+patient ledger like [`two_peer_system`], both peers holding
/// the shared view as their source. The shard count is ignored — every
/// peer stores a shared table as one table; the parameter stays because
/// `tests/counts.rs` pins a commit through this signature.
pub fn two_peer_system_sharded(
    seed: &str,
    consensus: ConsensusKind,
    n_patients: usize,
    _shards: usize,
) -> WardBench {
    let mut ledger = MedLedger::builder()
        .seed(seed)
        .consensus(consensus)
        .peer_key_capacity(1024)
        .build()
        .expect("boot");
    let doctor = ledger.add_peer("Doctor").expect("add");
    let patient = ledger.add_peer("Patient").expect("add");

    let full = EhrGenerator::new(seed).full_records(n_patients);
    let shared_attrs = &["patient_id", "medication_name", "clinical_data", "dosage"];
    let view = full
        .project(shared_attrs, &["patient_id"])
        .expect("shared view");
    ledger
        .session(doctor)
        .load_source("D3", view.clone())
        .expect("add");
    ledger
        .session(patient)
        .load_source("P1", view)
        .expect("add");
    let lens = LensSpec::project(shared_attrs, &["patient_id"]);
    ledger
        .session(doctor)
        .share("ward")
        .bind("D3", lens.clone())
        .with(patient, "P1", lens)
        .writers("patient_id", &[doctor])
        .writers("medication_name", &[doctor])
        .writers("dosage", &[doctor])
        .writers("clinical_data", &[doctor, patient])
        .create()
        .expect("create share");
    WardBench {
        ledger,
        doctor,
        patient,
    }
}

/// The standard projection lens of the `report` lens-law experiment (E10).
pub fn wide_projection() -> LensSpec {
    LensSpec::project(
        &["patient_id", "medication_name", "clinical_data", "dosage"],
        &["patient_id"],
    )
}
