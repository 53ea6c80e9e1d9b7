//! What a one-row delta through `select ∘ project` costs, with no clock:
//! the heap it allocates on a 100 000-row source. A row-wise `Compose`
//! builds its middle view from the source rows at the delta's keys only,
//! so the bound is a constant; a middle view of the whole source would
//! clone every visible row (about 50 000 here) and blow through it.
//!
//! This test binary runs under a counting global allocator with
//! per-thread counters (the test harness runs tests on several threads
//! at once).

use medledger_bx::{get_delta, put_delta, LensSpec};
use medledger_relational::{row, Column, Predicate, Schema, Table, TableDelta, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::LazyLock;

thread_local! {
    /// Bytes this thread has allocated since the last reset, frees not
    /// subtracted. `const`-initialised and without destructors, so
    /// touching it allocates nothing.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter beside it is a plain thread-local
// integer and never touches the heap.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: same layout, same contract as this function's own.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes this thread allocated
/// during it.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The most one one-row delta may allocate, whatever the source size.
const BOUND: usize = 64 * 1024;

const ROWS: i64 = 100_000;

/// A D3-shaped source (the paper's doctor table) of [`ROWS`] patients,
/// every other one on Ibuprofen.
fn d3() -> &'static Table {
    static D3: LazyLock<Table> = LazyLock::new(|| {
        let schema = Schema::new(
            vec![
                Column::new("patient_id", ValueType::Int),
                Column::new("medication_name", ValueType::Text),
                Column::new("clinical_data", ValueType::Text),
                Column::new("mechanism_of_action", ValueType::Text),
                Column::new("dosage", ValueType::Text),
            ],
            &["patient_id"],
        )
        .expect("schema");
        let rows = (0..ROWS).map(|id| {
            let med = if id % 2 == 0 {
                "Ibuprofen"
            } else {
                "Wellbutrin"
            };
            row![id, med, format!("CliD{id}"), "MeA1", "one tablet every 4h"]
        });
        Table::from_rows(schema, rows.collect()).expect("table")
    });
    &D3
}

/// Fig. 1's doctor-side share shape: these patients' rows, these columns.
fn select_project() -> LensSpec {
    LensSpec::select(Predicate::eq("medication_name", Value::text("Ibuprofen"))).compose(
        LensSpec::project_with_defaults(
            &["patient_id", "medication_name", "clinical_data", "dosage"],
            &["patient_id"],
            &[("mechanism_of_action", Value::text("unknown"))],
        ),
    )
}

const PATIENT: i64 = 4_242;

#[test]
fn one_row_put_delta_allocates_a_constant() {
    let (src, lens) = (d3(), select_project());
    let view_delta = TableDelta {
        updates: vec![(
            vec![Value::Int(PATIENT)],
            row![PATIENT, "Ibuprofen", format!("CliD{PATIENT}"), "halved"],
        )],
        ..Default::default()
    };
    let (out, bytes) = allocated_during(|| put_delta(&lens, src, &view_delta));
    let out = out.expect("put_delta");
    assert_eq!(
        out.updates,
        vec![(
            vec![Value::Int(PATIENT)],
            row![
                PATIENT,
                "Ibuprofen",
                format!("CliD{PATIENT}"),
                "MeA1",
                "halved"
            ],
        )]
    );
    assert!(bytes <= BOUND, "put_delta allocated {bytes} bytes");
}

#[test]
fn one_row_get_delta_allocates_a_constant() {
    let (src, lens) = (d3(), select_project());
    let source_delta = TableDelta {
        updates: vec![(
            vec![Value::Int(PATIENT)],
            row![
                PATIENT,
                "Ibuprofen",
                format!("CliD{PATIENT}"),
                "MeA1",
                "halved"
            ],
        )],
        ..Default::default()
    };
    let (out, bytes) = allocated_during(|| get_delta(&lens, src, &source_delta));
    let out = out.expect("get_delta");
    assert_eq!(
        out.updates,
        vec![(
            vec![Value::Int(PATIENT)],
            row![PATIENT, "Ibuprofen", format!("CliD{PATIENT}"), "halved"],
        )]
    );
    assert!(bytes <= BOUND, "get_delta allocated {bytes} bytes");
}
