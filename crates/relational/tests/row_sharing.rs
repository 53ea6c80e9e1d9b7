//! What copying a wide row costs, with no clock: the heap a clone
//! allocates. A row's cells are one shared immutable slice, so cloning a
//! row — or a delta full of rows, as the fan-out, undo and compose code
//! does on every apply — copies no cell.
//!
//! The shape is the 152-field EMR record: an integer key and 151 text
//! cells of 32 bytes each.
//!
//! This test binary runs under a counting global allocator with
//! per-thread counters (the test harness runs tests on several threads
//! at once).

use medledger_relational::{Row, TableDelta, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

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

const COLUMNS: usize = 152;

/// Record `id`: its key, then 151 distinct 32-byte text cells.
fn wide_row(id: i64) -> Row {
    let cells = (1..COLUMNS).map(|c| Value::text(format!("{id:016}-{c:015}")));
    std::iter::once(Value::Int(id)).chain(cells).collect()
}

/// The bytes the row's cells own on the heap: the slice and every text.
fn cell_payload(row: &Row) -> usize {
    let texts = row.iter().map(|v| v.as_text().map_or(0, str::len));
    row.len() * size_of::<Value>() + texts.sum::<usize>()
}

#[test]
fn cloning_a_wide_row_allocates_nothing() {
    let row = wide_row(7);
    assert_eq!(row.len(), COLUMNS);
    assert!(cell_payload(&row) > 8 * 1024, "the shape is really wide");
    let (copy, bytes) = allocated_during(|| row.clone());
    assert_eq!(bytes, 0, "a row clone copies no cell");
    assert_eq!(copy, row);
    assert_eq!(copy.encode(), row.encode());
}

#[test]
fn cloning_a_wide_delta_copies_spines_and_keys_only() {
    let key = |id: i64| vec![Value::Int(id)];
    let delta = TableDelta {
        inserts: (0..4).map(wide_row).collect(),
        updates: (4..8).map(|id| (key(id), wide_row(id))).collect(),
        deletes: (8..10).map(key).collect(),
    };
    let (copy, bytes) = allocated_during(|| delta.clone());
    assert_eq!(copy, delta);
    let spines =
        4 * size_of::<Row>() + 4 * size_of::<(Vec<Value>, Row)>() + 2 * size_of::<Vec<Value>>();
    let keys = (4 + 2) * size_of::<Value>();
    assert_eq!(bytes, spines + keys, "no cell payload is copied");
    assert!(bytes < cell_payload(&delta.inserts[0]) / 10);
}
