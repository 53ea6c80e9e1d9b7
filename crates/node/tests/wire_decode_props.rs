//! Hostile and damaged bytes through the wire decoder: whatever
//! `Envelope::from_frame` is fed, it returns an envelope that re-encodes
//! to exactly those bytes or an error — it never panics, and it never
//! reserves more heap than the frame could possibly fill (a corrupt
//! element count is the classic way to make a decoder allocate
//! gigabytes).
//!
//! The allocation bounds are measured, not argued: this test binary runs
//! under a counting global allocator with per-thread counters (the test
//! harness runs tests on several threads at once). Two bounds, because
//! decoded elements are larger in memory than on the wire (a three-byte
//! write is a `WireWrite` of a hundred-odd bytes): what a decoder
//! reserves *ahead* of the elements it has decoded is held to twice the
//! input plus 512 bytes, as for the storage codec's signatures; what it
//! holds in all stays linear in the input.

use medledger_crypto::sha256;
use medledger_ledger::{LogEntry, Receipt, RevertKind, TxStatus};
use medledger_node::wire::{Envelope, Message, RejectKind, WireCommit, WireReject, WireWrite};
use medledger_relational::{Row, TableDelta, Value, WriteOp};
use medledger_storage::codec::put_varint;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::LazyLock;

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and the highest
    /// that figure has been since the last reset. `const`-initialised and
    /// without destructors, so touching them allocates nothing.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it are plain thread-local
// integers and never touch the heap.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `System.alloc`'s, passed through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|live| {
            live.set(live.get() + layout.size());
            PEAK.with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: same layout, same contract as this function's own.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `System.dealloc`'s, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the most heap this thread held
/// during it, over what it held going in.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// Heap a decode of `len` bytes may reserve before decoding an element:
/// the vectors it reserves can be no larger than the bytes they are read
/// from, a vector that grows holds old and new buffers for a moment, and
/// there is the error message.
fn reserve_allowance(len: usize) -> usize {
    2 * len + 512
}

/// Heap a decode of `len` bytes may hold in all: every element takes at
/// least one byte on the wire and in memory no more than a `WireWrite`
/// (the largest), three of them while the vector holding it doubles.
fn allowance(len: usize) -> usize {
    3 * std::mem::size_of::<WireWrite>() * len + 512
}

/// Decodes `bytes` holding at most `allowance(bytes.len())` of heap. `Ok`
/// must re-encode to the same bytes.
fn decode_within(
    bytes: &[u8],
    allowance: fn(usize) -> usize,
) -> Result<Option<Envelope>, TestCaseError> {
    let (decoded, peak) = peak_during(|| Envelope::from_frame(bytes));
    prop_assert!(
        peak <= allowance(bytes.len()),
        "decoding {} bytes held {peak} bytes of heap",
        bytes.len()
    );
    match decoded {
        Ok(Some(env)) => {
            prop_assert_eq!(env.encoded(), bytes);
            Ok(Some(env))
        }
        Ok(None) => Err(TestCaseError::fail("a frame decoded to nothing")),
        Err(_) => Ok(None),
    }
}

fn receipt(status: TxStatus) -> Receipt {
    Receipt {
        tx_id: sha256(b"wire decode props"),
        status,
        gas_used: 1_234,
        logs: vec![LogEntry {
            contract: sha256(b"sharing contract"),
            topic: "UpdateCommitted".into(),
            data: r#"{"table":"ward","version":3}"#.into(),
        }],
    }
}

/// Real frames, one per message shape the gateway and its sessions
/// exchange with a payload worth damaging.
fn frames() -> &'static [Vec<u8>] {
    static FRAMES: LazyLock<Vec<Vec<u8>>> = LazyLock::new(|| {
        let dosage = |v: &str| ("dosage".to_string(), Value::text(v));
        let bodies = vec![
            Message::Submit {
                peer: "Doctor".into(),
                table: "ward".into(),
                writes: vec![
                    WireWrite::Shared(WriteOp::Update {
                        key: vec![Value::Int(188)],
                        assignments: vec![dosage("two tablets a day")],
                    }),
                    WireWrite::Shared(WriteOp::Insert {
                        row: Row::new(vec![Value::Int(189), Value::text("one tablet, with food")]),
                    }),
                    WireWrite::Source {
                        table: "D3".into(),
                        op: WriteOp::Delete {
                            key: vec![Value::text("Ibuprofen")],
                        },
                    },
                    WireWrite::Shared(WriteOp::Delta {
                        delta: TableDelta {
                            inserts: Vec::new(),
                            updates: vec![(
                                vec![Value::Int(190)],
                                Row::new(vec![Value::Int(190), Value::text("as needed")]),
                            )],
                            deletes: vec![vec![Value::Int(191)]],
                        },
                    }),
                ],
            },
            Message::Outcome {
                ticket: 7,
                result: Ok(WireCommit {
                    receipts: vec![receipt(TxStatus::Success)],
                    version: 3,
                    changed_attrs: vec!["dosage".into(), "clinical_data".into()],
                    cascades: 1,
                    visibility_latency_ms: 120,
                    sync_latency_ms: 240,
                }),
            },
            Message::Outcome {
                ticket: 8,
                result: Err(WireReject {
                    kind: RejectKind::PermissionDenied,
                    reason: "Patient may not write `dosage`".into(),
                    table_id: "ward".into(),
                    receipt: Some(receipt(TxStatus::Reverted {
                        kind: RevertKind::PermissionDenied,
                        reason: "Patient may not write `dosage`".into(),
                    })),
                }),
            },
            Message::Poll {
                ticket: 7,
                park: true,
            },
            Message::Stats {
                json: r#"{"counters":{"chain.waves":4,"gateway.submissions":9}}"#.into(),
            },
        ];
        let envelope = |(corr, body)| Envelope { corr, body }.encoded();
        (300u64..).zip(bodies).map(envelope).collect()
    });
    &FRAMES
}

#[test]
fn real_frames_round_trip() {
    for frame in frames() {
        let env = decode_checked(frame)
            .expect("within the bound")
            .expect("decodes");
        assert_eq!(&env.encoded(), frame);
    }
}

fn decode_checked(bytes: &[u8]) -> Result<Option<Envelope>, TestCaseError> {
    decode_within(bytes, allowance)
}

/// A count far beyond the bytes left — of writes, of a row's cells, of an
/// update's assignments — errors without reserving anything like it: the
/// bytes after it fail the first element, so all the decoder holds is
/// what it reserved up front.
#[test]
fn a_corrupt_count_reserves_nothing() {
    let head = |tag: u8| {
        let mut bytes = Envelope {
            corr: 1,
            body: Message::Close,
        }
        .encoded();
        bytes.pop();
        bytes.push(tag);
        bytes
    };
    let submit = || {
        let mut bytes = head(0);
        for s in ["Doctor", "ward"] {
            put_varint(&mut bytes, s.len() as u64);
            bytes.extend_from_slice(s.as_bytes());
        }
        bytes
    };
    // Writes (then an invalid write tag); one insert's cells (an invalid
    // value tag); one update's assignments (a truncated column name).
    let prefixes = [
        submit(),
        [submit(), vec![1, 0, 0]].concat(),
        [submit(), vec![1, 0, 1, 0]].concat(),
    ];
    for prefix in prefixes {
        for (count, filler) in [(u64::MAX / 2, 100), (4000, 4000)] {
            let mut bytes = prefix.clone();
            put_varint(&mut bytes, count);
            bytes.resize(bytes.len() + filler, 0xFF);
            let decoded = decode_within(&bytes, reserve_allowance).expect("within the bound");
            assert!(decoded.is_none(), "count {count} decoded");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_over_allocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        decode_checked(&bytes)?;
    }

    /// Arbitrary bytes behind a valid version byte and message tag get
    /// past the envelope header into every message's decoder.
    #[test]
    fn arbitrary_message_bodies_never_panic_or_over_allocate(
        tag in 0u8..17,
        body in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut bytes = vec![medledger_node::wire::WIRE_VERSION, 0, tag];
        bytes.extend_from_slice(&body);
        decode_checked(&bytes)?;
    }

    /// Damage to a real frame gets much further into the decoder than
    /// noise does: one byte rewritten, the tail cut, or bytes appended.
    #[test]
    fn a_damaged_frame_never_panics_or_over_allocates(
        which in 0usize..5,
        at in 0usize..4096,
        byte in any::<u8>(),
        cut in 0usize..4096,
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let good = &frames()[which % frames().len()];

        let mut rewritten = good.clone();
        rewritten[at % good.len()] = byte;
        decode_checked(&rewritten)?;

        let cut = cut % good.len();
        prop_assert!(decode_checked(&good[..cut])?.is_none(), "cut at {}", cut);

        let mut longer = good.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(decode_checked(&longer)?.is_none());
    }
}
