//! Hostile and damaged bytes through the sharing contract's decoders.
//!
//! Any member may sign a transaction, so a call's `args` are input from
//! outside the program. For each of the seven methods, and for a stored
//! Fig. 3 row ([`SharedTableMeta`]), whatever bytes arrive either decode
//! to a value that re-encodes to exactly those bytes — so every call has
//! one encoding — or are refused: a `BadCall` revert for a call, a codec
//! error for a row. Decoding never panics, the contract run on the bytes
//! never panics, and the heap a decode holds stays linear in its input.
//!
//! The allocation bound is measured, as in `medledger-storage`'s
//! `decode_props`: this test binary runs under a counting global
//! allocator with per-thread counters.

use medledger_contracts::call::{
    AckAggregateArgs, AckUpdateArgs, ChangePermissionArgs, CoRequestUpdateArgs, RegisterShareArgs,
    RemoveShareArgs, RequestUpdateArgs,
};
use medledger_contracts::{
    CallCtx, ContractError, ContractState, SharedTableMeta, SharingCall, SharingContract,
};
use medledger_crypto::{Hash256, PublicKey};
use medledger_storage::codec::put_varint;
use medledger_storage::{Decode, Encode, StorageError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::LazyLock;

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and the highest
    /// that figure has been since the last reset.
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

/// Heap a decode of `len` input bytes may hold at its peak. The densest
/// inputs are the smallest elements: a one-byte empty string becomes a
/// 24-byte `String` in a vector that may be mid-doubling (old and new
/// buffers: 48 bytes per input byte, measured), and a three- or four-byte
/// map entry — a short key and an empty writer list — becomes a slot of a
/// B-tree node that ascending inserts leave about half full (~95 bytes,
/// 23 per input byte, measured). Plus the error message.
fn allowance(len: usize) -> usize {
    64 * len + 1024
}

fn peer(n: u8) -> PublicKey {
    PublicKey(Hash256([n; 32]))
}

/// One call per method, every field set, its numbers past one varint byte.
fn samples() -> &'static [SharingCall] {
    static SAMPLES: LazyLock<Vec<SharingCall>> = LazyLock::new(|| {
        let table_id = "D13&D31".to_string();
        vec![
            SharingCall::RegisterShare(RegisterShareArgs {
                table_id: table_id.clone(),
                peers: vec![peer(1), peer(2)],
                write_permission: [
                    ("clinical_data".to_string(), vec![peer(1), peer(2)]),
                    ("dosage".to_string(), vec![peer(1)]),
                ]
                .into(),
                authority: peer(1),
                initial_hash: Hash256([3; 32]),
            }),
            SharingCall::RequestUpdate(RequestUpdateArgs {
                table_id: table_id.clone(),
                new_hash: Hash256([4; 32]),
                changed_attrs: vec!["dosage".into(), "clinical_data".into()],
            }),
            SharingCall::CoRequestUpdate(CoRequestUpdateArgs {
                table_id: table_id.clone(),
                version: 300,
                changed_attrs: vec!["clinical_data".into()],
                new_hash: Hash256([4; 32]),
            }),
            SharingCall::AckUpdate(AckUpdateArgs {
                table_id: table_id.clone(),
                version: 300,
                applied_hash: Hash256([4; 32]),
            }),
            SharingCall::AckUpdateAggregate(AckAggregateArgs {
                table_id: table_id.clone(),
                version: 300,
                applied_hash: Hash256([4; 32]),
                contributors: vec![peer(2), peer(3)],
                attestation: Hash256([5; 32]),
            }),
            SharingCall::ChangePermission(ChangePermissionArgs {
                table_id: table_id.clone(),
                attr: "dosage".into(),
                writers: vec![peer(1), peer(2)],
            }),
            SharingCall::RemoveShare(RemoveShareArgs { table_id }),
        ]
    });
    &SAMPLES
}

fn ctx() -> CallCtx {
    CallCtx {
        sender: peer(1),
        contract: Hash256([7; 32]),
        block_height: 2,
        timestamp_ms: 2_000,
    }
}

/// Contract state holding the registered `D13&D31` share, so a decoded
/// call reaches its handler's checks rather than stopping at "not found".
fn registered() -> &'static ContractState {
    static STATE: LazyLock<ContractState> = LazyLock::new(|| {
        let mut state = ContractState::new();
        let register = &samples()[0];
        SharingContract::call(&mut state, &ctx(), register.method(), &register.encoded())
            .expect("register");
        state
    });
    &STATE
}

/// A Fig. 3 row mid-update: every field non-empty.
fn sample_meta() -> SharedTableMeta {
    let mut state = registered().clone();
    let update = &samples()[1];
    SharingContract::call(&mut state, &ctx(), update.method(), &update.encoded()).expect("update");
    let mut meta = SharingContract::load_meta(&state, "D13&D31").expect("meta");
    meta.ack_count = 1;
    meta.ack_bitmap = vec![0b10, 300];
    meta
}

/// `args` under `method`, under the allocation bound: a decoded call must
/// re-encode to exactly `args`, a refused one must be a `BadCall`, and
/// the contract run on the same bytes must agree and not panic.
fn check_call(method: &str, args: &[u8]) -> Result<Option<SharingCall>, TestCaseError> {
    let (decoded, peak) = peak_during(|| SharingCall::decode(method, args));
    prop_assert!(
        peak <= allowance(args.len()),
        "decoding {} bytes held {peak} bytes of heap",
        args.len()
    );
    let decoded = match decoded {
        Ok(call) => {
            prop_assert_eq!(call.method(), method);
            prop_assert_eq!(call.encoded(), args);
            Some(call)
        }
        Err(ContractError::BadCall(_)) => None,
        Err(other) => return Err(TestCaseError::fail(format!("not a bad call: {other}"))),
    };
    let mut state = registered().clone();
    let ran = SharingContract::call(&mut state, &ctx(), method, args);
    if decoded.is_none() {
        prop_assert!(matches!(ran, Err(ContractError::BadCall(_))), "{:?}", ran);
    }
    Ok(decoded)
}

/// The same for a stored row: decoded re-encodes exactly, or a codec error.
fn check_meta(bytes: &[u8]) -> Result<Option<SharedTableMeta>, TestCaseError> {
    let (decoded, peak) = peak_during(|| SharedTableMeta::decode(bytes));
    prop_assert!(
        peak <= allowance(bytes.len()),
        "decoding {} bytes held {peak} bytes of heap",
        bytes.len()
    );
    match decoded {
        Ok(meta) => {
            prop_assert_eq!(meta.encoded(), bytes);
            Ok(Some(meta))
        }
        Err(StorageError::Codec(_)) => Ok(None),
        Err(other) => Err(TestCaseError::fail(format!("not a codec error: {other}"))),
    }
}

#[test]
fn samples_round_trip_and_run() {
    for call in samples() {
        let args = call.encoded();
        let back = check_call(call.method(), &args).expect("within bounds");
        assert_eq!(back.as_ref(), Some(call));
    }
    let meta = sample_meta();
    assert_eq!(check_meta(&meta.encoded()).expect("bounds"), Some(meta));
}

/// The inputs that cost the most heap per byte, at a size where the
/// per-byte cost dominates: thousands of empty attribute names, and
/// thousands of one- and two-letter writer-map keys with no writers.
#[test]
fn the_densest_args_stay_within_the_allowance() {
    let mut empty_attrs = Vec::new();
    "t".to_string().encode_into(&mut empty_attrs);
    Hash256([4; 32]).encode_into(&mut empty_attrs);
    medledger_storage::codec::put_seq(&mut empty_attrs, &vec![String::new(); 8_000]);
    assert!(check_call("request_update", &empty_attrs)
        .expect("within bounds")
        .is_some());

    let keys: std::collections::BTreeSet<String> = ('a'..='z')
        .flat_map(|a| {
            std::iter::once(a.to_string()).chain(('a'..='z').map(move |b| format!("{a}{b}")))
        })
        .collect();
    let mut tiny_map = Vec::new();
    "t".to_string().encode_into(&mut tiny_map);
    put_varint(&mut tiny_map, 0); // no peers
    put_varint(&mut tiny_map, keys.len() as u64);
    for key in &keys {
        key.encode_into(&mut tiny_map);
        put_varint(&mut tiny_map, 0); // no writers
    }
    peer(1).encode_into(&mut tiny_map);
    Hash256([3; 32]).encode_into(&mut tiny_map);
    assert!(check_call("register_share", &tiny_map)
        .expect("within bounds")
        .is_some());
}

/// The two ways a decoder could accept a second spelling of one call: a
/// varint padded with a continuation byte, and a map written out of key
/// order. Both are refused.
#[test]
fn a_second_spelling_of_a_call_is_a_bad_call() {
    let mut padded = Vec::new();
    "D13&D31".to_string().encode_into(&mut padded);
    padded.extend_from_slice(&[0x81, 0x00]); // version 1, padded
    Hash256([4; 32]).encode_into(&mut padded);
    assert!(matches!(
        SharingCall::decode("ack_update", &padded),
        Err(ContractError::BadCall(_))
    ));

    let SharingCall::RegisterShare(register) = &samples()[0] else {
        unreachable!("the first sample registers");
    };
    let mut swapped = Vec::new();
    register.table_id.encode_into(&mut swapped);
    medledger_storage::codec::put_seq(&mut swapped, &register.peers);
    put_varint(&mut swapped, register.write_permission.len() as u64);
    for (attr, writers) in register.write_permission.iter().rev() {
        attr.encode_into(&mut swapped);
        medledger_storage::codec::put_seq(&mut swapped, writers);
    }
    register.authority.encode_into(&mut swapped);
    register.initial_hash.encode_into(&mut swapped);
    assert!(matches!(
        SharingCall::decode("register_share", &swapped),
        Err(ContractError::BadCall(msg)) if msg.contains("not strictly ascending")
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_args_never_panic_or_over_allocate(
        method in 0usize..7,
        args in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        check_call(samples()[method].method(), &args)?;
    }

    /// Damage to a real encoding gets much further into the decoder than
    /// noise does: one byte rewritten, the tail cut, or bytes appended.
    #[test]
    fn damaged_args_never_panic_or_over_allocate(
        method in 0usize..7,
        at in 0usize..4096,
        byte in any::<u8>(),
        cut in 0usize..4096,
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let call = &samples()[method];
        let good = call.encoded();

        let mut rewritten = good.clone();
        let at = at % good.len();
        rewritten[at] = byte;
        if let Some(back) = check_call(call.method(), &rewritten)? {
            prop_assert_eq!(&back == call, rewritten == good);
        }

        prop_assert!(check_call(call.method(), &good[..cut % good.len()])?.is_none());

        let mut longer = good.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(check_call(call.method(), &longer)?.is_none());
    }

    #[test]
    fn arbitrary_rows_never_panic_or_over_allocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        check_meta(&bytes)?;
    }

    #[test]
    fn damaged_rows_never_panic_or_over_allocate(
        at in 0usize..4096,
        byte in any::<u8>(),
        cut in 0usize..4096,
        extra in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let good = sample_meta().encoded();
        let mut rewritten = good.clone();
        rewritten[at % good.len()] = byte;
        check_meta(&rewritten)?;
        prop_assert!(check_meta(&good[..cut % good.len()])?.is_none());
        let mut longer = good.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(check_meta(&longer)?.is_none());
    }
}
