//! Hostile and damaged bytes through `Signature`'s decoder: whatever it is
//! fed, it returns a value that re-encodes to exactly those bytes or a
//! codec error — it never panics, and it never reserves more memory than
//! the input could possibly fill (a corrupt element count is the classic
//! way to make a decoder allocate gigabytes).
//!
//! The allocation bound is measured, not argued: this test binary runs
//! under a counting global allocator with per-thread counters (the test
//! harness runs tests on several threads at once).

use medledger_crypto::{Hash256, KeyPair, PublicKey, Signature};
use medledger_storage::codec::{put_seq, put_varint};
use medledger_storage::{Decode, Encode, StorageError};
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

/// Heap a decode of `len` input bytes may hold at its peak: the decoded
/// vectors can be no larger than the bytes they were read from, and a
/// vector that grows holds old and new buffers for a moment, plus the
/// error message.
fn allowance(len: usize) -> usize {
    2 * len + 512
}

/// Decodes `bytes` under the allocation bound. `Ok` must re-encode to the
/// same bytes; `Err` must be a codec error.
fn decode_checked(bytes: &[u8]) -> Result<Option<Signature>, TestCaseError> {
    let (decoded, peak) = peak_during(|| Signature::decode(bytes));
    prop_assert!(
        peak <= allowance(bytes.len()),
        "decoding {} bytes held {peak} bytes of heap",
        bytes.len()
    );
    match decoded {
        Ok(sig) => {
            prop_assert_eq!(sig.encoded(), bytes);
            Ok(Some(sig))
        }
        Err(StorageError::Codec(_)) => Ok(None),
        Err(other) => Err(TestCaseError::fail(format!("not a codec error: {other}"))),
    }
}

const MESSAGE: &[u8] = b"a ledger transaction digest";

/// A signature at leaf 5 of an 8-key tree, and the key that verifies it.
fn sample() -> &'static (PublicKey, Signature) {
    static SAMPLE: LazyLock<(PublicKey, Signature)> = LazyLock::new(|| {
        let mut keys = KeyPair::generate("decode-props", 8);
        keys.restore_used(5);
        (keys.public(), keys.sign(MESSAGE).expect("sign"))
    });
    &SAMPLE
}

#[test]
fn signature_round_trips_and_still_verifies() {
    let (public, sig) = sample();
    let bytes = sig.encoded();
    // leaf index + count + 67 values, then the path: index + count + 3 nodes.
    assert_eq!(bytes.len(), 1 + 1 + 67 * 32 + 1 + 1 + 3 * 32);
    let back = Signature::decode(&bytes).expect("decodes");
    assert_eq!(&back, sig);
    assert!(back.verify(public, MESSAGE));
}

/// What the Lamport build wrote in a signature's place: a leaf index, two
/// 256-value sequences and the path.
#[test]
fn a_lamport_shaped_signature_is_a_codec_error() {
    let (_, sig) = sample();
    let values = vec![Hash256([0x5a; 32]); 256];
    let mut bytes = Vec::new();
    put_varint(&mut bytes, sig.leaf_index);
    put_seq(&mut bytes, &values);
    put_seq(&mut bytes, &values);
    sig.auth_path.encode_into(&mut bytes);
    let err = Signature::decode(&bytes).expect_err("512 values are not a signature");
    assert!(
        matches!(&err, StorageError::Codec(msg) if msg.contains("256 chain values, expected 67")),
        "{err}"
    );
}

#[test]
fn wrong_chain_counts_are_codec_errors() {
    let (_, sig) = sample();
    for count in [0usize, 66, 68] {
        let mut wrong = sig.clone();
        wrong.chains.resize(count, Hash256::ZERO);
        assert!(
            matches!(
                Signature::decode(&wrong.encoded()),
                Err(StorageError::Codec(_))
            ),
            "{count} chain values"
        );
    }
}

/// A count far beyond the buffer — in the chain values or in the path —
/// errors without reserving anything like it.
#[test]
fn a_corrupt_count_reserves_nothing() {
    let (_, sig) = sample();
    for at_path in [false, true] {
        let mut head = Vec::new();
        put_varint(&mut head, sig.leaf_index);
        if at_path {
            put_seq(&mut head, &sig.chains);
            put_varint(&mut head, sig.auth_path.leaf_index);
        }
        // A count no buffer could hold, then one the remaining bytes could
        // just cover at one byte an element but not at 32: the reservation
        // follows the bytes, not the count.
        for (count, filler) in [(u64::MAX / 2, 100), (4000, 4000)] {
            let mut bytes = head.clone();
            put_varint(&mut bytes, count);
            bytes.resize(bytes.len() + filler, 0xab);
            let (decoded, peak) = peak_during(|| Signature::decode(&bytes));
            assert!(matches!(decoded, Err(StorageError::Codec(_))));
            assert!(
                peak <= allowance(bytes.len()),
                "count {count} over {filler} bytes held {peak} bytes"
            );
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

    /// Damage to a real encoding gets much further into the decoder than
    /// noise does: one byte rewritten, the tail cut, or bytes appended.
    #[test]
    fn a_damaged_signature_never_panics_or_over_allocates(
        at in 0usize..4096,
        byte in any::<u8>(),
        cut in 0usize..4096,
        extra in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (public, sig) = sample();
        let good = sig.encoded();

        let mut rewritten = good.clone();
        let at = at % good.len();
        rewritten[at] = byte;
        if let Some(back) = decode_checked(&rewritten)? {
            // Decodable damage is a different signature, and a bad one.
            prop_assert_eq!(&back == sig, rewritten == good);
            prop_assert_eq!(back.verify(public, MESSAGE), rewritten == good);
        }

        let cut = cut % good.len();
        prop_assert!(decode_checked(&good[..cut])?.is_none(), "cut at {}", cut);

        if !extra.is_empty() {
            let mut longer = good.clone();
            longer.extend_from_slice(&extra);
            prop_assert!(decode_checked(&longer)?.is_none());
        }
    }
}
