//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Merkle–Damgård padding around one of two interchangeable compression
//! kernels, picked per hash from what the CPU reports and from nothing
//! else (no cargo feature, environment variable or config field):
//!
//! * **SHA-NI** — on `x86_64` when `is_x86_feature_detected!` finds `sha`,
//!   `ssse3` and `sse4.1` (Intel Goldmont / Ice Lake and later, every AMD
//!   Zen), the `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions
//!   from `std::arch`, with the state held in registers across a run of
//!   consecutive blocks.
//! * **scalar** — the straightforward 64-round function, on every other
//!   CPU; it is also the oracle the unit tests hold the hardware kernel to.
//!
//! Both produce the same digest for every input, so public keys, tx ids,
//! block hashes, state roots and stored bytes do not depend on the machine.
//! Messages of at most 119 bytes, which pad to one or two blocks (domain
//! tag + one to three digests: one-time-key secrets, Merkle nodes,
//! attestation fold steps) are padded on the stack and compressed in one
//! call instead of going through the streaming hasher's buffer. A hash
//! chain — the same ≤ 55-byte message shape hashed over and over, as in the
//! Winternitz chains of [`crate::sig`] — keeps its block padded between
//! steps (`OneBlock`).
//!
//! Validated against the NIST test vectors in the unit tests below, on
//! both kernels, and against HMAC vectors in [`crate::hmac`].

use crate::hash::Hash256;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Longest message the one-call path takes: two blocks less the `0x80`
/// terminator and the 8-byte length field.
const SHORT_MAX: usize = 119;

/// An implementation of the compression function.
///
/// Private to this module, and [`Kernel::ShaNi`] is built only by
/// [`Kernel::detect`]: holding one is the proof that the CPU has the
/// instructions [`compress_blocks_shani`] is compiled with.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// Portable 64-round function; fallback and test oracle.
    Scalar,
    /// x86 SHA extensions.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs (std caches the `cpuid` answer, so
    /// this is a load and a bit test per feature).
    #[inline]
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }

    /// Folds `blocks`, a run of whole 64-byte blocks, into `state`.
    #[inline]
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Scalar => compress_blocks_scalar(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => {
                // SAFETY: `Kernel::ShaNi` comes only from `Kernel::detect`,
                // after `is_x86_feature_detected!` reported `sha`, `ssse3`
                // and `sse4.1` (`sse2` is part of every x86_64), which are
                // the features `compress_blocks_shani` is compiled with.
                unsafe { compress_blocks_shani(state, blocks) }
            }
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use medledger_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            kernel,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially filled buffer first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Buffer still not full, so the input is exhausted.
                debug_assert!(data.is_empty());
                return;
            }
            self.kernel.compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, as one run.
        let (blocks, rem) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            self.kernel.compress_blocks(&mut self.state, blocks);
        }
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Hash256 {
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        finish(
            self.kernel,
            &mut self.state,
            &mut tail,
            self.buf_len,
            self.total_len,
        )
    }
}

/// Pads and compresses the last `used` (< 120) message bytes, which sit at
/// the front of the otherwise zero `tail`, and returns the digest of a
/// message of `total_len` bytes: the `0x80` terminator, zeros up to 8 bytes
/// short of a block boundary, then the bit length — one block if that fits,
/// two if not.
#[inline]
fn finish(
    kernel: Kernel,
    state: &mut [u32; 8],
    tail: &mut [u8; 128],
    used: usize,
    total_len: u64,
) -> Hash256 {
    tail[used] = 0x80;
    let padded = if used < 56 { 64 } else { 128 };
    tail[padded - 8..padded].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    kernel.compress_blocks(state, &tail[..padded]);
    state_bytes(state)
}

/// The digest a final `state` stands for: its words, big-endian.
#[inline]
fn state_bytes(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

/// SHA-256 of the concatenation of `parts` on `kernel`: messages of at
/// most `SHORT_MAX` bytes are gathered and padded on the stack and
/// compressed in one call; longer ones stream.
fn digest_parts(kernel: Kernel, parts: &[&[u8]]) -> Hash256 {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > SHORT_MAX {
        let mut h = Sha256::with_kernel(kernel);
        for p in parts {
            h.update(p);
        }
        return h.finalize();
    }
    let mut tail = [0u8; 128];
    let mut at = 0;
    for p in parts {
        tail[at..at + p.len()].copy_from_slice(p);
        at += p.len();
    }
    let mut state = H0;
    finish(kernel, &mut state, &mut tail, len, len as u64)
}

/// A message of fixed length ≤ 55 bytes held in its one padded block, to be
/// hashed again and again with some of its bytes rewritten in between (the
/// steps of a hash chain): each [`OneBlock::digest`] is one compression, with
/// no gathering and no padding. Digests equal [`sha256`] of the message.
pub(crate) struct OneBlock {
    block: [u8; 64],
    len: usize,
    kernel: Kernel,
}

impl OneBlock {
    /// Longest message whose terminator and bit length fit the same block.
    pub(crate) const MAX: usize = 55;

    /// An all-zero message of `len` (≤ [`OneBlock::MAX`]) bytes.
    pub(crate) fn new(len: usize) -> Self {
        assert!(len <= Self::MAX, "{len} bytes do not pad to one block");
        let mut block = [0u8; 64];
        block[len] = 0x80;
        block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        OneBlock {
            block,
            len,
            kernel: Kernel::detect(),
        }
    }

    /// The message bytes, to be overwritten in place.
    pub(crate) fn message_mut(&mut self) -> &mut [u8] {
        &mut self.block[..self.len]
    }

    /// SHA-256 of the message as it stands.
    #[inline]
    pub(crate) fn digest(&self) -> Hash256 {
        let mut state = H0;
        self.kernel.compress_blocks(&mut state, &self.block);
        state_bytes(&state)
    }
}

/// The portable kernel: one application of the compression function per
/// 64-byte block of `blocks`.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel. `sha256rnds2` does two rounds on the state split as
/// `ABEF`/`CDGH` across two registers; `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time. The state is repacked once per
/// call, not once per block, so a run of blocks stays in registers.
///
/// Declared safe under `#[target_feature]`: calling it from code compiled
/// without these features is what needs `unsafe` (see
/// [`Kernel::compress_blocks`], the only caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    /// Four consecutive words as one vector, lowest lane first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn words(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    // Byte swap within each 32-bit lane: message words are big-endian.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // [a, b, c, d], [e, f, g, h] → ABEF, CDGH (highest lane first).
    let abcd = _mm_shuffle_epi32(words(&state[..4]), 0xB1);
    let efgh = _mm_shuffle_epi32(words(&state[4..]), 0x1B);
    let mut abef = _mm_alignr_epi8(abcd, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, abcd, 0xF0);

    // Rounds 4i..4i+4 on schedule words `$w`.
    macro_rules! rounds4 {
        ($i:expr, $w:expr) => {{
            let wk = _mm_add_epi32($w, words(&K[4 * $i..4 * $i + 4]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    // The next four schedule words from the previous sixteen (`$w0` oldest),
    // written over `$w0`.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let load = |i: usize| {
            let chunk: &[u8; 16] = block[16 * i..16 * i + 16].try_into().expect("16 bytes");
            // SAFETY: `chunk` is 16 readable bytes and `loadu` asks for no
            // alignment; this closure runs only inside this function, which
            // `Kernel::compress_blocks` enters only once
            // `is_x86_feature_detected!` has reported its features.
            _mm_shuffle_epi8(unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }, swap)
        };
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        for i in [4, 8, 12] {
            schedule!(w0, w1, w2, w3);
            rounds4!(i, w0);
            schedule!(w1, w2, w3, w0);
            rounds4!(i + 1, w1);
            schedule!(w2, w3, w0, w1);
            rounds4!(i + 2, w2);
            schedule!(w3, w0, w1, w2);
            rounds4!(i + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF, CDGH → [a, b, c, d], [e, f, g, h].
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let abcd = _mm_blend_epi16(feba, dchg, 0xF0);
    let efgh = _mm_alignr_epi8(dchg, feba, 8);
    for (half, v) in state.chunks_exact_mut(4).zip([abcd, efgh]) {
        half[0] = _mm_cvtsi128_si32(v) as u32;
        half[1] = _mm_extract_epi32(v, 1) as u32;
        half[2] = _mm_extract_epi32(v, 2) as u32;
        half[3] = _mm_extract_epi32(v, 3) as u32;
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash256 {
    digest_parts(Kernel::detect(), &[data])
}

/// SHA-256 over the concatenation of several byte slices, without building
/// an intermediate buffer. Used pervasively for domain-separated hashing
/// (`sha256_concat(&[tag, payload])`).
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    digest_parts(Kernel::detect(), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hardware kernel, or `None` (said aloud, so a test log shows the
    /// comparison did not run) on a CPU that has only the scalar one.
    fn hardware() -> Option<Kernel> {
        match Kernel::detect() {
            Kernel::Scalar => {
                eprintln!("skipped: this CPU has no hardware SHA-256 kernel, scalar only");
                None
            }
            kernel => Some(kernel),
        }
    }

    /// The scalar oracle first, then the hardware kernel where there is one.
    fn kernels() -> Vec<Kernel> {
        std::iter::once(Kernel::Scalar).chain(hardware()).collect()
    }

    /// `data` through the streaming hasher on `kernel`, one `update` per
    /// stretch between consecutive `splits`.
    fn streamed(kernel: Kernel, data: &[u8], splits: &[usize]) -> Hash256 {
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(data.len());
        let mut h = Sha256::with_kernel(kernel);
        let mut from = 0;
        for cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        h.finalize()
    }

    /// NIST / well-known vectors, on each kernel and through the public API.
    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"hello world",
                "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
            ),
        ];
        for (msg, hex) in vectors {
            assert_eq!(sha256(msg).to_hex(), hex);
            for kernel in kernels() {
                assert_eq!(digest_parts(kernel, &[msg]).to_hex(), hex, "{kernel:?}");
                assert_eq!(streamed(kernel, msg, &[]).to_hex(), hex, "{kernel:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        let hex = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(sha256(&data).to_hex(), hex);
        for kernel in kernels() {
            assert_eq!(digest_parts(kernel, &[&data]).to_hex(), hex, "{kernel:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hardware kernel is the scalar kernel: same digest for any
        /// input, however it is cut into `update` calls.
        #[test]
        fn hardware_kernel_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            splits in proptest::collection::vec(0usize..4097, 0..6),
        ) {
            let Some(hardware) = hardware() else { return Ok(()) };
            let expect = streamed(Kernel::Scalar, &data, &[]);
            prop_assert_eq!(streamed(hardware, &data, &splits), expect);
            prop_assert_eq!(streamed(Kernel::Scalar, &data, &splits), expect);
            prop_assert_eq!(digest_parts(hardware, &[&data]), expect);
        }
    }

    /// The one-call path for short messages is the streaming hasher: at
    /// every length around its one-block/two-block/streaming boundaries,
    /// gathered from one to five parts (some of them empty).
    #[test]
    fn short_path_matches_streaming() {
        for kernel in kernels() {
            for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 118, 119, 120] {
                let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let expect = streamed(kernel, &data, &[]);
                for n_parts in 1..=5 {
                    let parts: Vec<&[u8]> = (0..n_parts)
                        .map(|p| &data[len * p / n_parts..len * (p + 1) / n_parts])
                        .collect();
                    assert_eq!(
                        digest_parts(kernel, &parts),
                        expect,
                        "{kernel:?}, {len} bytes in {n_parts} parts"
                    );
                }
            }
        }
    }

    /// A message kept in its padded block hashes as `sha256` of it does, at
    /// every length that fits and again after its bytes are rewritten.
    #[test]
    fn one_block_matches_oneshot() {
        for kernel in kernels() {
            for len in [0usize, 1, 32, 54, OneBlock::MAX] {
                let mut block = OneBlock::new(len);
                block.kernel = kernel;
                assert_eq!(block.digest(), sha256(&vec![0u8; len]), "{len} zeros");
                for round in 0..3u8 {
                    let data: Vec<u8> = (0..len)
                        .map(|i| (i as u8).wrapping_mul(7) ^ round)
                        .collect();
                    block.message_mut().copy_from_slice(&data);
                    assert_eq!(block.digest(), sha256(&data), "{kernel:?}, {len} bytes");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not pad to one block")]
    fn one_block_refuses_a_two_block_message() {
        OneBlock::new(OneBlock::MAX + 1);
    }

    /// Incremental hashing must agree with one-shot hashing for every split
    /// point, including splits that straddle block boundaries.
    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300).map(|i| (i * 31 % 256) as u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    /// Padding edge cases: messages of length 55, 56, 57, 63, 64 bytes hit
    /// all the padding branches.
    #[test]
    fn padding_boundaries() {
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut inc = Sha256::new();
            inc.update(&data);
            assert_eq!(inc.finalize(), one, "len {len}");
            // Against a slow reference re-computation through concat API.
            assert_eq!(sha256_concat(&[&data]), one);
        }
    }

    #[test]
    fn concat_equals_buffer() {
        let a = b"block-header";
        let b = b"||";
        let c = b"payload-bytes";
        let mut buf = Vec::new();
        buf.extend_from_slice(a);
        buf.extend_from_slice(b);
        buf.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&buf));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
