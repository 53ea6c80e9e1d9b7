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
//! A third kernel hashes many independent one-block messages at once: the
//! **lane kernel**, on `x86_64` when `is_x86_feature_detected!` finds
//! `avx512f`, runs the compression function on sixteen blocks side by side,
//! one per 32-bit lane of a 512-bit vector. It serves the Winternitz
//! chains alone — every step of a signature, a verification or a key
//! derivation (`ChainLanes`, each chain's value kept in its lane from its
//! first step to its last) and the chains' secret starts (`digest_tails`);
//! `Lanes` says which way they run. Everything else hashes one message at
//! a time, where sixteen lanes would sit idle. Without `avx512f` the
//! chains walk one at a time on the kernel above, which is also the lane
//! kernel's oracle in the tests of [`crate::sig`].
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

    /// The digest of everything fed so far followed by `data`, leaving this
    /// hasher as it is: `clone`, `update(data)`, `finalize` without the
    /// clone, and with a short `data` padded on the stack in one pass (an
    /// HMAC's inner and outer hash over a precomputed key pad).
    pub(crate) fn finalize_with(&self, data: &[u8]) -> Hash256 {
        let used = self.buf_len + data.len();
        if used > SHORT_MAX {
            let mut h = self.clone();
            h.update(data);
            return h.finalize();
        }
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len..used].copy_from_slice(data);
        let total_len = self.total_len.wrapping_add(data.len() as u64);
        finish(
            self.kernel,
            &mut self.state.clone(),
            &mut tail,
            used,
            total_len,
        )
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
    for block in blocks.as_chunks::<64>().0 {
        let mut w = [0u32; 64];
        for (i, word) in block.as_chunks::<4>().0.iter().enumerate() {
            w[i] = u32::from_be_bytes(*word);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let out = rounds(*state, &w, 0..64);
        for (s, v) in state.iter_mut().zip(out) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Rounds `range` of the compression function on the working variables
/// `[a, b, c, d, e, f, g, h]` with message schedule `w`; the feed-forward
/// is the caller's.
fn rounds(vars: [u32; 8], w: &[u32; 64], range: std::ops::Range<usize>) -> [u32; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = vars;
    for i in range {
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
    [a, b, c, d, e, f, g, h]
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

    for block in blocks.as_chunks::<64>().0 {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let quarters = block.as_chunks::<16>().0;
        let load = |i: usize| {
            let chunk = &quarters[i];
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

/// Messages the lane kernel hashes side by side: one per 32-bit lane of a
/// 512-bit vector.
#[cfg(target_arch = "x86_64")]
pub(crate) const LANES: usize = 16;

/// Proof that this CPU runs the lane kernel: built only by [`Lanes::detect`],
/// after `is_x86_feature_detected!` reported `avx512f`, the one feature the
/// [`x16`] functions are compiled with.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx512(());

/// How a batch of one-block hashes — the steps of many hash chains, the
/// secrets they start from — is computed: one message at a time on the
/// compression kernel [`Kernel::detect`] picks, or sixteen at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// One message after another.
    One,
    /// Sixteen messages per pass of the AVX-512F lane kernel.
    #[cfg(target_arch = "x86_64")]
    Sixteen(Avx512),
}

impl Lanes {
    /// The widest way this CPU runs.
    #[inline]
    pub(crate) fn detect() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Lanes::Sixteen(Avx512(()));
        }
        Lanes::One
    }
}

/// Bytes of [`digest_tails`]' shared message head: eleven block words.
#[cfg(target_arch = "x86_64")]
pub(crate) const HEAD_LEN: usize = 44;

/// SHA-256 of `head ‖ tail` for each of `tails`, sixteen per pass of the lane
/// kernel; message by message equal to [`sha256`]. The messages are one
/// padded block each (`T` ≤ 11) and share their first eleven words, so
/// rounds 0..11 run once for all of them.
#[cfg(target_arch = "x86_64")]
pub(crate) fn digest_tails<const T: usize>(
    _cpu: Avx512,
    head: &[u8; HEAD_LEN],
    tails: &[[u8; T]],
) -> Vec<Hash256> {
    const { assert!(HEAD_LEN + T <= OneBlock::MAX) };
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(head.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let mut head_words = [0u32; 11];
    head_words.copy_from_slice(&w[..11]);
    let mid = rounds(H0, &w, 0..11);
    let mut out = Vec::with_capacity(tails.len());
    for batch in tails.chunks(LANES) {
        // Block word `11 + i` of lane `l` at `words[i][l]`: the tail, the
        // terminator, zeros and the bit length.
        let mut words = [[0u32; LANES]; 5];
        for (lane, tail) in batch.iter().enumerate() {
            let mut rest = [0u8; 20];
            rest[..T].copy_from_slice(tail);
            rest[T] = 0x80;
            rest[12..].copy_from_slice(&((HEAD_LEN + T) as u64 * 8).to_be_bytes());
            for (word, bytes) in words.iter_mut().zip(rest.as_chunks::<4>().0) {
                word[lane] = u32::from_be_bytes(*bytes);
            }
        }
        // SAFETY: `_cpu` is an `Avx512`, which only `Lanes::detect` builds,
        // once `is_x86_feature_detected!` has reported `avx512f`: the feature
        // `x16::digest_tails` is compiled with.
        let state = unsafe { x16::digest_tails(&mid, &head_words, &words) };
        out.extend((0..batch.len()).map(|lane| lane_digest(&state, lane)));
    }
    out
}

/// The digest lane `lane` of a sixteen-lane `state` stands for.
#[cfg(target_arch = "x86_64")]
fn lane_digest(state: &[[u32; LANES]; 8], lane: usize) -> Hash256 {
    state_bytes(&state.map(|word| word[lane]))
}

/// Sixteen hash chains walked in step. Every chain step hashes the same
/// 54-byte layout, one padded block: a 20-byte tag, the chain number, the
/// step number, then the 32-byte value. So lane `l` keeps its chain's value
/// as eight big-endian digest words `value[0..8][l]` from the step it is
/// loaded at to the step it ends at, and each pass builds its message words
/// from them with shifts. The tag's words are the same in every block, so
/// the first five rounds are too: they run once, in [`ChainLanes::new`].
#[cfg(target_arch = "x86_64")]
pub(crate) struct ChainLanes {
    _cpu: Avx512,
    /// Words 0..5 of every step block.
    tag: [u32; 5],
    /// The working variables after rounds 0..5 of every step block.
    mid: [u32; 8],
    value: [[u32; LANES]; 8],
    chain: [u32; LANES],
    /// The step each lane's value is at.
    step: [u32; LANES],
    /// The step each lane stops at.
    end: [u32; LANES],
}

#[cfg(target_arch = "x86_64")]
impl ChainLanes {
    /// Sixteen idle lanes whose steps hash under `tag`.
    pub(crate) fn new(cpu: Avx512, tag: &[u8; 20]) -> Self {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(tag.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let mut tag_words = [0u32; 5];
        tag_words.copy_from_slice(&w[..5]);
        ChainLanes {
            _cpu: cpu,
            tag: tag_words,
            mid: rounds(H0, &w, 0..5),
            value: [[0; LANES]; 8],
            chain: [0; LANES],
            step: [0; LANES],
            end: [0; LANES],
        }
    }

    /// Puts `value`, which sits `from` steps along chain `chain`, in lane
    /// `lane`, to be walked to step `to` (`from ≤ to`).
    pub(crate) fn load(&mut self, lane: usize, chain: u8, value: &Hash256, from: u8, to: u8) {
        debug_assert!(from <= to);
        for (word, bytes) in self
            .value
            .iter_mut()
            .zip(value.as_bytes().as_chunks::<4>().0)
        {
            word[lane] = u32::from_be_bytes(*bytes);
        }
        self.chain[lane] = u32::from(chain);
        self.step[lane] = u32::from(from);
        self.end[lane] = u32::from(to);
    }

    /// Steps lane `lane` has left to its end; 0 once it is there.
    pub(crate) fn remaining(&self, lane: usize) -> u32 {
        self.end[lane].saturating_sub(self.step[lane])
    }

    /// The value lane `lane` holds.
    pub(crate) fn value(&self, lane: usize) -> Hash256 {
        lane_digest(&self.value, lane)
    }

    /// `passes` passes: each moves every lane short of its end one step on
    /// and leaves the others as they are.
    pub(crate) fn advance(&mut self, passes: u32) {
        // SAFETY: `self._cpu` is an `Avx512`, which only `Lanes::detect`
        // builds, once `is_x86_feature_detected!` has reported `avx512f`:
        // the feature `x16::advance` is compiled with.
        unsafe { x16::advance(self, passes) }
    }
}

/// The lane kernel: the compression function on sixteen blocks at once,
/// word `i` of lane `l`'s block in 32-bit lane `l` of vector `w[i]`.
/// AVX-512F has the 32-bit rotate (`vprord`) and three-input logic
/// (`vpternlogd`) a round needs, so a round for all sixteen is about a
/// dozen vector instructions.
///
/// Its functions are declared safe under `#[target_feature]`: calling them
/// from code compiled without `avx512f` is what needs `unsafe` (see
/// [`digest_tails`] and [`ChainLanes::advance`], the only callers).
#[cfg(target_arch = "x86_64")]
mod x16 {
    use super::{ChainLanes, H0, K, LANES};
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(words: &[u32; LANES]) -> __m512i {
        // SAFETY: `words` is 64 readable bytes and `loadu` asks for no
        // alignment; the caller runs only once `avx512f` was detected.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(words: &mut [u32; LANES], v: __m512i) {
        // SAFETY: `words` is 64 writable bytes and `storeu` asks for no
        // alignment; the caller runs only once `avx512f` was detected.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(word: u32) -> __m512i {
        _mm512_set1_epi32(word as i32)
    }

    /// Rounds `FIRST..64` of one block whose working variables after round
    /// `FIRST` are `vars`, on the block's words `w` (a ring of sixteen the
    /// message schedule is extended in), then the feed-forward of [`H0`]:
    /// the digest words of every lane's one-block message. Unrolled, so the
    /// ring's indices are constants and the working variables rotate by
    /// renaming, not by moves.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn one_block<const FIRST: usize>(vars: [__m512i; 8], w: &mut [__m512i; 16]) -> [__m512i; 8] {
        // Round `i` names the working variables rotated right by `i % 8`.
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] =
            std::array::from_fn(|j| vars[(j + FIRST) % 8]);
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                if $i >= FIRST {
                    if $i >= 16 {
                        let (w15, w2) = (w[($i - 15) % 16], w[($i - 2) % 16]);
                        let s0 = _mm512_ternarylogic_epi32::<0x96>(
                            _mm512_ror_epi32::<7>(w15),
                            _mm512_ror_epi32::<18>(w15),
                            _mm512_srli_epi32::<3>(w15),
                        );
                        let s1 = _mm512_ternarylogic_epi32::<0x96>(
                            _mm512_ror_epi32::<17>(w2),
                            _mm512_ror_epi32::<19>(w2),
                            _mm512_srli_epi32::<10>(w2),
                        );
                        w[$i % 16] = add(add(w[$i % 16], s0), add(w[($i - 7) % 16], s1));
                    }
                    // 0x96: a ^ b ^ c; 0xCA: e ? f : g; 0xE8: majority.
                    let s1 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<6>($e),
                        _mm512_ror_epi32::<11>($e),
                        _mm512_ror_epi32::<25>($e),
                    );
                    let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
                    let temp1 = add(add($h, s1), add(ch, add(splat(K[$i]), w[$i % 16])));
                    let s0 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<2>($a),
                        _mm512_ror_epi32::<13>($a),
                        _mm512_ror_epi32::<22>($a),
                    );
                    let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
                    $d = add($d, temp1);
                    $h = add(temp1, add(s0, maj));
                }
            };
        }
        macro_rules! rounds8 {
            ($i:expr) => {
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            };
        }
        rounds8!(0);
        rounds8!(8);
        rounds8!(16);
        rounds8!(24);
        rounds8!(32);
        rounds8!(40);
        rounds8!(48);
        rounds8!(56);
        let out = [a, b, c, d, e, f, g, h];
        std::array::from_fn(|i| add(out[i], splat(H0[i])))
    }

    /// The digest words of sixteen one-block messages whose working
    /// variables after their common first eleven words `head` are `mid`,
    /// `tails[i][l]` being word `11 + i` of lane `l`'s block.
    #[target_feature(enable = "avx512f")]
    pub(super) fn digest_tails(
        mid: &[u32; 8],
        head: &[u32; 11],
        tails: &[[u32; LANES]; 5],
    ) -> [[u32; LANES]; 8] {
        let mut w = [_mm512_setzero_si512(); 16];
        for (v, &word) in w.iter_mut().zip(head) {
            *v = splat(word);
        }
        for (v, words) in w[11..].iter_mut().zip(tails) {
            *v = load(words);
        }
        let digest = one_block::<11>(mid.map(|word| splat(word)), &mut w);
        let mut out = [[0u32; LANES]; 8];
        for (word, v) in out.iter_mut().zip(digest) {
            store(word, v);
        }
        out
    }

    /// `passes` chain steps on every lane of `lanes` short of its end.
    #[target_feature(enable = "avx512f")]
    pub(super) fn advance(lanes: &mut ChainLanes, passes: u32) {
        let mut value = lanes.value.map(|word| load(&word));
        let mut step = load(&lanes.step);
        let end = load(&lanes.end);
        let chain = _mm512_slli_epi32::<24>(load(&lanes.chain));
        let tag = lanes.tag.map(|word| splat(word));
        let mid = lanes.mid.map(|word| splat(word));
        for _ in 0..passes {
            let live = _mm512_cmplt_epu32_mask(step, end);
            // Bytes 20..54: [chain, step], then the value's 32 bytes, two
            // bytes behind its digest words; then 0x80, and the bit length.
            let shifted = |word: __m512i, next: __m512i| {
                _mm512_or_si512(_mm512_slli_epi32::<16>(word), _mm512_srli_epi32::<16>(next))
            };
            let mut w = [_mm512_setzero_si512(); 16];
            w[..5].copy_from_slice(&tag);
            w[5] = _mm512_ternarylogic_epi32::<0xFE>(
                chain,
                _mm512_slli_epi32::<16>(step),
                _mm512_srli_epi32::<16>(value[0]),
            );
            for i in 0..7 {
                w[6 + i] = shifted(value[i], value[i + 1]);
            }
            w[13] = shifted(value[7], splat(0x8000_0000));
            w[15] = splat(54 * 8);
            let next = one_block::<5>(mid, &mut w);
            for (v, n) in value.iter_mut().zip(next) {
                *v = _mm512_mask_blend_epi32(live, *v, n);
            }
            step = _mm512_mask_add_epi32(step, live, step, splat(1));
        }
        for (word, v) in lanes.value.iter_mut().zip(value) {
            store(word, v);
        }
        store(&mut lanes.step, step);
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

    /// `finalize_with` is `clone`, `update`, `finalize`, on either side of
    /// the short path's bound and with a partly filled buffer.
    #[test]
    fn finalize_with_matches_update_then_finalize() {
        let data: Vec<u8> = (0..300).map(|i| (i * 13 % 251) as u8).collect();
        for kernel in kernels() {
            for fed in [0usize, 1, 63, 64, 65, 100] {
                let mut h = Sha256::with_kernel(kernel);
                h.update(&data[..fed]);
                for len in [0usize, 1, 49, 55, 56, 119 - fed % 64, 120 - fed % 64, 200] {
                    let rest = &data[fed..fed + len];
                    let mut expect = h.clone();
                    expect.update(rest);
                    assert_eq!(h.finalize_with(rest), expect.finalize(), "{fed} + {len}");
                }
            }
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
