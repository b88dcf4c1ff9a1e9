//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Used for enclave measurements (`MRENCLAVE`), paging MACs, and the
//! attestation key schedule. Implemented locally because cryptography crates
//! are outside the approved dependency set; this is a straightforward,
//! test-vector-verified implementation, not a hardened one.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression kernel: folds `blocks` — a whole number of 64-byte
/// blocks — into `state`.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// Messages the multi-buffer kernel hashes side by side.
pub(super) const WIDE_LANES: usize = 16;

/// [`WIDE_LANES`] hash states side by side, word-major: `state[j][l]` is
/// word `j` of message `l`'s state.
pub(super) type WideState = [[u32; WIDE_LANES]; 8];

/// A multi-buffer compression kernel: folds `lanes[l]` — the same whole
/// number of 64-byte blocks in every lane — into lane `l` of the state.
pub(super) type WideCompressFn = fn(&mut WideState, &[&[u8]; WIDE_LANES]);

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sgx_sim::crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    /// The kernel a test or bench pinned this hasher to; `None`, the
    /// normal case, is whatever [`compress_blocks`] dispatches to. (An
    /// `Option` of a pointer, not a second field: the hasher's size is
    /// part of every struct that embeds a keyed MAC state.)
    pinned: Option<CompressFn>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(None)
    }

    /// A hasher pinned to the portable kernel whatever the CPU offers: the
    /// reference the accelerated kernel is tested and benchmarked against.
    /// Same digests as [`Sha256::new`]; nothing outside tests and benches
    /// has a reason to call it.
    #[doc(hidden)]
    pub fn portable() -> Self {
        Self::with_kernel(Some(compress_blocks_portable))
    }

    fn with_kernel(pinned: Option<CompressFn>) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
            pinned,
        }
    }

    fn compress(&self) -> CompressFn {
        self.pinned.unwrap_or(compress_blocks)
    }

    /// Convenience one-shot digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state. Every run of whole blocks goes
    /// to the kernel straight from `data`; only a trailing partial block
    /// (and the bytes completing an earlier one) is copied.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            (self.compress())(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() & !63);
        if !whole.is_empty() {
            (self.compress())(&mut self.state, whole);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// The chaining value and the byte count so far — where a multi-buffer
    /// caller continues from — unless a partial block is buffered or the
    /// hasher is pinned to one kernel (a pinned hasher's digests come from
    /// that kernel and no other).
    pub(super) fn midstate(&self) -> Option<([u32; 8], u64)> {
        (self.buffered == 0 && self.pinned.is_none()).then_some((self.state, self.total_len))
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // one block if the length still fits behind the buffered bytes,
        // two otherwise.
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        (self.compress())(&mut self.state, &tail[..end]);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The same padding for a multi-buffer caller's staged last block, whose
/// first `used < 56` bytes are message: unlike `finalize`'s fresh tail the
/// block is reused, so the zeros are written too.
pub(super) fn pad_last_block(block: &mut [u8; 64], used: usize, total_len: u64) {
    block[used] = 0x80;
    block[used + 1..56].fill(0);
    block[56..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
}

/// The one place a SHA-256 kernel is chosen: SHA-NI when the CPU reports
/// it, the portable rounds everywhere else.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    match sha_ni_kernel() {
        Some(kernel) => kernel(state, blocks),
        None => compress_blocks_portable(state, blocks),
    }
}

/// The SHA-NI kernel, if this CPU can run it.
fn sha_ni_kernel() -> Option<CompressFn> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if super::cpu::has_sha_ni() {
        return Some(|state, blocks| {
            // SAFETY: this function pointer is only handed out after
            // `cpu::has_sha_ni()` saw `sha`, `ssse3` and `sse4.1` on the
            // running CPU, which are the features the kernel is compiled
            // with; it has no other precondition (a partial trailing
            // block is ignored, not read past).
            unsafe { x86::compress_blocks_sha_ni(state, blocks) }
        });
    }
    None
}

/// The 16-lane AVX-512 multi-buffer kernel, if this CPU can run it. There
/// is no portable build of it: a caller without it hashes its messages
/// one at a time through [`Sha256`].
pub(super) fn avx512_kernel() -> Option<WideCompressFn> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if super::cpu::has_avx512bw() {
        return Some(|state, lanes| {
            // SAFETY: this function pointer is only handed out after
            // `cpu::has_avx512bw()` saw `avx512f` and `avx512bw` on the
            // running CPU, which are the features the kernel is compiled
            // with; it has no other precondition (lanes of unequal or
            // ragged length panic, they are not read past).
            unsafe { x86::compress_lanes_avx512(state, lanes) }
        });
    }
    None
}

/// The FIPS 180-4 rounds in plain integer arithmetic: the fallback on
/// CPUs without SHA-NI and the reference the SHA-NI kernel is held to.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
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
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use core::arch::x86_64::*;

    use super::{WideState, K, WIDE_LANES};

    /// SHA-256 compression on the SHA extensions: `sha256rnds2` runs two
    /// rounds on the state split as (ABEF, CDGH), `sha256msg1`/`msg2`
    /// extend the message schedule four words at a time. Callable only
    /// where `sha`, `ssse3` and `sse4.1` are known to be present.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        let lanes = |w: &[u32]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
        // Message words are big-endian: reverse the bytes of each lane.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // (a,b,c,d), (e,f,g,h) -> the (ABEF, CDGH) split `sha256rnds2` takes.
        let cdab = _mm_shuffle_epi32::<0xB1>(lanes(&state[..4]));
        let efgh = _mm_shuffle_epi32::<0x1B>(lanes(&state[4..]));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The last sixteen schedule words, four per register; slot
            // `i % 4` holds W[4i..4i+4] while group `i` of rounds runs.
            let mut w = [_mm_setzero_si128(); 4];
            for (slot, quad) in w.iter_mut().zip(block.chunks_exact(16)) {
                // SAFETY: `quad` is 16 readable bytes and `loadu` accepts
                // any alignment.
                let raw = unsafe { _mm_loadu_si128(quad.as_ptr().cast()) };
                *slot = _mm_shuffle_epi8(raw, byte_swap);
            }
            for i in 0..16 {
                if i >= 4 {
                    let (w0, w1, w2, w3) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                    w[i % 4] = _mm_sha256msg2_epu32(sum, w3);
                }
                let wk = _mm_add_epi32(w[i % 4], lanes(&K[4 * i..4 * i + 4]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgfe) as u32,
            _mm_extract_epi32::<1>(hgfe) as u32,
            _mm_extract_epi32::<2>(hgfe) as u32,
            _mm_extract_epi32::<3>(hgfe) as u32,
        ];
    }

    /// Loads block `at / 64` of all sixteen lanes and turns the rows
    /// around: register `t` of the result holds message word `t` —
    /// big-endian bytes swapped to native order — of lanes 0..16.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load_transposed(lanes: &[&[u8]; WIDE_LANES], at: usize) -> [__m512i; 16] {
        let byte_swap =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203));
        let rows: [__m512i; 16] = core::array::from_fn(|l| {
            let block: &[u8; 64] = lanes[l][at..at + 64].try_into().expect("64-byte slice");
            // SAFETY: `block` is 64 readable bytes and `loadu` accepts any
            // alignment.
            let raw = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
            _mm512_shuffle_epi8(raw, byte_swap)
        });
        // A 16x16 dword transpose in four butterfly stages: 32-bit and
        // 64-bit unpacks gather, within each 128-bit quarter `q`, column
        // `4q + c` of four consecutive rows; two rounds of quarter
        // shuffles then bring the four row groups of one column together.
        let mut pairs = [_mm512_setzero_si512(); 16];
        for i in 0..8 {
            pairs[2 * i] = _mm512_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
            pairs[2 * i + 1] = _mm512_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
        }
        let mut quads = [_mm512_setzero_si512(); 16];
        for i in 0..4 {
            quads[4 * i] = _mm512_unpacklo_epi64(pairs[4 * i], pairs[4 * i + 2]);
            quads[4 * i + 1] = _mm512_unpackhi_epi64(pairs[4 * i], pairs[4 * i + 2]);
            quads[4 * i + 2] = _mm512_unpacklo_epi64(pairs[4 * i + 1], pairs[4 * i + 3]);
            quads[4 * i + 3] = _mm512_unpackhi_epi64(pairs[4 * i + 1], pairs[4 * i + 3]);
        }
        let mut words = [_mm512_setzero_si512(); 16];
        for c in 0..4 {
            let even_low = _mm512_shuffle_i32x4::<0x88>(quads[c], quads[4 + c]);
            let odd_low = _mm512_shuffle_i32x4::<0xDD>(quads[c], quads[4 + c]);
            let even_high = _mm512_shuffle_i32x4::<0x88>(quads[8 + c], quads[12 + c]);
            let odd_high = _mm512_shuffle_i32x4::<0xDD>(quads[8 + c], quads[12 + c]);
            words[c] = _mm512_shuffle_i32x4::<0x88>(even_low, even_high);
            words[4 + c] = _mm512_shuffle_i32x4::<0x88>(odd_low, odd_high);
            words[8 + c] = _mm512_shuffle_i32x4::<0xDD>(even_low, even_high);
            words[12 + c] = _mm512_shuffle_i32x4::<0xDD>(odd_low, odd_high);
        }
        words
    }

    /// SHA-256 compression of sixteen independent messages at once — the
    /// multi-buffer shape: lane `l` of every register belongs to message
    /// `l`, so the FIPS 180-4 rounds run unchanged on sixteen-wide words
    /// (`vprord` for the rotations, `vpternlogd` for the three-input
    /// functions). Callable only where `avx512f` and `avx512bw` are known
    /// to be present. Panics if the lanes differ in length or hold a
    /// partial block.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) fn compress_lanes_avx512(state: &mut WideState, lanes: &[&[u8]; WIDE_LANES]) {
        let len = lanes[0].len();
        assert!(
            len.is_multiple_of(64) && lanes.iter().all(|lane| lane.len() == len),
            "every lane takes the same whole number of blocks"
        );
        // vpternlogd truth tables over its operands (a, b, c).
        const XOR3: i32 = 0x96; // a ^ b ^ c
        const CH: i32 = 0xCA; // a ? b : c
        const MAJ: i32 = 0xE8;

        // W[t] for t >= 16, in place over W[t - 16]; `$i` is `t % 16`.
        macro_rules! extend {
            ($w:ident, $i:literal) => {{
                let w15 = $w[($i + 1) % 16];
                let w2 = $w[($i + 14) % 16];
                let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                $w[$i] = _mm512_add_epi32(
                    _mm512_add_epi32($w[$i], s0),
                    _mm512_add_epi32($w[($i + 9) % 16], s1),
                );
            }};
        }
        // One round; the caller rotates the eight names instead of moving
        // the eight values.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $w:ident, $k:ident, $i:literal) => {{
                let s1 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<6>($e),
                    _mm512_ror_epi32::<11>($e),
                    _mm512_ror_epi32::<25>($e),
                );
                let t1 = _mm512_add_epi32(
                    _mm512_add_epi32($h, s1),
                    _mm512_add_epi32(
                        _mm512_ternarylogic_epi32::<CH>($e, $f, $g),
                        _mm512_add_epi32($w[$i], _mm512_set1_epi32($k[$i] as i32)),
                    ),
                );
                let s0 = _mm512_ternarylogic_epi32::<XOR3>(
                    _mm512_ror_epi32::<2>($a),
                    _mm512_ror_epi32::<13>($a),
                    _mm512_ror_epi32::<22>($a),
                );
                $d = _mm512_add_epi32($d, t1);
                $h = _mm512_add_epi32(
                    t1,
                    _mm512_add_epi32(s0, _mm512_ternarylogic_epi32::<MAJ>($a, $b, $c)),
                );
            }};
        }
        // SAFETY: a row of `state` is a `[u32; 16]` — 64 readable bytes —
        // and `loadu` accepts any alignment.
        let mut chain: [__m512i; 8] =
            core::array::from_fn(|j| unsafe { _mm512_loadu_si512(state[j].as_ptr().cast()) });
        for at in (0..len).step_by(64) {
            let mut w = load_transposed(lanes, at);
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = chain;
            for (group, k) in K.chunks_exact(16).enumerate() {
                let k: &[u32; 16] = k.try_into().expect("16 round constants");
                if group > 0 {
                    extend!(w, 0);
                    extend!(w, 1);
                    extend!(w, 2);
                    extend!(w, 3);
                    extend!(w, 4);
                    extend!(w, 5);
                    extend!(w, 6);
                    extend!(w, 7);
                    extend!(w, 8);
                    extend!(w, 9);
                    extend!(w, 10);
                    extend!(w, 11);
                    extend!(w, 12);
                    extend!(w, 13);
                    extend!(w, 14);
                    extend!(w, 15);
                }
                round!(a, b, c, d, e, f, g, h, w, k, 0);
                round!(h, a, b, c, d, e, f, g, w, k, 1);
                round!(g, h, a, b, c, d, e, f, w, k, 2);
                round!(f, g, h, a, b, c, d, e, w, k, 3);
                round!(e, f, g, h, a, b, c, d, w, k, 4);
                round!(d, e, f, g, h, a, b, c, w, k, 5);
                round!(c, d, e, f, g, h, a, b, w, k, 6);
                round!(b, c, d, e, f, g, h, a, w, k, 7);
                round!(a, b, c, d, e, f, g, h, w, k, 8);
                round!(h, a, b, c, d, e, f, g, w, k, 9);
                round!(g, h, a, b, c, d, e, f, w, k, 10);
                round!(f, g, h, a, b, c, d, e, w, k, 11);
                round!(e, f, g, h, a, b, c, d, w, k, 12);
                round!(d, e, f, g, h, a, b, c, w, k, 13);
                round!(c, d, e, f, g, h, a, b, w, k, 14);
                round!(b, c, d, e, f, g, h, a, w, k, 15);
            }
            for (link, worked) in chain.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *link = _mm512_add_epi32(*link, worked);
            }
        }
        for (row, link) in state.iter_mut().zip(chain) {
            // SAFETY: `row` is a `[u32; 16]` — 64 writable bytes — and
            // `storeu` accepts any alignment.
            unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), link) };
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel by name: the portable one on every host, SHA-NI and
    /// the 16-lane AVX-512 one where the CPU has them (a skip note where
    /// it does not).
    fn kernels() -> Vec<(&'static str, CompressFn)> {
        let mut named: Vec<(&'static str, CompressFn)> =
            vec![("portable", compress_blocks_portable)];
        let accelerated: [(&'static str, Option<CompressFn>); 2] = [
            ("sha-ni", sha_ni_kernel()),
            (
                "16-lane avx512bw",
                avx512_kernel().map(|_| sixteen_lanes_as_one as CompressFn),
            ),
        ];
        for (name, kernel) in accelerated {
            match kernel {
                Some(kernel) => named.push((name, kernel)),
                None => super::super::tests::note_missing_kernel(name),
            }
        }
        named
    }

    /// The multi-buffer kernel as a one-message kernel, so every test of
    /// this module runs on it. The message rides in one lane (which one
    /// depends on its length); the other fifteen start from different
    /// states and carry different bytes, and every lane is held to the
    /// portable kernel — a lane that leaked into its neighbour fails here.
    fn sixteen_lanes_as_one(state: &mut [u32; 8], blocks: &[u8]) {
        let kernel = avx512_kernel().expect("listed only where detected");
        let home = blocks.len() / 64 % WIDE_LANES;
        let messages: [Vec<u8>; WIDE_LANES] =
            core::array::from_fn(|l| blocks.iter().map(|b| b ^ (l ^ home) as u8).collect());
        let starts: [[u32; 8]; WIDE_LANES] =
            core::array::from_fn(|l| state.map(|word| word.rotate_left((l ^ home) as u32)));
        let mut wide: WideState = core::array::from_fn(|j| core::array::from_fn(|l| starts[l][j]));
        kernel(&mut wide, &core::array::from_fn(|l| &messages[l][..]));
        for (l, (mut expected, message)) in starts.into_iter().zip(&messages).enumerate() {
            compress_blocks_portable(&mut expected, message);
            assert_eq!(wide.map(|row| row[l]), expected, "lane {l}, home {home}");
        }
        *state = wide.map(|row| row[home]);
    }

    /// Digest of `pieces` fed one `update` each through `kernel`.
    fn digest_with(kernel: CompressFn, pieces: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(Some(kernel));
        for piece in pieces {
            h.update(piece);
        }
        h.finalize()
    }

    #[test]
    fn nist_vector_empty() {
        for (name, kernel) in kernels() {
            assert_eq!(
                hex(&digest_with(kernel, &[b""])),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{name}"
            );
        }
    }

    #[test]
    fn nist_vector_abc() {
        for (name, kernel) in kernels() {
            assert_eq!(
                hex(&digest_with(kernel, &[b"abc"])),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{name}"
            );
        }
    }

    #[test]
    fn nist_vector_448_bits() {
        for (name, kernel) in kernels() {
            assert_eq!(
                hex(&digest_with(
                    kernel,
                    &[b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"]
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{name}"
            );
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for (name, kernel) in kernels() {
            assert_eq!(
                hex(&digest_with(kernel, &[&chunk[..]; 1000])),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The accelerated kernel against the portable one: any length,
        /// any `update` split points (so every mix of buffered bytes and
        /// multi-block runs), all equal to a one-shot portable digest —
        /// as is whatever the dispatcher behind `Sha256::new` picked.
        #[test]
        fn every_kernel_matches_the_portable_one(
            data in proptest::collection::vec(any::<u8>(), 0..20_001),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut at = 0;
            for cut in cuts {
                pieces.push(&data[at..cut]);
                at = cut;
            }
            pieces.push(&data[at..]);

            let expected = digest_with(compress_blocks_portable, &[&data]);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_with(kernel, &pieces), expected, "{}", name);
            }
            prop_assert_eq!(digest_with(compress_blocks, &pieces), expected, "dispatched");
        }
    }
}
