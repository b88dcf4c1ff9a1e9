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
    compress: CompressFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(compress_blocks)
    }

    /// A hasher pinned to the portable kernel whatever the CPU offers: the
    /// reference the accelerated kernel is tested and benchmarked against.
    /// Same digests as [`Sha256::new`]; nothing outside tests and benches
    /// has a reason to call it.
    #[doc(hidden)]
    pub fn portable() -> Self {
        Self::with_kernel(compress_blocks_portable)
    }

    fn with_kernel(compress: CompressFn) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
            compress,
        }
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
            (self.compress)(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() & !63);
        if !whole.is_empty() {
            (self.compress)(&mut self.state, whole);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
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
        (self.compress)(&mut self.state, &tail[..end]);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
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

    use super::K;

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
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel by name: the portable one on every host, SHA-NI where
    /// the CPU has it (a skip note where it does not).
    fn kernels() -> Vec<(&'static str, CompressFn)> {
        let mut named: Vec<(&'static str, CompressFn)> =
            vec![("portable", compress_blocks_portable)];
        match sha_ni_kernel() {
            Some(kernel) => named.push(("sha-ni", kernel)),
            None => {
                static NOTE: std::sync::Once = std::sync::Once::new();
                NOTE.call_once(|| {
                    eprintln!("skip: this CPU has no SHA-NI; checked the portable kernel only")
                });
            }
        }
        named
    }

    /// Digest of `pieces` fed one `update` each through `kernel`.
    fn digest_with(kernel: CompressFn, pieces: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(kernel);
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
