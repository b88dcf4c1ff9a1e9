//! ChaCha20 (RFC 8439) — the tunnel cipher of the openVPN port and the
//! stream cipher of the storage data path.
//!
//! The real openVPN uses OpenSSL; cryptography crates are outside the
//! approved dependency set, so the cipher is implemented locally and
//! verified against the RFC 8439 test vectors. Combined with the
//! HMAC-SHA-256 beside it, it gives the tunnel real encrypt-then-MAC
//! semantics.
//!
//! The twenty rounds are written once, generically over a [`Word`]: a
//! `u32` gives the single-block function, a `[u32; N]` gives `N` blocks
//! with consecutive counters side by side, in a shape the compiler turns
//! into vector code. That wide body is built three times — 8 lanes for the
//! baseline target, 8 lanes with AVX2, 16 lanes with AVX-512 — and a
//! request goes down a cascade chosen by what the CPU reports: whole
//! 1 KiB groups through the 16-lane build where there is one, a remaining
//! 512-byte group through an 8-lane build, and the partial head and the
//! tail (always under 512 bytes) through the single-block function. The
//! bytes are the same on every path.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

const BLOCK_LEN: usize = 64;
/// Bytes an `N`-lane body produces per iteration.
const fn group_len(lanes: usize) -> usize {
    lanes * BLOCK_LEN
}

/// One word of the ChaCha state: a `u32`, or the same word of `LANES`
/// independent blocks.
trait Word: Copy {
    fn add(self, other: Self) -> Self;
    /// `(self ^ other) <<< N`.
    fn xor_rotl<const N: u32>(self, other: Self) -> Self;
}

impl Word for u32 {
    #[inline(always)]
    fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }

    #[inline(always)]
    fn xor_rotl<const N: u32>(self, other: Self) -> Self {
        (self ^ other).rotate_left(N)
    }
}

impl<const LANES: usize> Word for [u32; LANES] {
    #[inline(always)]
    fn add(self, other: Self) -> Self {
        core::array::from_fn(|l| self[l].wrapping_add(other[l]))
    }

    #[inline(always)]
    fn xor_rotl<const N: u32>(self, other: Self) -> Self {
        core::array::from_fn(|l| (self[l] ^ other[l]).rotate_left(N))
    }
}

#[inline(always)]
fn quarter_round<W: Word>(state: &mut [W; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].add(state[b]);
    state[d] = state[d].xor_rotl::<16>(state[a]);
    state[c] = state[c].add(state[d]);
    state[b] = state[b].xor_rotl::<12>(state[c]);
    state[a] = state[a].add(state[b]);
    state[d] = state[d].xor_rotl::<8>(state[a]);
    state[c] = state[c].add(state[d]);
    state[b] = state[b].xor_rotl::<7>(state[c]);
}

/// The ChaCha20 block function on an initial state: ten double rounds,
/// then the feed-forward addition.
#[inline(always)]
fn keystream<W: Word>(initial: [W; 16]) -> [W; 16] {
    let mut working = initial;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    core::array::from_fn(|i| working[i].add(initial[i]))
}

/// The initial state for `key` and `nonce` with the counter word zero.
fn initial_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    for (slot, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *slot = word(bytes);
    }
    for (slot, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *slot = word(bytes);
    }
    state
}

/// XORs `bytes` (at most what is left of one block) with block `counter`
/// of the keystream, starting `skip` bytes into the block.
fn xor_block(initial: &[u32; 16], counter: u32, skip: usize, bytes: &mut [u8]) {
    let mut state = *initial;
    state[12] = counter;
    let words = keystream(state);
    let mut block = [0u8; BLOCK_LEN];
    for (out, word) in block.chunks_exact_mut(4).zip(words) {
        out.copy_from_slice(&word.to_le_bytes());
    }
    for (byte, k) in bytes.iter_mut().zip(&block[skip..]) {
        *byte ^= k;
    }
}

/// A wide kernel: XORs `groups` — a whole number of its groups — with the
/// keystream from block `counter` on.
type GroupsFn = fn(&[u32; 16], u32, &mut [u8]);

/// The `N`-lane body every wide kernel is an instantiation of.
#[inline(always)]
fn xor_groups_body<const N: usize>(initial: &[u32; 16], counter: u32, groups: &mut [u8]) {
    debug_assert_eq!(groups.len() % group_len(N), 0);
    let mut first = counter;
    for group in groups.chunks_exact_mut(group_len(N)) {
        let mut state: [[u32; N]; 16] = initial.map(|w| [w; N]);
        state[12] = core::array::from_fn(|lane| first.wrapping_add(lane as u32));
        let words = keystream(state);
        for (lane, block) in group.chunks_exact_mut(BLOCK_LEN).enumerate() {
            for (i, bytes) in block.chunks_exact_mut(4).enumerate() {
                let plain = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                bytes.copy_from_slice(&(plain ^ words[i][lane]).to_le_bytes());
            }
        }
        first = first.wrapping_add(N as u32);
    }
}

/// The 8-lane body built for the baseline target: the fallback on CPUs
/// without AVX2 and on other architectures. (It stays at 8 lanes: wider
/// bodies spill where there are no wide registers, EXPERIMENTS.md "Crypto
/// host speed".)
fn xor_groups_portable(initial: &[u32; 16], counter: u32, groups: &mut [u8]) {
    xor_groups_body::<8>(initial, counter, groups);
}

/// The same body built with AVX2, where one `[u32; 8]` is one register.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn xor_groups_avx2(initial: &[u32; 16], counter: u32, groups: &mut [u8]) {
    xor_groups_body::<8>(initial, counter, groups);
}

/// The same body at 16 lanes built with AVX-512, where one `[u32; 16]` is
/// one register and a rotation one instruction.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn xor_groups_avx512(initial: &[u32; 16], counter: u32, groups: &mut [u8]) {
    xor_groups_body::<16>(initial, counter, groups);
}

/// The AVX2 kernel, if this CPU can run it.
fn avx2_kernel() -> Option<GroupsFn> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if super::cpu::has_avx2() {
        return Some(|initial, counter, groups| {
            // SAFETY: this function pointer is only handed out after
            // `cpu::has_avx2()` saw `avx2` on the running CPU, the one
            // feature the kernel is compiled with; its body is safe code.
            unsafe { xor_groups_avx2(initial, counter, groups) }
        });
    }
    None
}

/// The 16-lane AVX-512 kernel, if this CPU can run it.
fn avx512_kernel() -> Option<GroupsFn> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if super::cpu::has_avx512f() {
        return Some(|initial, counter, groups| {
            // SAFETY: this function pointer is only handed out after
            // `cpu::has_avx512f()` saw `avx512f` on the running CPU, the
            // one feature the kernel is compiled with; its body is safe
            // code.
            unsafe { xor_groups_avx512(initial, counter, groups) }
        });
    }
    None
}

/// Wide kernels to try in turn, widest first, each with the bytes of one
/// of its groups; what none of them takes is the single-block function's.
type Cascade = [Option<(usize, GroupsFn)>; 2];

/// The one place the ChaCha20 kernels are chosen: the 16-lane build where
/// the CPU has AVX-512, then the AVX2 or else the baseline 8-lane build.
fn dispatched() -> Cascade {
    [
        avx512_kernel().map(|kernel| (group_len(16), kernel)),
        Some((
            group_len(8),
            avx2_kernel().unwrap_or(xor_groups_portable as GroupsFn),
        )),
    ]
}

/// The baseline 8-lane build alone, whatever the CPU offers.
const PORTABLE: Cascade = [Some((group_len(8), xor_groups_portable)), None];

/// XORs `data` with the keystream from `skip` bytes into block `counter`
/// on; the counter wraps modulo 2^32. Each kernel of `wide` takes the
/// whole groups of what the one before it left, the partial head and the
/// tail go to the single-block function.
fn xor_stream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    mut counter: u32,
    skip: usize,
    mut data: &mut [u8],
    wide: Cascade,
) {
    let initial = initial_state(key, nonce);
    if skip > 0 {
        let (head, rest) = data.split_at_mut((BLOCK_LEN - skip).min(data.len()));
        xor_block(&initial, counter, skip, head);
        counter = counter.wrapping_add(1);
        data = rest;
    }
    for (group_len, kernel) in wide.into_iter().flatten() {
        let (groups, rest) = data.split_at_mut(data.len() - data.len() % group_len);
        if !groups.is_empty() {
            kernel(&initial, counter, groups);
            counter = counter.wrapping_add((groups.len() / BLOCK_LEN) as u32);
        }
        data = rest;
    }
    for block in data.chunks_mut(BLOCK_LEN) {
        xor_block(&initial, counter, 0, block);
        counter = counter.wrapping_add(1);
    }
}

/// Encrypts or decrypts `data` in place (ChaCha20 is its own inverse) with
/// the RFC 8439 initial counter of 1.
pub fn chacha20_xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    chacha20_xor_at(key, nonce, 1, data);
}

/// Encrypts or decrypts starting at an explicit block counter, which wraps
/// modulo 2^32 (as in [`chacha20_xor_offset`]).
pub fn chacha20_xor_at(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    xor_stream(key, nonce, initial_counter, 0, data, dispatched());
}

/// Bytes of keystream one (key, nonce) pair has: 2^32 blocks.
const KEYSTREAM_LEN: u64 = (BLOCK_LEN as u64) << 32;

/// Encrypts or decrypts `data` in place as if it sat at absolute byte
/// `offset` of one long keystream (initial counter 1, matching
/// [`chacha20_xor`]). Processing a large buffer piecewise through this
/// function is byte-identical to one whole-buffer pass, whatever the
/// piece boundaries — the property the chunked streaming path relies on.
///
/// The block counter is `1 + (offset / 64) as u32`, so the keystream
/// repeats once `offset + data.len()` passes 256 GiB: one (key, nonce)
/// pair must not cover more than that. Debug builds assert it.
pub fn chacha20_xor_offset(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    offset: u64,
    data: &mut [u8],
) {
    xor_offset_with(key, nonce, offset, data, dispatched());
}

/// [`chacha20_xor_offset`] pinned to the baseline build of the 8-lane
/// body whatever the CPU offers: same bytes, for tests and benches that
/// name the portable kernel.
#[doc(hidden)]
pub fn chacha20_xor_offset_portable(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    offset: u64,
    data: &mut [u8],
) {
    xor_offset_with(key, nonce, offset, data, PORTABLE);
}

fn xor_offset_with(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    offset: u64,
    data: &mut [u8],
    wide: Cascade,
) {
    debug_assert!(
        offset.saturating_add(data.len() as u64) <= KEYSTREAM_LEN,
        "keystream of one (key, nonce) pair repeats past 256 GiB"
    );
    let counter = 1u32.wrapping_add((offset / BLOCK_LEN as u64) as u32);
    let skip = (offset % BLOCK_LEN as u64) as usize;
    xor_stream(key, nonce, counter, skip, data, wide);
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The single-block function as a "wide" kernel of one-block groups:
    /// the reference the wide kernels are held to.
    fn xor_groups_single_block(initial: &[u32; 16], counter: u32, groups: &mut [u8]) {
        for (i, block) in groups.chunks_mut(BLOCK_LEN).enumerate() {
            xor_block(initial, counter.wrapping_add(i as u32), 0, block);
        }
    }

    const SINGLE_BLOCK: Cascade = [Some((BLOCK_LEN, xor_groups_single_block)), None];

    /// Every way of producing whole groups, by name, each as a cascade of
    /// its own: the single-block function and the baseline 8-lane build on
    /// every host, the AVX2 and AVX-512 builds where the CPU has them (a
    /// skip note where it does not).
    fn kernels() -> Vec<(&'static str, Cascade)> {
        let accelerated = [
            ("8-lane avx2", group_len(8), avx2_kernel()),
            ("16-lane avx512", group_len(16), avx512_kernel()),
        ];
        let mut named = vec![
            ("single-block", SINGLE_BLOCK),
            ("8-lane portable", PORTABLE),
        ];
        for (name, group_len, kernel) in accelerated {
            match kernel {
                Some(kernel) => named.push((name, [Some((group_len, kernel)), None])),
                None => super::super::tests::note_missing_kernel(name),
            }
        }
        named
    }

    /// The widest group any kernel takes, a multiple of every narrower
    /// one: an input of this length is all wide path on every kernel.
    const WIDEST_GROUP: usize = group_len(16);

    // RFC 8439 §2.3.2 block function test vector, through every kernel:
    // the block with counter 1 is the first of a group starting there.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for (name, kernel) in kernels() {
            let mut group = [0u8; WIDEST_GROUP];
            xor_stream(&key, &nonce, 1, 0, &mut group, kernel);
            assert_eq!(
                hex(&group[..16]),
                "10f1e7e4d13b5915500fdd1fa32071c4",
                "{name}"
            );
            assert_eq!(
                hex(&group[48..64]),
                "b5129cd1de164eb9cbd083e8a2503c4e",
                "{name}"
            );
        }
    }

    // RFC 8439 §2.4.2 encryption test vector; padded to a whole group so
    // the wide kernels encrypt it, not the tail path.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let text = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        for (name, kernel) in kernels() {
            let mut data = [0u8; WIDEST_GROUP];
            data[..text.len()].copy_from_slice(text);
            xor_stream(&key, &nonce, 1, 0, &mut data, kernel);
            assert_eq!(
                hex(&data[..32]),
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b",
                "{name}"
            );
            assert_eq!(
                hex(&data[text.len() - 8..text.len()]),
                "8eedf2785e42874d",
                "{name}"
            );
        }
        let mut data = *text;
        chacha20_xor(&key, &nonce, &mut data);
        assert_eq!(
            hex(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
    }

    #[test]
    fn encrypt_decrypt_is_identity() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let original: Vec<u8> = (0..1500).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        chacha20_xor(&key, &nonce, &mut data);
        assert_ne!(data, original);
        chacha20_xor(&key, &nonce, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn offset_keystream_is_chunking_invariant() {
        let key = [9u8; 32];
        let nonce = [5u8; 12];
        let original: Vec<u8> = (0..10_000).map(|i| (i % 253) as u8).collect();
        let mut whole = original.clone();
        chacha20_xor_offset(&key, &nonce, 0, &mut whole);
        // Whole-buffer at offset 0 matches the RFC path.
        let mut rfc = original.clone();
        chacha20_xor(&key, &nonce, &mut rfc);
        assert_eq!(whole, rfc);
        // Piecewise with odd, block-straddling boundaries matches too.
        let mut pieces = original.clone();
        let mut off = 0usize;
        // The block-aligned 2048- and 1536-byte pieces end in a 1 KiB and
        // in a 512-byte group; most of the others in a ragged tail.
        for take in [1usize, 63, 2048, 1536, 64, 65, 1000, 4096, 127] {
            let end = (off + take).min(pieces.len());
            chacha20_xor_offset(&key, &nonce, off as u64, &mut pieces[off..end]);
            off = end;
        }
        chacha20_xor_offset(&key, &nonce, off as u64, &mut pieces[off..]);
        assert_eq!(pieces, whole);
    }

    /// The block counter wraps modulo 2^32 on every path (`chacha20_xor_at`
    /// used to add without wrapping: a debug-build panic, a silent wrap in
    /// release).
    #[test]
    fn counter_wraps_the_same_way_on_every_path() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        let initial = initial_state(&key, &nonce);
        let start = u32::MAX - 3;
        let original: Vec<u8> = (0..24 * BLOCK_LEN + 17).map(|i| (i % 249) as u8).collect();

        // Single-block path: one block at a time, counter wrapping past 0.
        let mut single = original.clone();
        for (i, block) in single.chunks_mut(BLOCK_LEN).enumerate() {
            xor_block(&initial, start.wrapping_add(i as u32), 0, block);
        }
        // Wide path, every kernel: groups whose lanes straddle the wrap.
        for (name, kernel) in kernels() {
            let mut wide = original.clone();
            xor_stream(&key, &nonce, start, 0, &mut wide, kernel);
            assert_eq!(wide, single, "{name}");
        }
        // The dispatched cascade, on inputs that end in a 1 KiB group, in
        // a 512-byte group and in a ragged tail.
        for len in [16 * BLOCK_LEN, 24 * BLOCK_LEN, original.len()] {
            let mut at = original[..len].to_vec();
            chacha20_xor_at(&key, &nonce, start, &mut at);
            assert_eq!(at, single[..len], "{len} bytes");
        }

        // `_offset` reaches counter `start` at offset (start - 1) * 64 and
        // its keystream ends five blocks later, at 256 GiB (counter 0 is
        // its last block): it agrees up to there ...
        let offset = u64::from(start - 1) * BLOCK_LEN as u64;
        assert_eq!(offset + 5 * BLOCK_LEN as u64, KEYSTREAM_LEN);
        let mut by_offset = original[..5 * BLOCK_LEN].to_vec();
        chacha20_xor_offset(&key, &nonce, offset, &mut by_offset);
        assert_eq!(by_offset, single[..5 * BLOCK_LEN]);
        // ... and so does a run long enough for its wide path that ends
        // exactly there, unaligned start included.
        let len = 19 * BLOCK_LEN + 5;
        let offset = KEYSTREAM_LEN - len as u64;
        let mut by_offset = original[..len].to_vec();
        chacha20_xor_offset(&key, &nonce, offset, &mut by_offset);
        let mut expected = original[..len].to_vec();
        let first = 1u32.wrapping_add((offset / BLOCK_LEN as u64) as u32);
        xor_stream(
            &key,
            &nonce,
            first,
            BLOCK_LEN - 5,
            &mut expected,
            SINGLE_BLOCK,
        );
        assert_eq!(by_offset, expected);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        chacha20_xor(&key, &[0u8; 12], &mut a);
        chacha20_xor(&key, &[1u8; 12], &mut b);
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The wide kernels against the single-block function at any
        /// (offset, length): offsets that start on a block boundary, one
        /// byte in and one byte short of the next, lengths on both sides
        /// of one to five 512-byte groups (so of one and two 1 KiB groups,
        /// with and without a 512-byte group behind them).
        #[test]
        fn every_kernel_matches_the_single_block_function(
            key in proptest::array::uniform32(any::<u8>()),
            block in 0u64..1 << 20,
            within in 0usize..3,
            groups in 0usize..6,
            slack in 0usize..130,
            seed in any::<u8>(),
        ) {
            let nonce = [seed; NONCE_LEN];
            let offset = block * BLOCK_LEN as u64 + [0, 1, 63][within];
            let len = (groups * group_len(8) + slack).saturating_sub(65);
            let original: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(seed)).collect();
            let counter = 1u32.wrapping_add(block as u32);
            let skip = (offset % BLOCK_LEN as u64) as usize;

            let mut expected = original.clone();
            xor_stream(&key, &nonce, counter, skip, &mut expected, SINGLE_BLOCK);
            for (name, kernel) in kernels() {
                let mut data = original.clone();
                xor_stream(&key, &nonce, counter, skip, &mut data, kernel);
                prop_assert_eq!(&data, &expected, "{}", name);
            }
            let mut data = original.clone();
            chacha20_xor_offset(&key, &nonce, offset, &mut data);
            prop_assert_eq!(&data, &expected, "dispatched");
            let mut data = original;
            chacha20_xor_offset_portable(&key, &nonce, offset, &mut data);
            prop_assert_eq!(&data, &expected, "portable entry point");
        }
    }
}
