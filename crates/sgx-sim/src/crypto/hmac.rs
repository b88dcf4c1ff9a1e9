//! HMAC-SHA-256 (RFC 2104), built on the local [`Sha256`].
//!
//! Used as the simulator's stand-in for the CMAC the real SGX hardware uses
//! for paging MACs (EWB version-array protection), and by the apps for the
//! tunnel's packet MACs and the store's block tags. The substitution is
//! documented in DESIGN.md; only the *shape* of the protocol matters for
//! the reproduction.

use super::sha256::{self, Sha256, WideCompressFn, WideState, DIGEST_LEN, WIDE_LANES};

const BLOCK_LEN: usize = 64;

/// A keyed, streaming HMAC-SHA-256 state.
///
/// [`HmacSha256::new`] absorbs the key's inner and outer pads once; a
/// caller that MACs many messages under one key keeps that state and
/// `clone`s it per message (two hash states, no allocation) instead of
/// re-hashing both pads every time.
///
/// # Examples
///
/// ```
/// use sgx_sim::crypto::{hmac_sha256, HmacSha256};
///
/// let keyed = HmacSha256::new(b"key");
/// let mut mac = keyed.clone();
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// assert_eq!(
///     mac.finalize(),
///     hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog"),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Keys a fresh state.
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::new())
    }

    /// As [`HmacSha256::new`] over [`Sha256::portable`]: same tags, for
    /// tests and benches that name the portable kernel.
    #[doc(hidden)]
    pub fn portable(key: &[u8]) -> Self {
        Self::keyed(key, Sha256::portable())
    }

    fn keyed(key: &[u8], fresh: Sha256) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = fresh.clone();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = fresh;
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs the next piece of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the message and returns its tag.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// The tags of many equal-length messages under this key: message `i`
    /// is `prefix(i)` followed by the `i`-th `body_len` bytes of `bodies`,
    /// and `on_tag` receives the tags in message order. **By definition**
    /// each is what
    ///
    /// ```text
    /// let mut mac = self.clone();
    /// mac.update(&prefix(i));
    /// mac.update(body_i);
    /// mac.finalize()
    /// ```
    ///
    /// returns — continuing whatever `self` has absorbed already — and
    /// that per-message code is also what runs for a remainder of fewer
    /// than sixteen messages, for a `body_len` that is not a multiple of
    /// the hash's 64-byte block, for a prefix of 56 bytes or more, for a
    /// state keyed by [`HmacSha256::portable`], and on a CPU without the
    /// multi-buffer kernel. Only otherwise are sixteen messages hashed
    /// side by side, from a few staged blocks on the stack; nothing is
    /// allocated either way.
    ///
    /// # Panics
    ///
    /// If `bodies` is not a whole number of `body_len`-byte messages.
    ///
    /// # Examples
    ///
    /// ```
    /// use sgx_sim::crypto::HmacSha256;
    ///
    /// let keyed = HmacSha256::new(b"key");
    /// let blocks = [7u8; 3 * 128];
    /// let mut tags = Vec::new();
    /// keyed.tag_each(|i| (i as u64).to_le_bytes(), &blocks, 128, |tag| tags.push(tag));
    ///
    /// let mut second = keyed.clone();
    /// second.update(&1u64.to_le_bytes());
    /// second.update(&blocks[128..256]);
    /// assert_eq!(tags.len(), 3);
    /// assert_eq!(tags[1], second.finalize());
    /// ```
    pub fn tag_each<const P: usize>(
        &self,
        prefix: impl Fn(usize) -> [u8; P],
        bodies: &[u8],
        body_len: usize,
        mut on_tag: impl FnMut([u8; DIGEST_LEN]),
    ) {
        if bodies.is_empty() {
            return;
        }
        assert!(
            body_len > 0 && bodies.len().is_multiple_of(body_len),
            "{} bytes are not a whole number of {body_len}-byte messages",
            bodies.len()
        );
        let mut done = 0;
        if let Some(wide) = self.wide_start(P, body_len) {
            for group in bodies.chunks_exact(WIDE_LANES * body_len) {
                let prefixes: [[u8; P]; WIDE_LANES] =
                    core::array::from_fn(|lane| prefix(done + lane));
                let tags = wide.tag_lanes(prefixes.as_flattened(), group);
                tags.into_iter().for_each(&mut on_tag);
                done += WIDE_LANES;
            }
        }
        for body in bodies[done * body_len..].chunks_exact(body_len) {
            let mut mac = self.clone();
            mac.update(&prefix(done));
            mac.update(body);
            on_tag(mac.finalize());
            done += 1;
        }
    }

    /// Where sixteen messages of a `prefix_len`-byte prefix and `body_len`
    /// bytes would start from, if their shape suits the multi-buffer
    /// kernel and there is one: every message's blocks are then a staged
    /// head (prefix and the body bytes that fill its block), whole blocks
    /// straight from the body, and one staged tail that the padding fits
    /// in.
    fn wide_start(&self, prefix_len: usize, body_len: usize) -> Option<WideStart> {
        let (inner, absorbed) = self.inner.midstate()?;
        let (outer, outer_absorbed) = self.outer.midstate()?;
        if prefix_len >= 56 || !body_len.is_multiple_of(BLOCK_LEN) {
            return None;
        }
        Some(WideStart {
            kernel: sha256::avx512_kernel()?,
            inner,
            inner_len: absorbed + (prefix_len + body_len) as u64,
            outer,
            outer_len: outer_absorbed + DIGEST_LEN as u64,
        })
    }
}

/// What sixteen side-by-side messages of one shape share: the kernel, the
/// two chaining values they continue and the lengths their paddings state.
struct WideStart {
    kernel: WideCompressFn,
    inner: [u32; 8],
    inner_len: u64,
    outer: [u32; 8],
    outer_len: u64,
}

impl WideStart {
    /// Tags of the sixteen messages `prefixes[lane] ‖ group[lane]`, both
    /// given as sixteen equal pieces laid end to end. Not generic, so the
    /// whole multi-buffer path is compiled once, in this crate.
    fn tag_lanes(&self, prefixes: &[u8], group: &[u8]) -> [[u8; DIGEST_LEN]; WIDE_LANES] {
        let (p, body_len) = (prefixes.len() / WIDE_LANES, group.len() / WIDE_LANES);
        type Staged = [[u8; BLOCK_LEN]; WIDE_LANES];
        fn lanes_of(staged: &Staged) -> [&[u8]; WIDE_LANES] {
            core::array::from_fn(|lane| &staged[lane][..])
        }
        fn digest_of(state: &WideState, lane: usize) -> [u8; DIGEST_LEN] {
            let mut digest = [0u8; DIGEST_LEN];
            for (bytes, row) in digest.chunks_exact_mut(4).zip(state) {
                bytes.copy_from_slice(&row[lane].to_be_bytes());
            }
            digest
        }
        let bodies: [&[u8]; WIDE_LANES] =
            core::array::from_fn(|lane| &group[lane * body_len..(lane + 1) * body_len]);
        let mut staged: Staged = [[0u8; BLOCK_LEN]; WIDE_LANES];
        let mut state: WideState = self.inner.map(|word| [word; WIDE_LANES]);

        // Head: the prefix and the body bytes that complete its block.
        let head = if p > 0 { BLOCK_LEN - p } else { 0 };
        if p > 0 {
            for (lane, block) in staged.iter_mut().enumerate() {
                block[..p].copy_from_slice(&prefixes[lane * p..(lane + 1) * p]);
                block[p..].copy_from_slice(&bodies[lane][..head]);
            }
            (self.kernel)(&mut state, &lanes_of(&staged));
        }
        // Whole blocks, read where they lie.
        let tail = body_len - p;
        (self.kernel)(&mut state, &bodies.map(|body| &body[head..tail]));
        // Tail: the `p` bytes the head pushed out of the last whole
        // block, then the padding.
        for (block, body) in staged.iter_mut().zip(bodies) {
            block[..p].copy_from_slice(&body[tail..]);
            sha256::pad_last_block(block, p, self.inner_len);
        }
        (self.kernel)(&mut state, &lanes_of(&staged));

        // Outer hash: one block per lane, the inner digest and padding.
        for (lane, block) in staged.iter_mut().enumerate() {
            block[..DIGEST_LEN].copy_from_slice(&digest_of(&state, lane));
            sha256::pad_last_block(block, DIGEST_LEN, self.outer_len);
        }
        let mut state: WideState = self.outer.map(|word| [word; WIDE_LANES]);
        (self.kernel)(&mut state, &lanes_of(&staged));
        core::array::from_fn(|lane| digest_of(&state, lane))
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use sgx_sim::crypto::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time-style tag comparison (the simulator does not defend against
/// real timing attacks, but the comparison shape matches hardware behaviour).
pub fn verify_tag(expected: &[u8; DIGEST_LEN], actual: &[u8; DIGEST_LEN]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test cases 1-4 and 6 (key longer than a block):
    /// (key, message, tag).
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ]
    }

    /// `HmacSha256::new` + `update` + `finalize` is all `hmac_sha256` does,
    /// so the dispatched row is the one-shot function's vector test too.
    #[test]
    fn rfc4231_vectors_on_each_kernel() {
        type Keyed = fn(&[u8]) -> HmacSha256;
        let kernels: [(&str, Keyed); 2] = [
            ("portable", HmacSha256::portable),
            ("dispatched", HmacSha256::new),
        ];
        for (name, keyed) in kernels {
            for (key, message, tag) in rfc4231() {
                let mut mac = keyed(&key);
                mac.update(&message);
                assert_eq!(hex(&mac.finalize()), tag, "{name}");
            }
        }
    }

    #[test]
    fn one_keyed_state_serves_many_messages() {
        let keyed = HmacSha256::new(b"shared key");
        for message in [&b"first"[..], b"", b"a much longer second message"] {
            let mut mac = keyed.clone();
            mac.update(message);
            assert_eq!(mac.finalize(), hmac_sha256(b"shared key", message));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming in arbitrary pieces equals the one-shot MAC, on the
        /// dispatched and on the portable kernel, for keys on both sides
        /// of the block length.
        #[test]
        fn streaming_equals_one_shot(
            key in proptest::collection::vec(any::<u8>(), 0..150),
            message in proptest::collection::vec(any::<u8>(), 0..9_000),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (message.len() + 1)).collect();
            cuts.push(message.len());
            cuts.sort_unstable();
            let expected = hmac_sha256(&key, &message);
            for mut mac in [HmacSha256::new(&key), HmacSha256::portable(&key)] {
                let mut at = 0;
                for &cut in &cuts {
                    mac.update(&message[at..cut]);
                    at = cut;
                }
                prop_assert_eq!(mac.finalize(), expected);
            }
        }
    }

    /// Both ways of keying a state, by name: `portable` never has the
    /// multi-buffer kernel, `dispatched` has it where the CPU does (a
    /// skip note where it does not).
    fn keyed_states(key: &[u8]) -> [(&'static str, HmacSha256); 2] {
        if sha256::avx512_kernel().is_none() {
            super::super::tests::note_missing_kernel("16-lane avx512bw (tag_each)");
        }
        [
            ("portable", HmacSha256::portable(key)),
            ("dispatched", HmacSha256::new(key)),
        ]
    }

    /// Deterministic bytes that differ from lane to lane.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mix = |i: usize| (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
        (0..len).map(|i| mix(i) as u8).collect()
    }

    /// `tag_each` on `keyed` against its definition spelled out on `reference`.
    fn assert_tag_each_is_per_message<const P: usize>(
        what: &str,
        keyed: &HmacSha256,
        reference: &HmacSha256,
        prefix: impl Fn(usize) -> [u8; P],
        bodies: &[u8],
        body_len: usize,
    ) {
        let mut tags = Vec::new();
        keyed.tag_each(&prefix, bodies, body_len, |tag| tags.push(tag));
        let expected: Vec<_> = bodies
            .chunks(body_len)
            .enumerate()
            .map(|(i, body)| {
                let mut mac = reference.clone();
                mac.update(&prefix(i));
                mac.update(body);
                mac.finalize()
            })
            .collect();
        assert_eq!(tags, expected, "{what}");
    }

    /// The two shapes the store batches — `le64(index)` before a 4 KiB
    /// block, and the bare block — over two full groups and a remainder,
    /// against the one-shot function; then the shapes that must fall back
    /// to one message at a time rather than panic.
    #[test]
    fn tag_each_matches_one_shot_macs_on_the_store_shapes() {
        let key = [0x3Cu8; 32];
        let bodies = noise(35 * 4096, 77);
        for (name, keyed) in keyed_states(&key) {
            let mut indexed = Vec::new();
            keyed.tag_each(
                |i| (1000 + i as u64).to_le_bytes(),
                &bodies,
                4096,
                |tag| indexed.push(tag),
            );
            let mut bare = Vec::new();
            keyed.tag_each(|_| [], &bodies, 4096, |tag| bare.push(tag));
            assert_eq!((indexed.len(), bare.len()), (35, 35), "{name}");
            for (i, block) in bodies.chunks(4096).enumerate() {
                let message = [&(1000 + i as u64).to_le_bytes()[..], block].concat();
                assert_eq!(indexed[i], hmac_sha256(&key, &message), "{name}, block {i}");
                assert_eq!(bare[i], hmac_sha256(&key, block), "{name}, block {i}");
            }

            let reference = HmacSha256::portable(&key);
            let long_prefix = |i: usize| [i as u8; 56];
            assert_tag_each_is_per_message(name, &keyed, &reference, long_prefix, &bodies, 4096);
            let ragged = &bodies[..20 * 4000];
            assert_tag_each_is_per_message(name, &keyed, &reference, |_| [], ragged, 4000);
            keyed.tag_each(|_| [], &[], 0, |_| panic!("{name}: no message, no tag"));
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn tag_each_refuses_a_ragged_batch() {
        HmacSha256::new(b"k").tag_each(|_| [], &[0u8; 100], 64, |_| {});
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The batch entry point against one clone/update/finalize per
        /// message on the portable kernel: up to two full groups and a
        /// remainder, body lengths that are and are not whole hash blocks,
        /// with and without a prefix, keys on both sides of the block
        /// length, lanes that all differ, and a keyed state that has
        /// already absorbed nothing, a whole block or a few bytes.
        #[test]
        fn tag_each_equals_one_message_at_a_time(
            key in proptest::collection::vec(any::<u8>(), 0..150),
            messages in 0usize..40,
            whole_blocks in 0usize..4,
            ragged in 0usize..3,
            absorbed in 0usize..3,
            seed in any::<u64>(),
        ) {
            let body_len = (whole_blocks * BLOCK_LEN + [0, 1, 63][ragged]).max(1);
            let bodies = noise(messages * body_len, seed);
            let already = noise([0, BLOCK_LEN, 5][absorbed], !seed);
            let mut reference = HmacSha256::portable(&key);
            reference.update(&already);
            for (name, mut keyed) in keyed_states(&key) {
                keyed.update(&already);
                let indexed = |i: usize| (seed ^ i as u64).to_le_bytes();
                assert_tag_each_is_per_message(name, &keyed, &reference, indexed, &bodies, body_len);
                assert_tag_each_is_per_message(name, &keyed, &reference, |_| [], &bodies, body_len);
            }
        }
    }

    #[test]
    fn verify_tag_detects_single_bit_flip() {
        let tag = hmac_sha256(b"k", b"m");
        let mut bad = tag;
        bad[13] ^= 0x40;
        assert!(verify_tag(&tag, &tag.clone()));
        assert!(!verify_tag(&tag, &bad));
    }
}
