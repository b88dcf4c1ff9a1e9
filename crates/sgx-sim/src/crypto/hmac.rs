//! HMAC-SHA-256 (RFC 2104), built on the local [`Sha256`].
//!
//! Used as the simulator's stand-in for the CMAC the real SGX hardware uses
//! for report MACs, paging MACs (EWB version-array protection) and sealing
//! key derivation. The substitution is documented in DESIGN.md; only the
//! *shape* of the protocol matters for the reproduction.

use super::sha256::{Sha256, DIGEST_LEN};

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

/// Derives a sub-key from a master secret and a labelled context, mirroring
/// SGX's `EGETKEY` key-derivation structure.
pub fn derive_key(master: &[u8; DIGEST_LEN], label: &str, context: &[u8]) -> [u8; DIGEST_LEN] {
    let mut msg = Vec::with_capacity(label.len() + 1 + context.len());
    msg.extend_from_slice(label.as_bytes());
    msg.push(0);
    msg.extend_from_slice(context);
    hmac_sha256(master, &msg)
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

    #[test]
    fn verify_tag_detects_single_bit_flip() {
        let tag = hmac_sha256(b"k", b"m");
        let mut bad = tag;
        bad[13] ^= 0x40;
        assert!(verify_tag(&tag, &tag.clone()));
        assert!(!verify_tag(&tag, &bad));
    }

    #[test]
    fn derived_keys_are_domain_separated() {
        let master = [7u8; DIGEST_LEN];
        let a = derive_key(&master, "seal", b"ctx");
        let b = derive_key(&master, "report", b"ctx");
        let c = derive_key(&master, "seal", b"other");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Label/context boundary must matter: "se"+"alctx" != "seal"+"ctx".
        let d = derive_key(&master, "se", b"alctx");
        assert_ne!(a, d);
    }
}
