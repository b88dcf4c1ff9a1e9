//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use hotcalls_repro::apps::memcached::protocol;
use hotcalls_repro::sgx_sim::cache::SetAssocCache;
use hotcalls_repro::sgx_sim::crypto::{chacha20_xor, hmac_sha256, Sha256, KEY_LEN, NONCE_LEN};
use hotcalls_repro::sgx_sim::tlb::Tlb;
use hotcalls_repro::sgx_sim::CacheGeometry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        splits in proptest::collection::vec(0usize..2048, 0..5),
    ) {
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Distinct messages (almost surely) produce distinct MACs, and the MAC
    /// is deterministic.
    #[test]
    fn hmac_deterministic_and_sensitive(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        flip in 0usize..512,
    ) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert_eq!(tag, hmac_sha256(&key, &msg));
        if !msg.is_empty() {
            let mut other = msg.clone();
            let i = flip % other.len();
            other[i] ^= 1;
            prop_assert_ne!(tag, hmac_sha256(&key, &other));
        }
    }

    /// ChaCha20 is an involution under the same key/nonce, and ciphertext
    /// differs from plaintext for non-degenerate inputs.
    #[test]
    fn chacha20_roundtrip(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::collection::vec(any::<u8>(), NONCE_LEN),
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let key: [u8; KEY_LEN] = key;
        let nonce: [u8; NONCE_LEN] = nonce.try_into().unwrap();
        let mut buf = data.clone();
        chacha20_xor(&key, &nonce, &mut buf);
        chacha20_xor(&key, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// memcached protocol: any key/value round-trips through the wire
    /// format.
    #[test]
    fn memcached_protocol_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 1..250),
        value in proptest::collection::vec(any::<u8>(), 0..4096),
        opaque in any::<u32>(),
    ) {
        let wire = protocol::encode_set(&key, &value, opaque);
        let req = protocol::parse_request(wire).unwrap();
        prop_assert_eq!(req.opcode, protocol::Opcode::Set);
        prop_assert_eq!(&req.key[..], &key[..]);
        prop_assert_eq!(&req.value[..], &value[..]);
        prop_assert_eq!(req.opaque, opaque);

        let resp = protocol::Response {
            opcode: protocol::Opcode::Get,
            status: protocol::Status::Ok,
            value: req.value.clone(),
            opaque,
        };
        let parsed = protocol::parse_response(protocol::encode_response(&resp)).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    /// Truncating a valid frame never parses successfully (no partial
    /// acceptance).
    #[test]
    fn memcached_truncation_always_rejected(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        value in proptest::collection::vec(any::<u8>(), 1..256),
        cut in 1usize..24,
    ) {
        let wire = protocol::encode_set(&key, &value, 9);
        let truncated = wire.slice(..wire.len().saturating_sub(cut));
        prop_assert!(protocol::parse_request(truncated).is_err());
    }

    /// Cache invariant: after accessing a line it is present; after
    /// invalidating it, absent. Presence never exceeds capacity.
    #[test]
    fn cache_presence_and_capacity(
        ops in proptest::collection::vec((any::<bool>(), 0u64..4096), 1..300),
    ) {
        let mut c = SetAssocCache::new(&CacheGeometry {
            capacity: 4096,
            ways: 4,
            line: 64,
            hit_latency: 1,
        });
        for (access, line) in ops {
            if access {
                c.access(line);
                prop_assert!(c.contains(line));
            } else {
                c.invalidate(line);
                prop_assert!(!c.contains(line));
            }
            prop_assert!(c.occupancy() <= 64); // 16 sets x 4 ways
        }
    }

    /// TLB: most-recently-touched page always hits on the immediate
    /// retry, and capacity bounds the resident set.
    #[test]
    fn tlb_recency_and_capacity(pages in proptest::collection::vec(0u64..10_000, 1..500)) {
        let mut tlb = Tlb::new(64);
        for p in pages {
            tlb.touch(p);
            prop_assert!(tlb.touch(p), "immediate retouch of {p} must hit");
        }
    }
}
