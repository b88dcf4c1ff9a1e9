//! Property tests of the streaming storage app: the seal a `put`
//! produces must not depend on how the stream was chunked — auth tags
//! that straddle chunk boundaries included — and ticket accounting must
//! survive arbitrary mid-stream resizes; and a tampered object must be
//! refused before the tampered block reaches the cipher, wherever the
//! tamper sits and however the read is chunked.

use proptest::prelude::*;

use apps::storage::{SecureStore, BLOCK_LEN};
use apps::AppError;
use hotcalls::HotCallConfig;

const SECRET: [u8; 32] = [9u8; 32];

/// Deterministic pseudo-random bytes without pulling a generator into
/// the dependency surface of the test.
fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

proptest! {
    // Each case spawns a live ring; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever chunk schedule the stream runs under — including chunks
    /// that straddle the 4 KiB auth-block boundary mid-tag — the sealed
    /// cipher, the per-block tags, and the object tag are identical to
    /// the single-buffer reference seal, and the roundtrip returns the
    /// exact plaintext.
    #[test]
    fn chunking_never_changes_the_seal(
        len in 0usize..24_000,
        seed in any::<u64>(),
        schedule in proptest::collection::vec(1usize..9000, 1..8),
        window in 1usize..4,
    ) {
        let data = fill(len, seed);
        let mut store = SecureStore::new(&SECRET, 64, 1, HotCallConfig::patient()).unwrap();
        let mut it = schedule.iter().cycle();
        let receipt = store.put("obj", &data, window, || *it.next().unwrap()).unwrap();
        prop_assert_eq!(receipt.report.submitted, receipt.report.redeemed);
        prop_assert_eq!(receipt.report.bytes_in, len as u64);

        let (cipher, tags) = SecureStore::seal_reference(&SECRET, &data);
        let obj = store.object("obj").unwrap();
        prop_assert_eq!(obj.cipher(), &cipher[..]);
        prop_assert_eq!(obj.block_tags(), &tags[..]);
        prop_assert_eq!(receipt.object_tag, obj.object_tag());

        let back = store.get("obj", window, || *it.next().unwrap()).unwrap();
        prop_assert_eq!(back, data);
        store.shutdown();
    }

    /// Wherever one stored bit flips and however the read is chunked,
    /// `get` refuses, and what reached the cipher first is exactly the
    /// chunks that end before the flipped byte's 4 KiB block begins — no
    /// chunk overlapping an unverified block is ever submitted.
    #[test]
    fn a_flipped_bit_never_reaches_the_cipher(
        len in 1usize..24_000,
        seed in any::<u64>(),
        position in any::<usize>(),
        bit in 0u32..8,
        schedule in proptest::collection::vec(1usize..9000, 1..8),
        window in 1usize..4,
    ) {
        let data = fill(len, seed);
        let mut store = SecureStore::new(&SECRET, 64, 1, HotCallConfig::patient()).unwrap();
        store.put("obj", &data, window, || 4096).unwrap();
        store.put("intact", &data, window, || 4096).unwrap();
        let position = position % len;
        prop_assert!(store.tamper("obj", |cipher, _, _| cipher[position] ^= 1 << bit));

        // Chunks of the read that lie wholly before the flipped block.
        let block_start = position / BLOCK_LEN * BLOCK_LEN;
        let (mut admitted, mut end) = (0u64, 0usize);
        for chunk in schedule.iter().cycle() {
            end += chunk;
            if end >= len || end > block_start {
                break;
            }
            admitted += 1;
        }

        let calls = store.ring_stats().calls;
        let mut it = schedule.iter().cycle();
        let refused = store.get("obj", window, || *it.next().unwrap());
        prop_assert!(matches!(refused, Err(AppError::Protocol(_))), "{:?}", refused);
        prop_assert_eq!(store.ring_stats().calls - calls, admitted);

        let mut it = schedule.iter().cycle();
        let back = store.get("intact", window, || *it.next().unwrap()).unwrap();
        prop_assert_eq!(back, data);
        store.shutdown();
    }
}
