//! Property tests of the streaming storage app: the seal a `put`
//! produces must not depend on how the stream was chunked — auth tags
//! that straddle chunk boundaries included — and ticket accounting must
//! survive arbitrary mid-stream resizes; and a tampered object must be
//! refused before the tampered block reaches the cipher, wherever the
//! tamper sits and however the read is chunked.
//!
//! What the seal *is* is defined here a second time, from the one-shot
//! `hmac_sha256` and the whole-buffer `chacha20_xor` alone
//! ([`reference_seal`]): `SecureStore::seal_reference` shares the store's
//! block authenticator, so a wrong tag out of that shared code would agree
//! with itself. One golden object pins the bytes as hex.

use proptest::prelude::*;

use apps::storage::{SecureStore, BLOCK_LEN, TAG_LEN};
use apps::AppError;
use hotcalls::HotCallConfig;
use sgx_sim::crypto::{chacha20_xor, hmac_sha256};

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

/// The stored form of `data` under `secret`, written without anything of
/// `apps::storage` and without a keyed or batched MAC state.
struct Reference {
    cipher: Vec<u8>,
    /// `HMAC(mac_key, le64(i) ‖ cipher_block_i)[..16]`.
    tags: Vec<[u8; TAG_LEN]>,
    /// The chain `link = HMAC(mac_key, link ‖ tag)` over every tag, from
    /// thirty-two zero bytes.
    object_tag: [u8; 32],
    /// `HMAC(dedup_key, plain_block_i)`.
    fingerprints: Vec<[u8; 32]>,
}

impl Reference {
    /// Blocks whose content an earlier block of the object already had:
    /// what a fresh store reports as dedup hits.
    fn repeated_blocks(&self) -> u64 {
        let mut seen = std::collections::HashSet::new();
        self.fingerprints
            .iter()
            .filter(|f| !seen.insert(**f))
            .count() as u64
    }
}

fn reference_seal(secret: &[u8; 32], data: &[u8]) -> Reference {
    let key = hmac_sha256(secret, b"storage data key");
    let mac_key = hmac_sha256(secret, b"storage mac key");
    let dedup_key = hmac_sha256(secret, b"storage dedup key");
    let nonce: [u8; 12] = hmac_sha256(secret, b"storage nonce")[..12]
        .try_into()
        .unwrap();
    let mut cipher = data.to_vec();
    chacha20_xor(&key, &nonce, &mut cipher);
    let mut object_tag = [0u8; 32];
    let tags = cipher
        .chunks(BLOCK_LEN)
        .enumerate()
        .map(|(i, block)| {
            let indexed = [&(i as u64).to_le_bytes()[..], block].concat();
            let tag: [u8; TAG_LEN] = hmac_sha256(&mac_key, &indexed)[..TAG_LEN]
                .try_into()
                .unwrap();
            object_tag = hmac_sha256(&mac_key, &[&object_tag[..], &tag[..]].concat());
            tag
        })
        .collect();
    let fingerprints = data
        .chunks(BLOCK_LEN)
        .map(|block| hmac_sha256(&dedup_key, block))
        .collect();
    Reference {
        cipher,
        tags,
        object_tag,
        fingerprints,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden object: 43 whole blocks and a 1 234-byte tail of the byte
/// pattern `storage::tests` uses, blocks 20 and 41 repeating block 3,
/// streamed in chunks that align with nothing. The hex constants are what
/// the parent of PR 20 (commit 1417b50, per-message MACs on the SHA-NI
/// kernel, 8-lane ChaCha20) stored for it.
#[test]
fn golden_object_bytes_are_frozen() {
    const GOLDEN_SECRET: [u8; 32] = [0x5C; 32];
    const LEN: usize = 43 * BLOCK_LEN + 1234;
    let mut data: Vec<u8> = (0..LEN).map(|i| (i * 131 % 251) as u8).collect();
    data.copy_within(3 * BLOCK_LEN..4 * BLOCK_LEN, 20 * BLOCK_LEN);
    data.copy_within(3 * BLOCK_LEN..4 * BLOCK_LEN, 41 * BLOCK_LEN);

    let mut store = SecureStore::new(&GOLDEN_SECRET, 16, 1, HotCallConfig::patient()).unwrap();
    let receipt = store.put("golden", &data, 3, || 70_001).unwrap();
    let obj = store.object("golden").unwrap();
    let tags = obj.block_tags();
    assert_eq!(tags.len(), 44);
    assert_eq!(
        hex(&obj.object_tag()),
        "6d80996e07155e40ba49f30bd1f671597ab87c06279af1e3b91648cd61fd86ef"
    );
    assert_eq!(hex(&tags[0]), "8091a4e5eae2f7faf29dfb971d33759c");
    assert_eq!(hex(&tags[43]), "9832df5065f67235104110bc387d906a");
    assert_eq!(hex(&obj.cipher()[LEN - 8..]), "b9ff9952de686d22");
    assert_eq!(receipt.dedup_hits, 2);

    // The independent definition says the same, and its dedup key for
    // block 3 is the constant `storage::tests` finds in the store's index.
    let reference = reference_seal(&GOLDEN_SECRET, &data);
    assert_eq!(obj.cipher(), &reference.cipher[..]);
    assert_eq!(tags, &reference.tags[..]);
    assert_eq!(obj.object_tag(), reference.object_tag);
    assert_eq!(reference.repeated_blocks(), 2);
    assert_eq!(
        hex(&reference.fingerprints[3]),
        "d56c986301ea6d4d008c7702cf54486c540060bf6b6e5d8dadea41fc031c3e25"
    );
    assert_eq!(store.get("golden", 3, || 70_001).unwrap(), data);
    store.shutdown();
}

proptest! {
    // Each case spawns a live ring; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever chunk schedule the stream runs under — including chunks
    /// that straddle the 4 KiB auth-block boundary mid-tag — the sealed
    /// cipher, the per-block tags, and the object tag are identical to
    /// the independent [`reference_seal`] (and to the store's own
    /// single-buffer reference sealer), the dedup hits are the blocks the
    /// reference fingerprints repeat, and the roundtrip returns the exact
    /// plaintext.
    #[test]
    fn chunking_never_changes_the_seal(
        len in 0usize..24_000,
        seed in any::<u64>(),
        schedule in proptest::collection::vec(1usize..9000, 1..8),
        window in 1usize..4,
    ) {
        let mut data = fill(len, seed);
        // Every fourth block repeats the first, so the dedup index has
        // something to find.
        for block in (4..len / BLOCK_LEN).step_by(4) {
            data.copy_within(..BLOCK_LEN, block * BLOCK_LEN);
        }
        let mut store = SecureStore::new(&SECRET, 64, 1, HotCallConfig::patient()).unwrap();
        let mut it = schedule.iter().cycle();
        let receipt = store.put("obj", &data, window, || *it.next().unwrap()).unwrap();
        prop_assert_eq!(receipt.report.submitted, receipt.report.redeemed);
        prop_assert_eq!(receipt.report.bytes_in, len as u64);

        let reference = reference_seal(&SECRET, &data);
        let obj = store.object("obj").unwrap();
        prop_assert_eq!(obj.cipher(), &reference.cipher[..]);
        prop_assert_eq!(obj.block_tags(), &reference.tags[..]);
        prop_assert_eq!(obj.object_tag(), reference.object_tag);
        prop_assert_eq!(receipt.object_tag, reference.object_tag);
        prop_assert_eq!(receipt.dedup_hits, reference.repeated_blocks());
        let (cipher, tags) = SecureStore::seal_reference(&SECRET, &data);
        prop_assert_eq!((&cipher, &tags), (&reference.cipher, &reference.tags));

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
