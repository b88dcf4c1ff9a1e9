//! Secure object storage — the fourth evaluation application.
//!
//! Where memcached, lighttpd and openVPN exercise the *call-rate* side of
//! the interface tax, this app exercises the *bandwidth* side: large
//! objects stream into an enclave-keyed store through the scatter-gather
//! data path ([`hotcalls::rt::SgRing`]), getting encrypted, authenticated
//! and dedup-indexed on the way.
//!
//! The data path is the whole point, so the design keeps crypto strictly
//! *chunking-invariant*: the enclave-side handler XORs a ChaCha20
//! keystream keyed by each chunk's **absolute object offset** (carried in
//! [`SgList::meta`]), and the authentication layer runs a streaming block
//! accumulator over the ciphertext as chunks arrive in object order — a
//! 4 KiB block whose bytes straddle a chunk boundary still produces the
//! same tag. Streaming an object in 64 KiB chunks, 1 MiB chunks, or
//! chunks that resize mid-stream (the EPC-aware chunker's doing) is
//! byte-identical to a single whole-object pass; the property tests hold
//! the app to that.
//!
//! Deduplication indexes plaintext content block-wise (HMAC over each
//! 4 KiB block), so re-ingesting repeated content is detected regardless
//! of which object or offset it first appeared at.

use std::collections::{HashMap, HashSet};

use hotcalls::rt::{SgCallTable, SgList, SgRing, StreamCaller, StreamReport};
use hotcalls::HotCallConfig;
use sgx_sim::crypto::{hmac_sha256, verify_tag, HmacSha256};

use crate::error::{AppError, Result};
use crate::openvpn::{chacha20_xor_offset, KEY_LEN, NONCE_LEN};

/// The application's name as the census and benches spell it.
pub const NAME: &str = "storage";

/// Authentication / dedup block size. Chunk sizes need not align to it —
/// the block accumulator straddles chunk boundaries.
pub const BLOCK_LEN: usize = 4096;

/// Truncated per-block MAC tag length.
pub const TAG_LEN: usize = 16;

/// One stored object: ciphertext plus its authentication metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    cipher: Vec<u8>,
    block_tags: Vec<[u8; TAG_LEN]>,
    object_tag: [u8; 32],
}

impl StoredObject {
    /// The object's ciphertext bytes.
    pub fn cipher(&self) -> &[u8] {
        &self.cipher
    }

    /// Per-[`BLOCK_LEN`]-block authentication tags.
    pub fn block_tags(&self) -> &[[u8; TAG_LEN]] {
        &self.block_tags
    }

    /// The chained whole-object tag.
    pub fn object_tag(&self) -> [u8; 32] {
        self.object_tag
    }

    /// Object length in bytes.
    pub fn len(&self) -> usize {
        self.cipher.len()
    }

    /// Is the object empty?
    pub fn is_empty(&self) -> bool {
        self.cipher.is_empty()
    }
}

/// Running totals of the store's work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects ingested.
    pub puts: u64,
    /// Objects read back.
    pub gets: u64,
    /// Plaintext bytes ingested.
    pub bytes_in: u64,
    /// Plaintext bytes served.
    pub bytes_out: u64,
    /// Content blocks indexed for dedup.
    pub blocks: u64,
    /// Blocks whose content was already in the index.
    pub dedup_hits: u64,
    /// Chunks streamed through the data path.
    pub chunks: u64,
    /// Mid-stream chunk-size changes observed.
    pub chunk_resizes: u64,
}

/// What one [`SecureStore::put`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReceipt {
    /// The streaming run's ticket/byte accounting.
    pub report: StreamReport,
    /// Content blocks the object was indexed into.
    pub blocks: u64,
    /// Blocks already present in the dedup index.
    pub dedup_hits: u64,
    /// The stored object's chained tag.
    pub object_tag: [u8; 32],
}

/// Streaming ciphertext authenticator: feeds bytes into the MAC of the
/// current [`BLOCK_LEN`] block as chunks arrive in object order and emits
/// one tag per block plus a chained object tag. Because it only ever sees
/// a byte sequence, chunk boundaries — aligned, odd, or straddling a block
/// — cannot change its output. Nothing is buffered: a block's bytes go
/// straight from the caller's slice into its running MAC.
#[derive(Debug)]
struct BlockAuth {
    /// The MAC key's absorbed state; every block and chain link clones it.
    keyed: HmacSha256,
    /// MAC of the block in progress (`block_index`, then its bytes so far).
    block: HmacSha256,
    filled: usize,
    block_index: u64,
    tags: Vec<[u8; TAG_LEN]>,
    chain: [u8; 32],
}

impl BlockAuth {
    /// An authenticator under `keyed` for an object of `blocks` blocks
    /// (the tag vector is reserved once, up front).
    fn new(keyed: &HmacSha256, blocks: usize) -> Self {
        BlockAuth {
            keyed: keyed.clone(),
            block: Self::open_block(keyed, 0),
            filled: 0,
            block_index: 0,
            tags: Vec::with_capacity(blocks),
            chain: [0u8; 32],
        }
    }

    fn open_block(keyed: &HmacSha256, index: u64) -> HmacSha256 {
        let mut mac = keyed.clone();
        mac.update(&index.to_le_bytes());
        mac
    }

    /// Closes the block in progress: its tag, the next chain link, and a
    /// fresh MAC for the block after it.
    fn seal_block(&mut self) {
        self.block_index += 1;
        let next = Self::open_block(&self.keyed, self.block_index);
        let full = core::mem::replace(&mut self.block, next).finalize();
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        self.tags.push(tag);
        let mut link = self.keyed.clone();
        link.update(&self.chain);
        link.update(&tag);
        self.chain = link.finalize();
        self.filled = 0;
    }

    fn absorb(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (now, later) = bytes.split_at((BLOCK_LEN - self.filled).min(bytes.len()));
            self.block.update(now);
            self.filled += now.len();
            if self.filled == BLOCK_LEN {
                self.seal_block();
            }
            bytes = later;
        }
    }

    fn finish(mut self) -> (Vec<[u8; TAG_LEN]>, [u8; 32]) {
        if self.filled > 0 {
            self.seal_block();
        }
        (self.tags, self.chain)
    }
}

/// ORs together the differences of two tag lists — the [`verify_tag`]
/// comparison shape, over every block instead of stopping at the first
/// mismatch.
fn block_tags_match(expected: &[[u8; TAG_LEN]], actual: &[[u8; TAG_LEN]]) -> bool {
    let mut diff = u8::from(expected.len() != actual.len());
    for (a, b) in expected.iter().flatten().zip(actual.iter().flatten()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// The secure object store: an [`SgRing`] whose handler holds the data
/// key, a [`StreamCaller`] feeding it, and the object / dedup indexes.
#[derive(Debug)]
pub struct SecureStore {
    ring: SgRing,
    caller: StreamCaller,
    crypt_id: u32,
    /// Keyed once at construction; every block MAC clones these.
    mac: HmacSha256,
    dedup_mac: HmacSha256,
    objects: HashMap<String, StoredObject>,
    dedup: HashSet<[u8; 32]>,
    stats: StoreStats,
}

impl SecureStore {
    /// Builds a store keyed by `secret`: derives data/MAC/dedup keys,
    /// registers the offset-keyed stream cipher as the enclave-side
    /// handler, and spawns `n_responders` over a ring of `capacity`
    /// slots.
    ///
    /// # Errors
    ///
    /// As [`SgRing::spawn_pool`].
    pub fn new(
        secret: &[u8; 32],
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        let key: [u8; KEY_LEN] = hmac_sha256(secret, b"storage data key");
        let mac = HmacSha256::new(&hmac_sha256(secret, b"storage mac key"));
        let dedup_mac = HmacSha256::new(&hmac_sha256(secret, b"storage dedup key"));
        let nonce: [u8; NONCE_LEN] = hmac_sha256(secret, b"storage nonce")[..NONCE_LEN]
            .try_into()
            .expect("nonce length");
        let mut table = SgCallTable::new();
        // The enclave side of the app: the data key never leaves this
        // closure. Each chunk is en/decrypted in place, segment by
        // segment, keyed by its absolute object offset — so any chunking
        // of the same object yields the same bytes.
        let crypt_id = table.register(move |sg: &mut SgList| {
            let mut offset = sg.meta();
            let n = sg.len();
            for seg in sg.segments_mut() {
                let len = seg.len();
                chacha20_xor_offset(&key, &nonce, offset, &mut seg.raw_mut()[..len]);
                offset += len as u64;
            }
            n
        });
        let ring = SgRing::spawn_pool(table, capacity, n_responders, config)?;
        let caller = ring.caller();
        Ok(SecureStore {
            ring,
            caller,
            crypt_id,
            mac,
            dedup_mac,
            objects: HashMap::new(),
            dedup: HashSet::new(),
            stats: StoreStats::default(),
        })
    }

    /// Ingests `data` as object `name`: dedup-indexes its content blocks,
    /// streams it through the enclave cipher in pipelined chunks of
    /// `chunk_bytes()` bytes (re-read per chunk — wire it to
    /// [`hotcalls::Controller::chunk_bytes`] for EPC-aware sizing) under
    /// a credit window of `window`, and authenticates the ciphertext
    /// block-wise as it lands.
    ///
    /// # Errors
    ///
    /// Propagates interface errors; a failed stream stores nothing.
    pub fn put(
        &mut self,
        name: &str,
        data: &[u8],
        window: usize,
        chunk_bytes: impl FnMut() -> usize,
    ) -> Result<PutReceipt> {
        // Dedup pass over the plaintext content blocks.
        let mut dedup_hits = 0u64;
        let mut blocks = 0u64;
        for block in data.chunks(BLOCK_LEN) {
            blocks += 1;
            let mut mac = self.dedup_mac.clone();
            mac.update(block);
            if !self.dedup.insert(mac.finalize()) {
                dedup_hits += 1;
            }
        }

        // Stream plaintext → ciphertext; authenticate as chunks land.
        let mut cipher = Vec::with_capacity(data.len());
        let mut auth = BlockAuth::new(&self.mac, data.len().div_ceil(BLOCK_LEN));
        let report = self.caller.stream(
            self.crypt_id,
            data,
            window,
            chunk_bytes,
            |_offset, sg: &SgList| {
                for seg in sg.segments() {
                    auth.absorb(seg.as_slice());
                    cipher.extend_from_slice(seg.as_slice());
                }
            },
        )?;
        let (block_tags, object_tag) = auth.finish();

        self.stats.puts += 1;
        self.stats.bytes_in += data.len() as u64;
        self.stats.blocks += blocks;
        self.stats.dedup_hits += dedup_hits;
        self.stats.chunks += report.chunks;
        self.stats.chunk_resizes += report.resizes;
        self.objects.insert(
            name.to_string(),
            StoredObject {
                cipher,
                block_tags,
                object_tag,
            },
        );
        Ok(PutReceipt {
            report,
            blocks,
            dedup_hits,
            object_tag,
        })
    }

    /// Reads object `name` back: verifies every block tag and the chained
    /// object tag over the stored ciphertext, then streams it through the
    /// enclave cipher (its own inverse) to recover the plaintext.
    ///
    /// # Errors
    ///
    /// [`AppError::NotFound`] for unknown names, [`AppError::Protocol`]
    /// if any tag fails verification (the object is served only if
    /// authentic), plus interface errors.
    pub fn get(
        &mut self,
        name: &str,
        window: usize,
        chunk_bytes: impl FnMut() -> usize,
    ) -> Result<Vec<u8>> {
        let obj = self.objects.get(name).ok_or(AppError::NotFound)?;

        // Authenticate before decrypting.
        let mut auth = BlockAuth::new(&self.mac, obj.cipher.len().div_ceil(BLOCK_LEN));
        auth.absorb(&obj.cipher);
        let (tags, chain) = auth.finish();
        if !block_tags_match(&obj.block_tags, &tags) || !verify_tag(&chain, &obj.object_tag) {
            return Err(AppError::Protocol(format!(
                "object {name:?} failed authentication"
            )));
        }

        let mut plain = Vec::with_capacity(obj.cipher.len());
        let report = self.caller.stream(
            self.crypt_id,
            &obj.cipher,
            window,
            chunk_bytes,
            |_offset, sg: &SgList| {
                for seg in sg.segments() {
                    plain.extend_from_slice(seg.as_slice());
                }
            },
        )?;
        self.stats.gets += 1;
        self.stats.bytes_out += plain.len() as u64;
        self.stats.chunks += report.chunks;
        self.stats.chunk_resizes += report.resizes;
        Ok(plain)
    }

    /// The stored (encrypted) form of object `name`.
    pub fn object(&self, name: &str) -> Option<&StoredObject> {
        self.objects.get(name)
    }

    /// Objects currently stored.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Running totals.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Counters of the caller's private arena (the zero-alloc evidence).
    pub fn arena_stats(&self) -> hotcalls::rt::ArenaStats {
        self.caller.arena_stats()
    }

    /// Transport statistics of the underlying sg plane.
    pub fn ring_stats(&self) -> hotcalls::HotCallStats {
        self.ring.stats()
    }

    /// A telemetry provider for the store's data plane (register with
    /// [`hotcalls::TelemetryRegistry::register_plane`]).
    pub fn telemetry_provider(&self) -> hotcalls::telemetry::PlaneProvider {
        self.ring.telemetry_provider(NAME)
    }

    /// Stops the responder pool and joins it.
    pub fn shutdown(self) {
        self.ring.shutdown();
    }

    /// The reference sealer: encrypts `data` in one whole-object pass on
    /// the caller's thread with the same keys the streamed path uses.
    /// The equivalence property tests compare every chunked ingest
    /// against this.
    pub fn seal_reference(secret: &[u8; 32], data: &[u8]) -> (Vec<u8>, Vec<[u8; TAG_LEN]>) {
        let key: [u8; KEY_LEN] = hmac_sha256(secret, b"storage data key");
        let mac = HmacSha256::new(&hmac_sha256(secret, b"storage mac key"));
        let nonce: [u8; NONCE_LEN] = hmac_sha256(secret, b"storage nonce")[..NONCE_LEN]
            .try_into()
            .expect("nonce length");
        let mut cipher = data.to_vec();
        chacha20_xor_offset(&key, &nonce, 0, &mut cipher);
        let mut auth = BlockAuth::new(&mac, cipher.len().div_ceil(BLOCK_LEN));
        auth.absorb(&cipher);
        let (tags, _) = auth.finish();
        (cipher, tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SecureStore {
        SecureStore::new(&[0x33u8; 32], 16, 2, HotCallConfig::patient()).unwrap()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn put_get_roundtrips_large_objects() {
        let mut s = store();
        let data = pattern(3 << 20);
        let receipt = s.put("big", &data, 2, || 256 << 10).unwrap();
        assert_eq!(receipt.report.bytes_in, 3 << 20);
        assert_eq!(receipt.report.submitted, receipt.report.redeemed);
        assert_eq!(receipt.blocks, (3 << 20) / BLOCK_LEN as u64);
        let back = s.get("big", 2, || 256 << 10).unwrap();
        assert_eq!(back, data);
        // Ciphertext actually differs from plaintext.
        assert_ne!(&s.object("big").unwrap().cipher()[..64], &data[..64]);
    }

    #[test]
    fn chunking_cannot_change_the_stored_object() {
        let secret = [0x44u8; 32];
        let data = pattern(1_000_001); // odd length: partial tail block
        let mut coarse = SecureStore::new(&secret, 16, 1, HotCallConfig::patient()).unwrap();
        let mut fine = SecureStore::new(&secret, 16, 2, HotCallConfig::patient()).unwrap();
        coarse.put("obj", &data, 1, || 1 << 20).unwrap();
        // Odd chunk size, deeper window: same object must come out.
        fine.put("obj", &data, 3, || 70_001).unwrap();
        assert_eq!(coarse.object("obj"), fine.object("obj"));
        // And both match the single-pass reference sealer.
        let (cipher, tags) = SecureStore::seal_reference(&secret, &data);
        let obj = coarse.object("obj").unwrap();
        assert_eq!(obj.cipher(), &cipher[..]);
        assert_eq!(obj.block_tags(), &tags[..]);
    }

    #[test]
    fn dedup_detects_repeated_blocks_across_objects() {
        let mut s = store();
        let block = pattern(BLOCK_LEN);
        let mut repeated = Vec::new();
        for _ in 0..8 {
            repeated.extend_from_slice(&block);
        }
        let r1 = s.put("a", &repeated, 2, || 16 << 10).unwrap();
        assert_eq!(r1.blocks, 8);
        assert_eq!(r1.dedup_hits, 7, "7 of 8 identical blocks dedup");
        // The same content in another object dedups fully.
        let r2 = s.put("b", &repeated, 2, || 16 << 10).unwrap();
        assert_eq!(r2.dedup_hits, 8);
        assert_eq!(s.stats().dedup_hits, 15);
    }

    #[test]
    fn tampered_ciphertext_is_refused() {
        let mut s = store();
        let data = pattern(100_000);
        s.put("x", &data, 2, || 32 << 10).unwrap();
        // Corrupt one stored byte.
        s.objects.get_mut("x").unwrap().cipher[50_000] ^= 1;
        let err = s.get("x", 2, || 32 << 10).unwrap_err();
        assert!(matches!(err, AppError::Protocol(_)));
        assert!(s.get("missing", 2, || 32 << 10).is_err());
    }

    #[test]
    fn steady_state_puts_do_not_allocate_arena_buffers() {
        let mut s = store();
        let data = pattern(512 << 10);
        s.put("warm", &data, 2, || 64 << 10).unwrap();
        let warm = s.arena_stats().allocs;
        for i in 0..4 {
            s.put(&format!("o{i}"), &data, 2, || 64 << 10).unwrap();
        }
        assert_eq!(s.arena_stats().allocs, warm, "{:?}", s.arena_stats());
    }

    #[test]
    fn mid_stream_resizes_flow_into_store_stats() {
        let mut s = store();
        let data = pattern(600_000);
        let mut next = 128 << 10;
        let receipt = s
            .put("shrinking", &data, 2, move || {
                let c = next;
                next = (next / 2).max(16 << 10);
                c
            })
            .unwrap();
        assert!(receipt.report.resizes >= 2, "{receipt:?}");
        assert_eq!(s.stats().chunk_resizes, receipt.report.resizes);
        let back = s.get("shrinking", 2, || 64 << 10).unwrap();
        assert_eq!(back, data);
    }
}
