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
//!
//! **Blocks are MACed in runs, not one by one.** Every 4 KiB block's tag
//! and fingerprint is an independent message under one key, so all three
//! MAC passes hand each run of whole blocks to
//! [`HmacSha256::tag_each`], which hashes sixteen of them side by side
//! where the CPU can and defines the result as one MAC per block
//! everywhere: the block authenticator does so for every run that arrives
//! while no block is open (a block that arrives in pieces still streams
//! through its own running MAC), `put`'s gate fingerprints its whole
//! run-ahead span in one call, and `put`'s sink first appends a redeemed
//! chunk's segments to the stored ciphertext and then authenticates those
//! bytes where they now lie — a 16 KiB segment would cut the run at four
//! blocks, the chunk's contiguous bytes do not. `get`'s verifier and
//! [`SecureStore::seal_reference`] read contiguous ciphertext already.
//! Only the chain link per tag is serial. No stored byte depends on any
//! of this (the golden object in `tests/prop_storage.rs`).
//!
//! **No serial pass.** Neither direction walks the whole object before
//! its stream starts. Both per-block MAC passes that must run *ahead* of
//! the cipher — tag verification on [`SecureStore::get`], dedup
//! fingerprinting on [`SecureStore::put`] — ride the stream's pre-submit
//! gate ([`StreamCaller::stream_gated`]): before a chunk is submitted the
//! caller's thread MACs up to the end of the last 4 KiB block that chunk
//! touches, while the responder runs the cipher over the chunks already
//! in flight. What that means for `get`, precisely:
//!
//! * *authenticate before decrypting* holds **per block** — no ciphertext
//!   byte is submitted to the cipher before the tag of its block has been
//!   recomputed and found equal to the stored one;
//! * *release of plaintext* is gated on the **whole object** — the last
//!   block's chunk is not submitted before every block tag, the tag count
//!   and the chained object tag verified, and the plaintext leaves `get`
//!   only if the stream then ran to its end;
//! * so chunks verified earlier **are** decrypted before a later block
//!   is looked at; when that later block fails, their plaintext sits in a
//!   buffer that is dropped, never returned.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

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

/// Streaming ciphertext authenticator: takes bytes as they arrive in
/// object order and hands one tag per sealed [`BLOCK_LEN`] block to the
/// caller's `on_tag`, chaining them into the object tag. Because it only
/// ever sees a byte sequence, chunk boundaries — aligned, odd, or
/// straddling a block — cannot change its output. Nothing is buffered:
/// every run of whole blocks that arrives while no block is open is
/// tagged where it lies by one [`HmacSha256::tag_each`] (sixteen blocks at
/// a time where the CPU can), the bytes of a block that arrives in pieces
/// go straight from the caller's slice into its running MAC, and a tag
/// goes straight to whoever stores (`put`) or compares (`get`) it.
#[derive(Debug)]
struct BlockAuth {
    /// The MAC key's absorbed state; every block and chain link starts
    /// from it.
    keyed: HmacSha256,
    /// MAC of a block only part of which has arrived (`block_index`, then
    /// its `filled` bytes so far); `None` between blocks.
    open: Option<HmacSha256>,
    filled: usize,
    block_index: u64,
    chain: [u8; 32],
}

impl BlockAuth {
    fn new(keyed: &HmacSha256) -> Self {
        BlockAuth {
            keyed: keyed.clone(),
            open: None,
            filled: 0,
            block_index: 0,
            chain: [0u8; 32],
        }
    }

    /// Truncates a block's MAC to its tag and extends the chain by it.
    fn link(keyed: &HmacSha256, chain: &mut [u8; 32], full: [u8; 32]) -> [u8; TAG_LEN] {
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        let mut link = keyed.clone();
        link.update(chain);
        link.update(&tag);
        *chain = link.finalize();
        tag
    }

    /// Closes the block in progress and returns its tag.
    fn seal_open_block(&mut self) -> [u8; TAG_LEN] {
        let full = self.open.take().expect("a block is open").finalize();
        self.filled = 0;
        self.block_index += 1;
        Self::link(&self.keyed, &mut self.chain, full)
    }

    /// Feeds `piece` — no more than the block in progress still takes —
    /// into that block's MAC, opening it if this is its first byte and
    /// sealing it if this is its last.
    fn fill(&mut self, piece: &[u8], mut on_tag: impl FnMut([u8; TAG_LEN])) {
        let block = self.open.get_or_insert_with(|| {
            let mut mac = self.keyed.clone();
            mac.update(&self.block_index.to_le_bytes());
            mac
        });
        block.update(piece);
        self.filled += piece.len();
        if self.filled == BLOCK_LEN {
            on_tag(self.seal_open_block());
        }
    }

    fn absorb(&mut self, mut bytes: &[u8], mut on_tag: impl FnMut([u8; TAG_LEN])) {
        // What completes (or just extends) a block left open earlier ...
        if self.open.is_some() {
            let (head, rest) = bytes.split_at((BLOCK_LEN - self.filled).min(bytes.len()));
            self.fill(head, &mut on_tag);
            bytes = rest;
        }
        // ... then, with no block open, every whole block in one call ...
        let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % BLOCK_LEN);
        let (keyed, chain, first) = (&self.keyed, &mut self.chain, self.block_index);
        keyed.tag_each(
            |i| (first + i as u64).to_le_bytes(),
            whole,
            BLOCK_LEN,
            |full| on_tag(Self::link(keyed, chain, full)),
        );
        self.block_index += (whole.len() / BLOCK_LEN) as u64;
        // ... and what opens the next one.
        if !tail.is_empty() {
            self.fill(tail, &mut on_tag);
        }
    }

    /// Seals the partial tail block, if there is one, and returns the
    /// chained object tag.
    fn finish(&mut self, mut on_tag: impl FnMut([u8; TAG_LEN])) -> [u8; 32] {
        if self.open.is_some() {
            on_tag(self.seal_open_block());
        }
        self.chain
    }
}

/// Dedup-indexes the content blocks of `span` — whole [`BLOCK_LEN`] blocks
/// and, where an object ends, its partial tail — under their keyed
/// fingerprints, logging in `fresh` the ones `seen` did not hold yet.
/// Returns how many it did hold. (A plain function, not a closure body:
/// the MAC loops are compiled once, in this crate, not into every caller
/// of the generic `put`.)
fn index_span(
    mac: &HmacSha256,
    seen: &mut HashSet<[u8; 32]>,
    fresh: &mut Vec<[u8; 32]>,
    span: &[u8],
) -> u64 {
    let mut hits = 0;
    let (whole, tail) = span.split_at(span.len() - span.len() % BLOCK_LEN);
    let mut index = |fingerprint| {
        if seen.insert(fingerprint) {
            fresh.push(fingerprint);
        } else {
            hits += 1;
        }
    };
    mac.tag_each(|_| [], whole, BLOCK_LEN, &mut index);
    mac.tag_each(|_| [], tail, tail.len(), &mut index);
    hits
}

/// How far the gate MACs before it admits a chunk ending at `chunk_end`:
/// to the end of the last [`BLOCK_LEN`] block the chunk touches, or the
/// object's end. Monotone in `chunk_end`, so a schedule of chunks smaller
/// than a block walks each block once.
fn run_ahead(chunk_end: usize, object_len: usize) -> usize {
    chunk_end.next_multiple_of(BLOCK_LEN).min(object_len)
}

/// Run-ahead verifier of one stored object: [`Verifier::admit`] is
/// `get`'s pre-submit gate.
#[derive(Debug)]
struct Verifier<'a> {
    obj: &'a StoredObject,
    auth: BlockAuth,
    /// Stored tags not yet compared with a recomputed one.
    expected: core::slice::Iter<'a, [u8; TAG_LEN]>,
    /// Ciphertext bytes authenticated so far.
    absorbed: usize,
    /// Tag count and object tag have been checked.
    complete: bool,
    /// Every difference seen so far, ORed together — the [`verify_tag`]
    /// comparison shape, over all the tags of a gate step instead of
    /// stopping at the first mismatch.
    diff: u8,
}

impl<'a> Verifier<'a> {
    fn new(keyed: &HmacSha256, obj: &'a StoredObject) -> Self {
        Verifier {
            obj,
            auth: BlockAuth::new(keyed),
            expected: obj.block_tags.iter(),
            absorbed: 0,
            complete: false,
            diff: 0,
        }
    }

    /// Authenticates the stored ciphertext up to [`run_ahead`] of
    /// `chunk_end`, comparing each block tag with the stored one as it is
    /// sealed; once that reaches the object's end, also requires the tag
    /// count and the chained object tag. Returns whether everything
    /// checked so far — by this call or an earlier one — is genuine.
    fn admit(&mut self, chunk_end: usize) -> bool {
        let cipher = &self.obj.cipher;
        let (expected, diff) = (&mut self.expected, &mut self.diff);
        let mut compare = |tag: [u8; TAG_LEN]| match expected.next() {
            Some(stored) => stored.iter().zip(&tag).for_each(|(a, b)| *diff |= a ^ b),
            None => *diff |= 1,
        };
        let target = run_ahead(chunk_end, cipher.len());
        if target > self.absorbed {
            self.auth
                .absorb(&cipher[self.absorbed..target], &mut compare);
            self.absorbed = target;
        }
        if self.absorbed == cipher.len() && !self.complete {
            let chain = self.auth.finish(&mut compare);
            let surplus_tags = self.expected.next().is_some();
            self.diff |= u8::from(surplus_tags | !verify_tag(&chain, &self.obj.object_tag));
            self.complete = true;
        }
        self.diff == 0
    }
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
    /// Fingerprints the `put` in progress added to `dedup` — what a
    /// failed stream takes back out. Reused across puts.
    fresh: Vec<[u8; 32]>,
    stats: StoreStats,
}

impl SecureStore {
    /// Builds a store keyed by `secret`: derives data/MAC/dedup keys,
    /// registers the offset-keyed stream cipher as the enclave-side
    /// handler, and spawns the responder over a ring of `capacity` slots
    /// (`n_responders` must be 1: a plane has one responder).
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
            fresh: Vec::new(),
            stats: StoreStats::default(),
        })
    }

    /// Ingests `data` as object `name`: streams it through the enclave
    /// cipher in pipelined chunks of `chunk_bytes()` bytes (re-read per
    /// chunk — wire it to [`hotcalls::ChunkSizer::chunk_bytes`] for
    /// EPC-aware sizing) under a credit window of `window`, dedup-indexes
    /// its content blocks in the stream's pre-submit gate — each chunk's
    /// blocks are fingerprinted while the responder encrypts the chunks
    /// before it — and authenticates the ciphertext block-wise as it
    /// lands.
    ///
    /// # Errors
    ///
    /// Propagates interface errors. A failed stream stores nothing: the
    /// object map, the dedup index and [`SecureStore::stats`] are what
    /// they were before the call.
    pub fn put(
        &mut self,
        name: &str,
        data: &[u8],
        window: usize,
        chunk_bytes: impl FnMut() -> usize,
    ) -> Result<PutReceipt> {
        let blocks = data.len().div_ceil(BLOCK_LEN) as u64;
        let mut cipher = Vec::with_capacity(data.len());
        let mut block_tags = Vec::with_capacity(blocks as usize);
        let mut auth = BlockAuth::new(&self.mac);
        let mut dedup_hits = 0u64;
        let mut fingerprinted = 0usize;
        self.fresh.clear();
        let streamed = self.caller.stream_gated(
            self.crypt_id,
            data,
            window,
            chunk_bytes,
            |chunk| {
                // `fingerprinted` is block-aligned until it reaches the
                // object's end.
                let target = run_ahead(chunk.end, data.len());
                dedup_hits += index_span(
                    &self.dedup_mac,
                    &mut self.dedup,
                    &mut self.fresh,
                    &data[fingerprinted..target],
                );
                fingerprinted = target;
                ControlFlow::Continue(())
            },
            // Plaintext → ciphertext: land the whole chunk, then
            // authenticate it where it now lies — a chunk holds runs of
            // blocks its 16 KiB segments would cut short.
            |_offset, sg: &SgList| {
                let landed = cipher.len();
                for seg in sg.segments() {
                    cipher.extend_from_slice(seg.as_slice());
                }
                auth.absorb(&cipher[landed..], |tag| block_tags.push(tag));
            },
        );
        let report = match streamed {
            Ok(report) => report,
            Err(e) => {
                for fingerprint in &self.fresh {
                    self.dedup.remove(fingerprint);
                }
                return Err(e.into());
            }
        };
        let object_tag = auth.finish(|tag| block_tags.push(tag));

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

    /// Reads object `name` back: streams the stored ciphertext through
    /// the enclave cipher (its own inverse) with tag verification running
    /// ahead of it in the stream's pre-submit gate. Before a chunk is
    /// submitted, every 4 KiB block it touches has had its tag recomputed
    /// and compared with the stored one; before the chunk that touches
    /// the last block is submitted, the tag count and the chained object
    /// tag have verified too. Chunks admitted earlier are decrypted while
    /// later blocks are still unverified — into a buffer that is returned
    /// only if the whole object verified and the stream ran to its end,
    /// and dropped otherwise.
    ///
    /// # Errors
    ///
    /// [`AppError::NotFound`] for unknown names, [`AppError::Protocol`]
    /// if any tag fails verification (the object is served only if
    /// authentic; nothing overlapping the offending block is submitted to
    /// the cipher), plus interface errors.
    pub fn get(
        &mut self,
        name: &str,
        window: usize,
        chunk_bytes: impl FnMut() -> usize,
    ) -> Result<Vec<u8>> {
        let obj = self.objects.get(name).ok_or(AppError::NotFound)?;
        let mut verifier = Verifier::new(&self.mac, obj);
        let mut plain = Vec::with_capacity(obj.cipher.len());
        let report = self.caller.stream_gated(
            self.crypt_id,
            &obj.cipher,
            window,
            chunk_bytes,
            |chunk| {
                if verifier.admit(chunk.end) {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            },
            |_offset, sg: &SgList| {
                for seg in sg.segments() {
                    plain.extend_from_slice(seg.as_slice());
                }
            },
        )?;
        // A zero-length object passed no gate: its empty chain is checked
        // here. For any other unrefused stream this re-reads the verdict
        // the last block's gate already reached.
        if report.refused_at.is_some() || !verifier.admit(obj.cipher.len()) {
            return Err(AppError::Protocol(format!(
                "object {name:?} failed authentication"
            )));
        }
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

    /// The adversary's hand: the stored form of an object lives on a
    /// medium the enclave does not trust, so whoever holds the store may
    /// rewrite its ciphertext, block tags and object tag at will — `edit`
    /// gets all three — and [`SecureStore::get`] must refuse the result.
    /// Returns whether `name` exists.
    pub fn tamper(
        &mut self,
        name: &str,
        edit: impl FnOnce(&mut Vec<u8>, &mut Vec<[u8; TAG_LEN]>, &mut [u8; 32]),
    ) -> bool {
        self.objects
            .get_mut(name)
            .map(|obj| edit(&mut obj.cipher, &mut obj.block_tags, &mut obj.object_tag))
            .is_some()
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

    /// Stops the responder and joins it.
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
        let mut tags = Vec::with_capacity(cipher.len().div_ceil(BLOCK_LEN));
        let mut auth = BlockAuth::new(&mac);
        auth.absorb(&cipher, |tag| tags.push(tag));
        auth.finish(|tag| tags.push(tag));
        (cipher, tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SecureStore {
        SecureStore::new(&[0x33u8; 32], 16, 1, HotCallConfig::patient()).unwrap()
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
        let mut fine = SecureStore::new(&secret, 16, 1, HotCallConfig::patient()).unwrap();
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

    /// Index of the first chunk, under `schedule` cycled from its start,
    /// that touches block `block` of an object of `len` bytes — and so the
    /// number of chunks submitted before the gate looks at that block.
    fn first_chunk_touching(schedule: &[usize], len: usize, block: usize) -> u64 {
        let mut end = 0;
        for (j, chunk) in schedule.iter().cycle().enumerate() {
            end += chunk;
            if end >= len || end > block * BLOCK_LEN {
                return j as u64;
            }
        }
        unreachable!("the schedule cycles forever")
    }

    type Edit = fn(&mut Vec<u8>, &mut Vec<[u8; TAG_LEN]>, &mut [u8; 32]);

    fn append_forged_block(cipher: &mut Vec<u8>, tags: &mut Vec<[u8; TAG_LEN]>, _: &mut [u8; 32]) {
        cipher.extend_from_slice(&[0xA5; BLOCK_LEN]);
        tags.push([0xA5; TAG_LEN]);
    }

    /// The tamper matrix: every way of rewriting a stored object is
    /// refused with `Protocol`, exactly the chunks *before* the first one
    /// that touches the offending block reach the cipher, and the plane
    /// comes out of the refusal whole — an intact object is then served
    /// from the segments the arena already owns.
    #[test]
    fn every_tamper_is_refused_before_its_block_reaches_the_cipher() {
        // Chunks smaller and larger than a block, none aligned to one.
        const SCHEDULE: [usize; 4] = [5000, 3000, 9000, 1000];
        const WINDOW: usize = 3;
        // Ten whole blocks and a partial tail; less than a block; nothing.
        const MULTI: usize = 10 * BLOCK_LEN + 1234;
        const SUB: usize = 1000;

        // (object length, case, the edit, the offending block of the
        // edited object — for a tag-count or object-tag failure, its
        // last block).
        let cases: &[(usize, &str, Edit, usize)] = &[
            (MULTI, "byte in the first block", |c, _, _| c[7] ^= 1, 0),
            (
                MULTI,
                "byte in a middle block",
                |c, _, _| c[5 * BLOCK_LEN + 100] ^= 0x80,
                5,
            ),
            (
                MULTI,
                "byte in the partial tail block",
                |c, _, _| c[MULTI - 1] ^= 1,
                10,
            ),
            (
                MULTI,
                "stored block tag",
                |_, t, _| t[6][TAG_LEN - 1] ^= 1,
                6,
            ),
            (MULTI, "object tag alone", |_, _, o| o[31] ^= 1, 10),
            (
                MULTI,
                "last block and its tag cut off",
                |c, t, _| {
                    c.truncate(10 * BLOCK_LEN);
                    t.pop();
                },
                9,
            ),
            (
                MULTI,
                "two blocks swapped with their tags",
                |c, t, _| {
                    let (low, high) = c.split_at_mut(7 * BLOCK_LEN);
                    low[2 * BLOCK_LEN..3 * BLOCK_LEN].swap_with_slice(&mut high[..BLOCK_LEN]);
                    t.swap(2, 7);
                },
                2,
            ),
            (
                MULTI,
                "block appended with a forged tag",
                append_forged_block,
                // The old partial tail is now a whole, different block.
                10,
            ),
            (MULTI, "surplus tag", |_, t, _| t.push([0; TAG_LEN]), 10),
            (SUB, "byte in the only block", |c, _, _| c[SUB / 2] ^= 1, 0),
            (SUB, "stored block tag", |_, t, _| t[0][0] ^= 1, 0),
            (SUB, "object tag alone", |_, _, o| o[0] ^= 1, 0),
            (
                SUB,
                "only block and its tag cut off",
                |c, t, _| {
                    c.clear();
                    t.clear();
                },
                0,
            ),
            (
                SUB,
                "block appended with a forged tag",
                append_forged_block,
                0,
            ),
            (0, "object tag alone", |_, _, o| o[0] ^= 1, 0),
            (0, "surplus tag", |_, t, _| t.push([0; TAG_LEN]), 0),
            (
                0,
                "block appended with a forged tag",
                append_forged_block,
                0,
            ),
        ];

        let mut s = store();
        let schedule = || {
            let mut it = SCHEDULE.iter().cycle();
            move || *it.next().unwrap()
        };
        let intact = pattern(MULTI);
        s.put("intact", &intact, WINDOW, schedule()).unwrap();
        for &(len, case, edit, block) in cases {
            let what = format!("{len}-byte object, {case}");
            let data = pattern(len);
            s.put("victim", &data, WINDOW, schedule()).unwrap();
            assert_eq!(s.get("victim", WINDOW, schedule()).unwrap(), data, "{what}");
            assert_eq!(
                s.get("intact", WINDOW, schedule()).unwrap(),
                intact,
                "{what}"
            );
            assert!(s.tamper("victim", edit));

            let before = (s.stats(), s.ring_stats().calls, s.arena_stats().allocs);
            let err = s.get("victim", WINDOW, schedule()).unwrap_err();
            assert!(matches!(err, AppError::Protocol(_)), "{what}: {err:?}");
            let reached_cipher = s.ring_stats().calls - before.1;
            let edited_len = s.object("victim").unwrap().len();
            assert_eq!(
                reached_cipher,
                first_chunk_touching(&SCHEDULE, edited_len, block),
                "{what}: chunks submitted before the refusal"
            );
            assert_eq!(s.stats(), before.0, "{what}: a refused get counts nothing");

            // Everything submitted was redeemed (`calls` above is exact)
            // and its segments came back: the arena serves the next
            // stream without growing.
            assert_eq!(
                s.get("intact", WINDOW, schedule()).unwrap(),
                intact,
                "{what}"
            );
            assert_eq!(s.arena_stats().allocs, before.2, "{what}");
        }
    }

    /// A chunk schedule of single bytes walks every block once: the
    /// run-ahead is monotone, so the verifier must neither re-absorb a
    /// block it already authenticated nor close the chain twice.
    #[test]
    fn byte_sized_chunks_verify_each_block_once() {
        let mut s = store();
        let data = pattern(2 * BLOCK_LEN + 17);
        s.put("tiny-chunks", &data, 4, || 1).unwrap();
        let (cipher, tags) = SecureStore::seal_reference(&[0x33u8; 32], &data);
        let obj = s.object("tiny-chunks").unwrap();
        assert_eq!((obj.cipher(), obj.block_tags()), (&cipher[..], &tags[..]));
        assert_eq!(s.get("tiny-chunks", 4, || 1).unwrap(), data);
        assert_eq!(s.stats().blocks, 3);
        assert_eq!(s.stats().chunks, 2 * data.len() as u64);
    }

    /// The dedup index's keys are frozen bytes too, and nothing outside
    /// this crate can read them: the golden object of
    /// `tests/prop_storage.rs` (same secret, same bytes) must index block 3
    /// under the key that file's independent reference computes for it —
    /// the hex is what the parent of PR 20 (commit 1417b50) indexed it
    /// under — and 42 distinct keys in all (44 blocks, two repeats).
    #[test]
    fn golden_object_dedup_keys_are_frozen() {
        const LEN: usize = 43 * BLOCK_LEN + 1234;
        let mut data = pattern(LEN);
        data.copy_within(3 * BLOCK_LEN..4 * BLOCK_LEN, 20 * BLOCK_LEN);
        data.copy_within(3 * BLOCK_LEN..4 * BLOCK_LEN, 41 * BLOCK_LEN);

        let mut s = SecureStore::new(&[0x5C; 32], 16, 1, HotCallConfig::patient()).unwrap();
        let receipt = s.put("golden", &data, 3, || 70_001).unwrap();
        assert_eq!((receipt.blocks, receipt.dedup_hits), (44, 2));
        assert_eq!(s.dedup.len(), 42);
        const BLOCK_3: &str = "d56c986301ea6d4d008c7702cf54486c540060bf6b6e5d8dadea41fc031c3e25";
        let golden: [u8; 32] =
            core::array::from_fn(|i| u8::from_str_radix(&BLOCK_3[2 * i..2 * i + 2], 16).unwrap());
        assert!(s.dedup.contains(&golden));
        // Every block is indexed under its one-message-at-a-time MAC.
        for block in data.chunks(BLOCK_LEN) {
            let mut mac = s.dedup_mac.clone();
            mac.update(block);
            assert!(s.dedup.contains(&mac.finalize()));
        }
    }

    /// `put`'s "a failed stream stores nothing" covers the dedup index:
    /// the fingerprints a failed put had taken by the time its stream
    /// broke are taken back out, and only those.
    #[test]
    fn failed_put_leaves_no_fingerprints_behind() {
        let shared = pattern(4 * BLOCK_LEN);
        let mut data = shared.clone();
        data.extend((0..20 * BLOCK_LEN).map(|i| (i * 7 % 253) as u8));
        let ingest = |s: &mut SecureStore| s.put("x", &data, 2, || 3 * BLOCK_LEN + 5);

        let mut s = store();
        s.put("earlier", &shared, 2, || 16 << 10).unwrap();
        let before = (s.stats(), s.dedup.clone(), s.object_count());
        let good_id = core::mem::replace(&mut s.crypt_id, u32::MAX);
        // The first redeemed chunk comes back `UnknownCallId`; by then the
        // gate has fingerprinted the whole window.
        assert!(ingest(&mut s).is_err());
        assert_eq!((s.stats(), s.dedup.clone(), s.object_count()), before);
        s.crypt_id = good_id;
        let retried = ingest(&mut s).unwrap();

        let mut fresh = store();
        fresh.put("earlier", &shared, 2, || 16 << 10).unwrap();
        let expected = ingest(&mut fresh).unwrap();
        assert_eq!(expected.dedup_hits, 4, "only the shared prefix dedups");
        assert_eq!(retried.dedup_hits, expected.dedup_hits);
        assert_eq!(s.stats(), fresh.stats());
        assert_eq!(s.dedup, fresh.dedup);
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
