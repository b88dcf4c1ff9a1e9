//! The streaming scatter-gather data path: bandwidth over the ring.
//!
//! [`ByteRing`](super::ByteRing) optimizes for call *latency* — one
//! arena buffer per call, in-place transformation. This module optimizes
//! for *bandwidth*: a logical transfer of any size rides the ring as an
//! [`SgList`] of uniform arena segments (no coalescing copy anywhere on
//! the path), and [`StreamCaller::stream`] pipelines a large object
//! through the plane as a sequence of chunks under a credit window, so
//! the responder processes chunk *k* while the caller marshals chunk
//! *k + 1*. [`StreamCaller::stream_gated`] puts a caller-supplied
//! **pre-submit gate** in front of every chunk: per-chunk work the caller
//! must finish before a chunk may cross (authenticate it, fingerprint it)
//! runs there, on the requester thread, overlapped with the responder's
//! work on the chunks already in flight — and the gate may refuse, which
//! ends the stream before the chunk it was shown is marshalled.
//!
//! The chunk size is re-read from a caller-supplied closure between
//! chunks — wire it to [`crate::ctl::ChunkSizer`] (via
//! [`crate::Controller::chunk_bytes`]) and the stream resizes itself
//! mid-flight as EPC paging pressure shifts.
//!
//! Handlers see the whole chunk as an `&mut SgList` — request bytes in
//! the segments, the chunk's absolute object offset in
//! [`SgList::meta`] — transform it segment-wise in place, and return the
//! response length. Same NRZ discipline as the byte path: capacity past
//! the response is unspecified garbage and nobody pays to zero it.

use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};

use crate::config::{
    GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy, RingStats, ShardPolicy,
};
use crate::error::Result;
use crate::telemetry::{PlaneProvider, PlaneTelemetry};

use super::arena::{ArenaStats, SgList, SlabArena};
use super::ring::{RingRequester, RingServer, Ticket};
use super::CallTable;

/// Default arena segment size for scatter-gather transfers: big enough
/// to amortize per-segment bookkeeping, small enough that a handful of
/// size classes cover every stream.
pub const DEFAULT_SEGMENT_BYTES: usize = 16 << 10;

/// Default credit window: double-buffered — the responder works on one
/// chunk while the caller marshals the next.
pub const DEFAULT_STREAM_WINDOW: usize = 2;

/// A call table whose handlers transform scatter-gather chunks in place.
#[derive(Debug, Default)]
pub struct SgCallTable {
    inner: CallTable<SgList, SgList>,
}

impl SgCallTable {
    /// An empty table.
    pub fn new() -> Self {
        SgCallTable::default()
    }

    /// Registers a handler and returns its call id.
    ///
    /// The handler receives the chunk as a mutable [`SgList`]: request
    /// bytes in the segments (`sg.len()` total), the chunk's absolute
    /// offset within the streamed object in [`SgList::meta`], and the
    /// full segment capacities available for the response. It writes the
    /// response in place from offset 0 and returns the response length,
    /// which is clamped to the list's capacity and distributed across
    /// the segments in order.
    pub fn register<F>(&mut self, handler: F) -> u32
    where
        F: Fn(&mut SgList) -> usize + Send + Sync + 'static,
    {
        self.inner.register(move |mut sg: SgList| {
            let cap = sg.capacity();
            let resp_len = handler(&mut sg).min(cap);
            sg.set_len(resp_len);
            sg
        })
    }
}

/// A running scatter-gather ring: responder pool + chunk handlers.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{SgCallTable, SgRing};
/// use hotcalls::HotCallConfig;
///
/// let mut table = SgCallTable::new();
/// let upper = table.register(|sg| {
///     let n = sg.len();
///     for seg in sg.segments_mut() {
///         let len = seg.len();
///         seg.raw_mut()[..len].make_ascii_uppercase();
///     }
///     n
/// });
/// let ring = SgRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
/// let mut caller = ring.caller();
/// let gathered = caller
///     .call_sg_with(upper, b"hotcalls", |resp| {
///         let mut out = Vec::new();
///         resp.gather_into(&mut out);
///         out
///     })
///     .unwrap();
/// assert_eq!(gathered, b"HOTCALLS");
/// ```
#[derive(Debug)]
pub struct SgRing {
    server: RingServer<SgList, SgList>,
}

impl SgRing {
    /// Spawns `n_responders` threads draining a ring of `capacity` slots.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_pool`].
    pub fn spawn_pool(
        table: SgCallTable,
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_pool(table.inner, capacity, n_responders, config)
            .map(|server| SgRing { server })
    }

    /// Spawns an adaptive pool governed by `policy` (see
    /// [`RingServer::spawn_adaptive`]).
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_adaptive`].
    pub fn spawn_adaptive(
        table: SgCallTable,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_adaptive(table.inner, capacity, policy, config)
            .map(|server| SgRing { server })
    }

    /// Spawns the sharded shape (see [`RingServer::spawn_sharded`]).
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_sharded`].
    pub fn spawn_sharded(
        table: SgCallTable,
        capacity_per_shard: usize,
        policy: ShardPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_sharded(table.inner, capacity_per_shard, policy, config)
            .map(|server| SgRing { server })
    }

    /// A caller handle with its own private arena and reusable stream
    /// state, pinned to a router-chosen home shard (always shard 0 on a
    /// single-ring plane).
    pub fn caller(&self) -> StreamCaller {
        StreamCaller::new(self.server.requester())
    }

    /// A caller pinned to an explicit home shard. On a single-ring plane
    /// only shard 0 exists.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] if `shard` is out of range.
    pub fn caller_on(&self, shard: usize) -> Result<StreamCaller> {
        self.server.requester_on(shard).map(StreamCaller::new)
    }

    /// Number of responder threads in the pool (active and parked).
    pub fn responders(&self) -> usize {
        self.server.responders()
    }

    /// Number of ring shards (1 for the single-ring plane).
    pub fn shards(&self) -> usize {
        self.server.shards()
    }

    /// Transport statistics, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.server.stats()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.server.governor_stats()
    }

    /// Sets the plane's active responder target (the `ctl` sizer's
    /// control surface), clamped into the policy's bounds.
    pub fn set_active(&self, n: usize) -> usize {
        self.server.set_active(n)
    }

    /// The full per-shard snapshot. A single-ring plane reports itself as
    /// one shard.
    pub fn ring_stats(&self) -> RingStats {
        self.server.ring_stats()
    }

    /// A full telemetry view of the plane, tagged with the sg-plane kind
    /// so dashboards can tell bandwidth lanes from byte and typed rings.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        let mut t = self.server.telemetry(name);
        t.kind = self.plane_kind();
        t
    }

    /// A boxed provider for [`crate::TelemetryRegistry::register_plane`],
    /// capturing the plane's shared state so snapshots stay live after
    /// this handle is dropped.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        self.server.telemetry_provider_as(name, self.plane_kind())
    }

    fn plane_kind(&self) -> &'static str {
        if self.shards() > 1 {
            "sg-sharded"
        } else {
            "sg-single"
        }
    }

    /// Stops the responders and joins them.
    pub fn shutdown(self) {
        self.server.shutdown()
    }
}

/// What one [`StreamCaller::stream`] run did: chunk accounting for the
/// caller, conservation invariants for the tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Chunks marshalled (all of the object's, unless the gate refused).
    pub chunks: u64,
    /// Tickets submitted to the ring (equals `chunks`).
    pub submitted: u64,
    /// Tickets redeemed — handed to the sink, or drained after a refusal
    /// (equals `submitted`: conservation).
    pub redeemed: u64,
    /// Request bytes marshalled (the object's length, unless the gate
    /// refused).
    pub bytes_in: u64,
    /// Response bytes handed to the chunk sink.
    pub bytes_out: u64,
    /// Times the chunk size changed mid-stream.
    pub resizes: u64,
    /// Object offset of the chunk the gate refused; `None` when the
    /// stream ran to the object's end.
    pub refused_at: Option<u64>,
}

/// A streaming handle owning the arena its chunks cycle through plus the
/// reusable in-flight window, so steady-state streaming allocates
/// nothing per chunk.
#[derive(Debug)]
pub struct StreamCaller {
    requester: RingRequester<SgList, SgList>,
    arena: SlabArena,
    segment_bytes: usize,
    /// In-flight chunks in submission order; redeemed FIFO so responses
    /// reach the sink in object order while the window keeps the plane
    /// busy. Reused across streams.
    inflight: VecDeque<(u64, Ticket)>,
}

impl StreamCaller {
    fn new(requester: RingRequester<SgList, SgList>) -> Self {
        StreamCaller {
            requester,
            arena: SlabArena::new(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            inflight: VecDeque::new(),
        }
    }

    /// The arena segment size scatter-gather lists are built from.
    pub fn segment_bytes(&self) -> usize {
        self.segment_bytes
    }

    /// Overrides the arena segment size (power of two recommended — the
    /// arena rounds capacities up to its size classes anyway).
    pub fn set_segment_bytes(&mut self, bytes: usize) {
        assert!(bytes > 0, "segment size must be positive");
        self.segment_bytes = bytes;
    }

    /// Issues one scatter-gather call carrying `data` (split into arena
    /// segments, no coalescing copy) and returns the response length.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call`]. On error the in-flight list is lost
    /// to the slot (freed on shutdown), not recycled.
    pub fn call_sg(&mut self, id: u32, data: &[u8]) -> Result<usize> {
        self.call_sg_with(id, data, SgList::len)
    }

    /// Issues one scatter-gather call and hands the response list to
    /// `read` before its segments are recycled — the zero-copy way to
    /// consume a response ([`SgList::gather_into`] is available when a
    /// contiguous copy is genuinely wanted).
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call`].
    pub fn call_sg_with<R>(
        &mut self,
        id: u32,
        data: &[u8],
        read: impl FnOnce(&SgList) -> R,
    ) -> Result<R> {
        let sg = self.arena.acquire_sg(data, self.segment_bytes);
        let resp = self.requester.call(id, sg)?;
        let r = read(&resp);
        self.arena.recycle_sg(resp);
        Ok(r)
    }

    /// Streams `data` through handler `id` as pipelined chunks under a
    /// credit window of `window` in-flight chunks (clamped to ≥ 1;
    /// [`DEFAULT_STREAM_WINDOW`] double-buffers).
    ///
    /// `chunk_bytes` is re-read before each chunk is marshalled — return
    /// a constant for static chunking, or wire it to
    /// [`crate::Controller::chunk_bytes`] so EPC paging pressure resizes
    /// the stream mid-flight. `on_chunk` receives each response in
    /// object order: the chunk's absolute offset and the response list
    /// (also carrying that offset in [`SgList::meta`]).
    ///
    /// This is [`StreamCaller::stream_gated`] with a gate that admits
    /// every chunk.
    ///
    /// # Errors
    ///
    /// As [`StreamCaller::stream_gated`].
    pub fn stream(
        &mut self,
        id: u32,
        data: &[u8],
        window: usize,
        chunk_bytes: impl FnMut() -> usize,
        on_chunk: impl FnMut(u64, &SgList),
    ) -> Result<StreamReport> {
        let admit_all = |_: Range<usize>| ControlFlow::Continue(());
        self.stream_gated(id, data, window, chunk_bytes, admit_all, on_chunk)
    }

    /// [`StreamCaller::stream`] behind a **pre-submit gate**: `gate` is
    /// called on this thread with the byte range `[offset, end)` of each
    /// chunk, once per chunk and in object order, immediately before the
    /// chunk is marshalled and submitted — so whatever the gate does for
    /// chunk *k + 1* overlaps the responder's work on chunk *k* (with a
    /// window of 1 nothing is in flight when the gate runs, and the two
    /// sides alternate).
    ///
    /// When the gate returns [`ControlFlow::Break`] the chunk it was
    /// shown is not marshalled and nothing after it is: the chunks
    /// already in flight are redeemed and their segments recycled, but
    /// not handed to `on_chunk`, and the report comes back with
    /// [`StreamReport::refused_at`] set to the refused chunk's offset and
    /// `chunks`, `submitted`, `redeemed` and `bytes_in` counting what
    /// crossed before it.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] / [`RingRequester::wait`]. The chunks
    /// in flight at the failure point are drained like a refusal drains
    /// them — each is waited for, and the segments of those that complete
    /// go back to the arena; only a chunk whose own wait fails is dropped
    /// instead of recycled.
    pub fn stream_gated(
        &mut self,
        id: u32,
        data: &[u8],
        window: usize,
        mut chunk_bytes: impl FnMut() -> usize,
        mut gate: impl FnMut(Range<usize>) -> ControlFlow<()>,
        mut on_chunk: impl FnMut(u64, &SgList),
    ) -> Result<StreamReport> {
        let window = window.max(1);
        let mut report = StreamReport::default();
        let mut offset = 0usize;
        let mut last_chunk = 0usize;
        debug_assert!(self.inflight.is_empty());
        while offset < data.len() || !self.inflight.is_empty() {
            // Marshal up to the credit limit, then redeem the oldest
            // chunk: submission order is completion order at the sink,
            // and while we wait the responders chew on the rest of the
            // window.
            if offset < data.len() && self.inflight.len() < window {
                let chunk = chunk_bytes().max(1);
                let end = offset.saturating_add(chunk).min(data.len());
                if gate(offset..end).is_break() {
                    report.refused_at = Some(offset as u64);
                    report.redeemed += self.abandon_inflight();
                    break;
                }
                if report.chunks > 0 && chunk != last_chunk {
                    report.resizes += 1;
                }
                last_chunk = chunk;
                let mut sg = self
                    .arena
                    .acquire_sg(&data[offset..end], self.segment_bytes);
                sg.set_meta(offset as u64);
                let ticket = match self.requester.submit(id, sg) {
                    Ok(t) => t,
                    Err(e) => {
                        self.abandon_inflight();
                        return Err(e);
                    }
                };
                self.inflight.push_back((offset as u64, ticket));
                report.chunks += 1;
                report.submitted += 1;
                report.bytes_in += (end - offset) as u64;
                offset = end;
                continue;
            }
            let (chunk_offset, ticket) = self.inflight.pop_front().expect("window is non-empty");
            let resp = match self.requester.wait(ticket) {
                Ok(r) => r,
                Err(e) => {
                    self.abandon_inflight();
                    return Err(e);
                }
            };
            report.redeemed += 1;
            report.bytes_out += resp.len() as u64;
            on_chunk(chunk_offset, &resp);
            self.arena.recycle_sg(resp);
        }
        Ok(report)
    }

    /// Drains the window after a refusal or a mid-stream error: redeem
    /// what completes so the arena gets its segments back, drop what
    /// doesn't. Returns the number redeemed.
    fn abandon_inflight(&mut self) -> u64 {
        let mut redeemed = 0;
        while let Some((_, ticket)) = self.inflight.pop_front() {
            if let Ok(resp) = self.requester.wait(ticket) {
                self.arena.recycle_sg(resp);
                redeemed += 1;
            }
        }
        redeemed
    }

    /// Counters of this caller's private arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Transport statistics, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.requester.stats()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.requester.governor_stats()
    }

    /// The home shard this caller's submissions land on (always 0 on a
    /// single-ring plane).
    pub fn home_shard(&self) -> usize {
        self.requester.home()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handlers for the tests: xor every request byte with 0x5A in place
    /// (an involution — applying it twice restores the input), and a
    /// meta-echo that writes the chunk's absolute offset into its first
    /// bytes.
    fn xor_table() -> (SgCallTable, u32, u32) {
        let mut t = SgCallTable::new();
        let xor = t.register(|sg| {
            let n = sg.len();
            for seg in sg.segments_mut() {
                let len = seg.len();
                for b in &mut seg.raw_mut()[..len] {
                    *b ^= 0x5A;
                }
            }
            n
        });
        let meta_echo = t.register(|sg| {
            let off = sg.meta().to_le_bytes();
            let n = sg.len().min(8);
            let seg = &mut sg.segments_mut()[0];
            seg.raw_mut()[..n].copy_from_slice(&off[..n]);
            n
        });
        (t, xor, meta_echo)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn call_sg_splits_without_coalescing_and_roundtrips() {
        let (t, xor, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        caller.set_segment_bytes(4 << 10);
        let data = pattern(100_000);
        let gathered = caller
            .call_sg_with(xor, &data, |resp| {
                assert_eq!(resp.segment_count(), 100_000_usize.div_ceil(4 << 10));
                let mut out = Vec::new();
                resp.gather_into(&mut out);
                out
            })
            .unwrap();
        let expect: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        assert_eq!(gathered, expect);
        assert_eq!(ring.stats().calls, 1);
    }

    #[test]
    fn stream_reassembles_in_order_and_conserves_tickets() {
        let (t, xor, _) = xor_table();
        let pool = SgRing::spawn_pool(t, 16, 2, HotCallConfig::patient()).unwrap();
        let (t, _, _) = xor_table();
        let sharded =
            SgRing::spawn_sharded(t, 16, ShardPolicy::fixed(2), HotCallConfig::patient()).unwrap();
        for (ring, shards) in [(pool, 1), (sharded, 2)] {
            assert_eq!(ring.shards(), shards);
            let mut caller = ring.caller();
            caller.set_segment_bytes(8 << 10);
            let data = pattern(1 << 20);
            let mut out = vec![0u8; data.len()];
            let report = caller
                .stream(
                    xor,
                    &data,
                    DEFAULT_STREAM_WINDOW,
                    || 64 << 10,
                    |off, sg| {
                        let mut piece = Vec::new();
                        sg.gather_into(&mut piece);
                        out[off as usize..off as usize + piece.len()].copy_from_slice(&piece);
                    },
                )
                .unwrap();
            let expect: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
            assert_eq!(out, expect);
            assert_eq!(report.chunks, 16);
            assert_eq!(report.submitted, report.redeemed);
            assert_eq!(report.bytes_in, 1 << 20);
            assert_eq!(report.bytes_out, 1 << 20);
            assert_eq!(report.resizes, 0);
            assert_eq!(ring.stats().calls, 16);
            let rs = ring.ring_stats();
            assert_eq!(rs.shards.len(), shards);
            assert_eq!(rs.shards.iter().map(|s| s.serviced).sum::<u64>(), 16);
        }
    }

    #[test]
    fn steady_state_streaming_reuses_segments() {
        let (t, xor, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 16, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        caller.set_segment_bytes(16 << 10);
        let data = pattern(512 << 10);
        let mut sink = |_off: u64, _sg: &SgList| {};
        caller
            .stream(xor, &data, 2, || 64 << 10, &mut sink)
            .unwrap();
        let warm = caller.arena_stats().allocs;
        for _ in 0..5 {
            caller
                .stream(xor, &data, 2, || 64 << 10, &mut sink)
                .unwrap();
        }
        let stats = caller.arena_stats();
        assert_eq!(
            stats.allocs, warm,
            "steady-state streams must not allocate: {stats:?}"
        );
        assert!(stats.recycles > 0);
    }

    #[test]
    fn mid_stream_resize_is_counted_and_lossless() {
        let (t, xor, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 16, 2, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        caller.set_segment_bytes(4 << 10);
        let data = pattern(300_000);
        // Shrink the chunk every submission: 64 KiB, 32 KiB, 16 KiB, ...
        // floored at 4 KiB — the shape an EPC-pressure chunker produces
        // crossing the paging cliff.
        let mut next = 64 << 10;
        let chunker = move || {
            let c = next;
            next = (next / 2).max(4 << 10);
            c
        };
        let mut out = vec![0u8; data.len()];
        let report = caller
            .stream(xor, &data, 3, chunker, |off, sg| {
                let mut piece = Vec::new();
                sg.gather_into(&mut piece);
                out[off as usize..off as usize + piece.len()].copy_from_slice(&piece);
            })
            .unwrap();
        let expect: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        assert_eq!(out, expect);
        assert!(report.resizes >= 4, "{report:?}");
        assert_eq!(report.submitted, report.redeemed);
        assert_eq!(report.bytes_out, 300_000);
    }

    #[test]
    fn handlers_see_absolute_chunk_offsets() {
        let (t, _, meta_echo) = xor_table();
        let ring = SgRing::spawn_pool(t, 8, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = pattern(64 << 10);
        let mut seen = Vec::new();
        caller
            .stream(
                meta_echo,
                &data,
                2,
                || 16 << 10,
                |off, sg| {
                    let mut bytes = Vec::new();
                    sg.gather_into(&mut bytes);
                    let echoed = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                    seen.push((off, echoed));
                },
            )
            .unwrap();
        assert_eq!(seen.len(), 4);
        for (off, echoed) in seen {
            assert_eq!(off, echoed, "handler must see the absolute offset");
        }
    }

    #[test]
    fn empty_object_streams_as_zero_chunks() {
        let (t, xor, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let report = caller
            .stream(
                xor,
                &[],
                2,
                || 64 << 10,
                |_, _| panic!("no chunks expected"),
            )
            .unwrap();
        assert_eq!(report, StreamReport::default());
    }

    #[test]
    fn sg_plane_kind_tags_telemetry() {
        let (t, _, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        assert_eq!(ring.telemetry("bw").kind, "sg-single");
        let provider = ring.telemetry_provider("bw");
        assert_eq!(provider().kind, "sg-single");
        assert!(ring.caller_on(1).is_err());
        assert_eq!(ring.caller_on(0).unwrap().home_shard(), 0);
    }
}
