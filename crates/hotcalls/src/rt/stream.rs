//! The streaming scatter-gather data path: bandwidth over the ring.
//!
//! [`ByteRing`](super::ByteRing) optimizes for call *latency* — one
//! arena buffer per call, in-place transformation. This module optimizes
//! for *bandwidth*. An sg plane is the same [`RingServer`] at [`SgList`]
//! payloads ([`SgRing`]): a logical transfer of any size rides the ring
//! as an [`SgList`] of uniform arena segments (no coalescing copy
//! anywhere on the path), and [`StreamCaller::stream`] pipelines a large
//! object through the plane as a sequence of chunks under a credit
//! window, so the responder processes chunk *k* while the caller marshals
//! chunk *k + 1*. [`StreamCaller::stream_gated`] puts a caller-supplied
//! **pre-submit gate** in front of every chunk: per-chunk work the caller
//! must finish before a chunk may cross (authenticate it, fingerprint it)
//! runs there, on the requester thread, overlapped with the responder's
//! work on the chunks already in flight — and the gate may refuse, which
//! ends the stream before the chunk it was shown is marshalled.
//!
//! The chunk size is re-read from a caller-supplied closure between
//! chunks — wire it to [`crate::ChunkSizer::chunk_bytes`] and the stream
//! resizes itself mid-flight as EPC paging pressure shifts.
//!
//! Handlers see the whole chunk as an `&mut SgList` — request bytes in
//! the segments, the chunk's absolute object offset in
//! [`SgList::meta`] — transform it segment-wise in place, and return the
//! response length. Same NRZ discipline as the byte path: capacity past
//! the response is unspecified garbage and nobody pays to zero it.

use std::ops::{ControlFlow, Range};

use crate::error::Result;

use super::arena::{ArenaStats, SgList, SlabArena};
use super::ring::{RingRequester, RingServer, Window};
use super::CallTable;

/// Arena segment size of every scatter-gather transfer: big enough to
/// amortize per-segment bookkeeping, small enough that a handful of size
/// classes cover every stream.
pub const DEFAULT_SEGMENT_BYTES: usize = 16 << 10;

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

impl From<SgCallTable> for CallTable<SgList, SgList> {
    fn from(table: SgCallTable) -> Self {
        table.inner
    }
}

/// A running scatter-gather ring: the one plane server at [`SgList`]
/// payloads, with chunk handlers from an [`SgCallTable`].
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
/// assert_eq!(ring.stats().calls, 1);
/// ```
pub type SgRing = RingServer<SgList, SgList>;

impl RingServer<SgList, SgList> {
    /// The ring's one requester handle (see [`RingServer::requester`])
    /// with its own private arena and reusable stream state.
    ///
    /// # Panics
    ///
    /// As [`RingServer::requester`]: if a handle of this plane is alive.
    pub fn caller(&self) -> StreamCaller {
        StreamCaller::new(self.requester())
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

/// A streaming handle owning the arena its chunks cycle through plus a
/// [`Window`] as deep as the ring, so steady-state streaming allocates
/// nothing per chunk.
#[derive(Debug)]
pub struct StreamCaller {
    /// In-flight chunks, redeemed oldest first so responses reach the sink
    /// in object order while the window keeps the plane busy.
    window: Window<SgList, SgList>,
    arena: SlabArena,
}

impl StreamCaller {
    fn new(requester: RingRequester<SgList, SgList>) -> Self {
        let depth = requester.capacity();
        StreamCaller {
            window: requester.window(depth).expect("capacity is a valid depth"),
            arena: SlabArena::new(),
        }
    }

    /// Issues one scatter-gather call carrying `data` (split into arena
    /// segments, no coalescing copy) and hands the response list to
    /// `read` before its segments are recycled — the zero-copy way to
    /// consume a response ([`SgList::gather_into`] is available when a
    /// contiguous copy is genuinely wanted).
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call`]. On error the in-flight list is lost
    /// to the slot (freed on shutdown), not recycled.
    pub fn call_sg_with<R>(
        &mut self,
        id: u32,
        data: &[u8],
        read: impl FnOnce(&SgList) -> R,
    ) -> Result<R> {
        let sg = self.arena.acquire_sg(data, DEFAULT_SEGMENT_BYTES);
        let resp = self.window.requester().call(id, sg)?;
        let r = read(&resp);
        self.arena.recycle_sg(resp);
        Ok(r)
    }

    /// Streams `data` through handler `id` as pipelined chunks under a
    /// credit window of `window` in-flight chunks, clamped to between 1
    /// and the ring's capacity (2 double-buffers: the responder works on
    /// one chunk while the caller marshals the next).
    ///
    /// `chunk_bytes` is re-read before each chunk is marshalled — return
    /// a constant for static chunking, or wire it to
    /// [`crate::ChunkSizer::chunk_bytes`] so EPC paging pressure resizes
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
    /// As [`RingRequester::submit`] / [`RingRequester::wait`], including
    /// while a refusal drains the window. The chunks in flight at the
    /// failure point are drained like a refusal drains them — each is
    /// waited for, and the segments of those that complete go back to the
    /// arena; only a chunk whose own wait fails is dropped instead of
    /// recycled.
    pub fn stream_gated(
        &mut self,
        id: u32,
        data: &[u8],
        window: usize,
        mut chunk_bytes: impl FnMut() -> usize,
        mut gate: impl FnMut(Range<usize>) -> ControlFlow<()>,
        mut on_chunk: impl FnMut(u64, &SgList),
    ) -> Result<StreamReport> {
        let window = window.clamp(1, self.window.requester().capacity());
        let mut report = StreamReport::default();
        let mut offset = 0usize;
        let mut last_chunk = 0usize;
        debug_assert!(self.window.is_empty());
        while offset < data.len() || !self.window.is_empty() {
            // Marshal up to the credit limit, then redeem the oldest
            // chunk: submission order is completion order at the sink,
            // and while we wait the responder chews on the rest of the
            // window.
            if offset < data.len() && self.window.len() < window {
                let chunk = chunk_bytes().max(1);
                let end = offset.saturating_add(chunk).min(data.len());
                if gate(offset..end).is_break() {
                    report.refused_at = Some(offset as u64);
                    report.redeemed += self.drain()?;
                    break;
                }
                if report.chunks > 0 && chunk != last_chunk {
                    report.resizes += 1;
                }
                last_chunk = chunk;
                let mut sg = self
                    .arena
                    .acquire_sg(&data[offset..end], DEFAULT_SEGMENT_BYTES);
                sg.set_meta(offset as u64);
                // Below the window's depth, so nothing is reaped here.
                if let Err(e) = self.window.submit(id, sg) {
                    let _ = self.drain();
                    return Err(e);
                }
                report.chunks += 1;
                report.submitted += 1;
                report.bytes_in += (end - offset) as u64;
                offset = end;
                continue;
            }
            let resp = match self.window.reap().expect("window is non-empty") {
                Ok(r) => r,
                Err(e) => {
                    let _ = self.drain();
                    return Err(e);
                }
            };
            report.redeemed += 1;
            report.bytes_out += resp.len() as u64;
            on_chunk(resp.meta(), &resp);
            self.arena.recycle_sg(resp);
        }
        Ok(report)
    }

    /// Drains the window after a refusal or a mid-stream error: what
    /// completes goes back to the arena, what fails is dropped. Returns
    /// the number recycled, or the first failure.
    fn drain(&mut self) -> Result<u64> {
        let arena = &mut self.arena;
        self.window.drain(|resp| arena.recycle_sg(resp))
    }

    /// Counters of this caller's private arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HotCallConfig;

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
        let data = pattern(100_000);
        let gathered = caller
            .call_sg_with(xor, &data, |resp| {
                let segments = 100_000_usize.div_ceil(DEFAULT_SEGMENT_BYTES);
                assert_eq!(resp.segment_count(), segments);
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
        let ring = SgRing::spawn_pool(t, 16, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = pattern(1 << 20);
        let mut out = vec![0u8; data.len()];
        let report = caller
            .stream(
                xor,
                &data,
                2,
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
        assert_eq!(rs.occupancy, 0);
        assert_eq!(rs.totals.calls - rs.totals.fused_runs, 16);
    }

    #[test]
    fn steady_state_streaming_reuses_segments() {
        let (t, xor, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 16, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
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
        let ring = SgRing::spawn_pool(t, 16, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = pattern(300_000);
        // Shrink the chunk every submission: 64 KiB, 32 KiB, 16 KiB, ...
        // floored at 4 KiB — the shape an EPC-pressure chunker produces
        // crossing the paging cliff. The first chunks span several
        // segments, the last ones part of one.
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
    fn sg_plane_names_its_telemetry() {
        let (t, _, _) = xor_table();
        let ring = SgRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        assert_eq!(ring.telemetry("bw").name, "bw");
        let provider = ring.telemetry_provider("bw");
        assert_eq!(provider().name, "bw");
    }
}
