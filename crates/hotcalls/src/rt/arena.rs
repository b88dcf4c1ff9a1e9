//! Reusable payload buffers for the byte-carrying hot path.
//!
//! PR 1 made the transport lock-free, but every byte-carrying call still
//! boxed a fresh payload — the allocator, not the mailbox, became the hot
//! path. This module is the runtime's analog of the paper's
//! No-Redundant-Zeroing marshalling: buffer *management* work that is
//! security-irrelevant gets taken off the per-call path.
//!
//! * **Inline fast path** — payloads at or below [`INLINE_CAPACITY`] (one
//!   cache line, matching the slot layout of the `slot` module) are stored
//!   directly in the message and move through the ring with **zero heap
//!   traffic**.
//! * **Slab recycling** — larger payloads draw from per-size-class free
//!   lists of previously used boxes. Recycled slabs are deliberately *not*
//!   zeroed: like an NRZ `out` staging buffer, a slab is only handed to a
//!   handler that overwrites the bytes it reports back, so scrubbing it
//!   would be redundant work.
//! * **Generation-tagged handles** — every slab box carries a
//!   [`SlabHandle`] minted by its arena; recycling validates the tag, so a
//!   buffer from a different (or dead) arena is dropped and counted
//!   instead of poisoning a free list.
//!
//! The arena is deliberately single-owner (one per requester): buffers
//! travel *by value* through the ring and come back with the response, so
//! no lock or atomic is needed on the alloc/recycle path.

// The counter struct lives in the telemetry module next to the plane's
// other stats structs; re-exported here so `rt::ArenaStats` stays a valid
// path for existing callers.
pub use crate::telemetry::ArenaStats;

/// Payloads at or below this many bytes ride inline in the message — one
/// cache line, the same granularity the slot state machine pads to.
pub const INLINE_CAPACITY: usize = 64;

/// Smallest slab size class (bytes). Anything below rides inline, so
/// classes start just above the cache line.
const MIN_SLAB_BYTES: usize = 128;

/// Proof that a slab box was minted by a particular arena: its slot in the
/// arena's generation table plus the generation it was issued under. The
/// tag is validated (and the generation bumped) on recycle, so a stale or
/// foreign handle can never land a buffer in a free list it doesn't belong
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHandle {
    index: u32,
    generation: u32,
}

#[derive(Debug)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAPACITY],
    },
    Slab {
        handle: SlabHandle,
        len: usize,
        bytes: Box<[u8]>,
    },
}

/// A payload buffer on the hot path: either a cache line of inline bytes
/// or an arena-managed slab. Constructed only by [`SlabArena::acquire`],
/// transformed in place by the responder, and returned to
/// [`SlabArena::recycle`] when redeemed.
#[derive(Debug)]
pub struct HotBuf {
    repr: Repr,
}

impl HotBuf {
    /// Logical length of the valid bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Slab { len, .. } => *len,
        }
    }

    /// No valid bytes?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total writable capacity (inline line or slab class size).
    pub fn capacity(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => INLINE_CAPACITY,
            Repr::Slab { bytes, .. } => bytes.len(),
        }
    }

    /// Did this payload take the zero-heap inline path?
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// The valid bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Slab { len, bytes, .. } => &bytes[..*len],
        }
    }

    /// The whole capacity, for a handler to write its response into.
    /// Bytes beyond [`HotBuf::len`] are unspecified garbage — recycled
    /// slabs are not zeroed (the NRZ discipline), so read only what you
    /// wrote.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        match &mut self.repr {
            Repr::Inline { bytes, .. } => &mut bytes[..],
            Repr::Slab { bytes, .. } => &mut bytes[..],
        }
    }

    /// Declares the first `len` bytes valid (a handler's response length).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`HotBuf::capacity`].
    pub fn set_len(&mut self, len: usize) {
        assert!(
            len <= self.capacity(),
            "len {len} exceeds capacity {}",
            self.capacity()
        );
        match &mut self.repr {
            Repr::Inline { len: l, .. } => *l = len as u8,
            Repr::Slab { len: l, .. } => *l = len,
        }
    }
}

/// A scatter-gather descriptor: one *logical* transfer carried as an
/// ordered list of arena segments, so a payload of any size marshals
/// through a ring slot without ever being coalesced into one contiguous
/// copy. The descriptor also carries a `meta` word — streaming callers
/// put the chunk's absolute object offset there so a handler processing
/// chunk *k* can key position-dependent work (keystreams, block tags)
/// off the object, not the chunk.
///
/// Segments may be zero-length (a degenerate but legal descriptor), and
/// the logical length may be re-declared up to the *capacity* sum with
/// [`SgList::set_len`] — a response can grow into a segment's size-class
/// slack exactly like a [`HotBuf`] response can.
#[derive(Debug, Default)]
pub struct SgList {
    segments: Vec<HotBuf>,
    meta: u64,
}

impl SgList {
    /// Logical length: the sum of the segments' valid bytes.
    pub fn len(&self) -> usize {
        self.segments.iter().map(HotBuf::len).sum()
    }

    /// No valid bytes in any segment?
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(HotBuf::is_empty)
    }

    /// Total writable capacity across segments.
    pub fn capacity(&self) -> usize {
        self.segments.iter().map(HotBuf::capacity).sum()
    }

    /// Number of segments (including zero-length ones).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments, in logical order.
    pub fn segments(&self) -> &[HotBuf] {
        &self.segments
    }

    /// The segments, mutably — the handler-side surface for in-place
    /// transforms. Length bookkeeping stays with [`SgList::set_len`].
    pub fn segments_mut(&mut self) -> &mut [HotBuf] {
        &mut self.segments
    }

    /// The caller-assigned metadata word (streaming callers: the chunk's
    /// absolute offset in its object).
    pub fn meta(&self) -> u64 {
        self.meta
    }

    /// Sets the metadata word.
    pub fn set_meta(&mut self, meta: u64) {
        self.meta = meta;
    }

    /// Appends the logical bytes, in order, to `out` — the gather half,
    /// used at the stream edge and by equivalence checks. This is the
    /// *only* place bytes are ever coalesced, and it is the caller's
    /// choice to pay for it.
    pub fn gather_into(&self, out: &mut Vec<u8>) {
        for seg in &self.segments {
            out.extend_from_slice(seg.as_slice());
        }
    }

    /// Re-declares the logical length (a handler's response length),
    /// distributing it across segments in order: each segment takes up to
    /// its capacity, the remainder flows into the next. Zero-capacity
    /// tails end up zero-length.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`SgList::capacity`].
    pub fn set_len(&mut self, len: usize) {
        assert!(
            len <= self.capacity(),
            "len {len} exceeds sg capacity {}",
            self.capacity()
        );
        let mut remaining = len;
        for seg in &mut self.segments {
            let take = remaining.min(seg.capacity());
            seg.set_len(take);
            remaining -= take;
        }
    }
}

/// A single-owner pool of reusable payload buffers with per-size-class
/// free lists.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::SlabArena;
///
/// let mut arena = SlabArena::new();
/// let small = arena.acquire(b"ping", 4);
/// assert!(small.is_inline());
/// let big = arena.acquire(&[7u8; 500], 500);
/// assert!(!big.is_inline());
/// arena.recycle(small);
/// arena.recycle(big);
/// // The next 500-byte acquire reuses the recycled slab: no new heap box.
/// let again = arena.acquire(&[8u8; 500], 500);
/// assert_eq!(arena.stats().allocs, 1);
/// assert_eq!(arena.stats().recycles, 1);
/// # drop(again);
/// ```
#[derive(Debug, Default)]
pub struct SlabArena {
    /// Free lists indexed by size-class (log2 of the class byte size).
    free: Vec<Vec<Box<[u8]>>>,
    /// Current generation per handle slot; bumped on every recycle so old
    /// tags die.
    generations: Vec<u32>,
    /// Handle slots free for reuse.
    free_handles: Vec<u32>,
    /// Emptied segment vectors from recycled [`SgList`]s, reused by the
    /// next `acquire_sg` so steady-state streaming allocates nothing.
    sg_pool: Vec<Vec<HotBuf>>,
    stats: ArenaStats,
}

impl SlabArena {
    /// An empty arena.
    pub fn new() -> Self {
        SlabArena::default()
    }

    /// Size class for a requested capacity: power-of-two bytes, floored at
    /// [`MIN_SLAB_BYTES`].
    fn class_bytes(capacity: usize) -> usize {
        capacity.next_power_of_two().max(MIN_SLAB_BYTES)
    }

    fn class_index(class_bytes: usize) -> usize {
        class_bytes.trailing_zeros() as usize
    }

    /// Hands out a buffer holding a copy of `data`, with room for at least
    /// `capacity` bytes (the larger of the two wins — an `out`-style call
    /// sends a small request but needs space for a big response).
    ///
    /// Payloads that fit [`INLINE_CAPACITY`] take the inline path: no heap
    /// interaction at all. Larger ones reuse a recycled slab of the right
    /// size class when available, allocating only on a cold free list.
    pub fn acquire(&mut self, data: &[u8], capacity: usize) -> HotBuf {
        let need = data.len().max(capacity);
        if need <= INLINE_CAPACITY {
            self.stats.inline_hits += 1;
            let mut bytes = [0u8; INLINE_CAPACITY];
            bytes[..data.len()].copy_from_slice(data);
            return HotBuf {
                repr: Repr::Inline {
                    len: data.len() as u8,
                    bytes,
                },
            };
        }
        let class = Self::class_bytes(need);
        let ci = Self::class_index(class);
        let recycled = if ci < self.free.len() {
            self.free[ci].pop()
        } else {
            None
        };
        let mut bytes = match recycled {
            Some(b) => {
                self.stats.recycles += 1;
                b
            }
            None => {
                self.stats.allocs += 1;
                vec![0u8; class].into_boxed_slice()
            }
        };
        bytes[..data.len()].copy_from_slice(data);
        let index = match self.free_handles.pop() {
            Some(i) => i,
            None => {
                self.generations.push(0);
                (self.generations.len() - 1) as u32
            }
        };
        HotBuf {
            repr: Repr::Slab {
                handle: SlabHandle {
                    index,
                    generation: self.generations[index as usize],
                },
                len: data.len(),
                bytes,
            },
        }
    }

    /// Returns a buffer to the arena. Inline buffers cost nothing; a slab
    /// whose generation tag matches goes back on its free list (without
    /// being zeroed), and a stale or foreign slab is dropped and counted
    /// in [`ArenaStats::stale_recycles`].
    pub fn recycle(&mut self, buf: HotBuf) {
        let (handle, bytes) = match buf.repr {
            Repr::Inline { .. } => return,
            Repr::Slab { handle, bytes, .. } => (handle, bytes),
        };
        let valid = self
            .generations
            .get(handle.index as usize)
            .is_some_and(|&g| g == handle.generation);
        if !valid {
            self.stats.stale_recycles += 1;
            return;
        }
        self.generations[handle.index as usize] = handle.generation.wrapping_add(1);
        self.free_handles.push(handle.index);
        let ci = Self::class_index(bytes.len());
        if self.free.len() <= ci {
            self.free.resize_with(ci + 1, Vec::new);
        }
        self.free[ci].push(bytes);
    }

    /// Counters so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Hands out a scatter-gather descriptor over a copy of `data`, split
    /// into segments of at most `segment_bytes` — one bounded
    /// arena-segment copy per piece, never a coalescing copy of the
    /// whole. Empty `data` yields a descriptor with one empty segment (a
    /// stream's zero-length tail chunk is still a chunk). The segment
    /// vector itself is drawn from the pool [`SlabArena::recycle_sg`]
    /// refills, so a warm stream's per-chunk heap traffic is exactly its
    /// segments' recycled slabs: zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero.
    pub fn acquire_sg(&mut self, data: &[u8], segment_bytes: usize) -> SgList {
        assert!(segment_bytes > 0, "segment size must be positive");
        let mut segments = self.sg_pool.pop().unwrap_or_default();
        if data.is_empty() {
            segments.push(self.acquire(&[], 0));
        } else {
            // Every segment gets the full `segment_bytes` capacity — the
            // tail piece included — so all of a stream's segments share
            // one size class and recycle into each other.
            for piece in data.chunks(segment_bytes) {
                segments.push(self.acquire(piece, segment_bytes));
            }
        }
        SgList { segments, meta: 0 }
    }

    /// Returns a descriptor's segments to their free lists (see
    /// [`SlabArena::recycle`]) and pools the emptied segment vector for
    /// the next [`SlabArena::acquire_sg`].
    pub fn recycle_sg(&mut self, mut sg: SgList) {
        for seg in sg.segments.drain(..) {
            self.recycle(seg);
        }
        self.sg_pool.push(sg.segments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_threshold_is_one_cache_line() {
        let mut arena = SlabArena::new();
        assert!(arena.acquire(&[1u8; INLINE_CAPACITY], 0).is_inline());
        assert!(!arena.acquire(&[1u8; INLINE_CAPACITY + 1], 0).is_inline());
        assert_eq!(arena.stats().inline_hits, 1);
        assert_eq!(arena.stats().allocs, 1);
    }

    #[test]
    fn capacity_request_forces_slab_even_for_small_data() {
        let mut arena = SlabArena::new();
        let buf = arena.acquire(b"rd", 2048);
        assert!(!buf.is_inline());
        assert!(buf.capacity() >= 2048);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.as_slice(), b"rd");
    }

    #[test]
    fn recycled_slab_is_reused_and_not_zeroed() {
        let mut arena = SlabArena::new();
        let mut a = arena.acquire(&[0xEE; 300], 300);
        a.raw_mut().fill(0xEE);
        a.set_len(300);
        arena.recycle(a);
        let b = arena.acquire(b"xy", 300);
        assert_eq!(arena.stats().allocs, 1);
        assert_eq!(arena.stats().recycles, 1);
        // The NRZ discipline: beyond the copied-in request, the slab still
        // holds the previous call's bytes.
        assert_eq!(b.as_slice(), b"xy");
        let mut b = b;
        assert_eq!(b.raw_mut()[2], 0xEE);
    }

    #[test]
    fn foreign_handles_are_rejected_not_pooled() {
        let mut a = SlabArena::new();
        let mut b = SlabArena::new();
        let buf = a.acquire(&[1u8; 200], 200);
        b.recycle(buf);
        assert_eq!(b.stats().stale_recycles, 1);
        // b's free lists stay empty: the foreign slab was dropped.
        let fresh = b.acquire(&[2u8; 200], 200);
        assert_eq!(b.stats().allocs, 1);
        assert_eq!(b.stats().recycles, 0);
        drop(fresh);
    }

    #[test]
    fn generations_invalidate_resurrected_handles() {
        let mut arena = SlabArena::new();
        let buf = arena.acquire(&[1u8; 200], 200);
        let Repr::Slab { handle, .. } = buf.repr else {
            panic!("expected slab");
        };
        arena.recycle(HotBuf {
            repr: Repr::Slab {
                handle,
                len: 0,
                bytes: vec![0u8; 256].into_boxed_slice(),
            },
        });
        // First recycle is legitimate (tag matches) ...
        assert_eq!(arena.stats().stale_recycles, 0);
        // ... but replaying the same generation is stale.
        arena.recycle(HotBuf {
            repr: Repr::Slab {
                handle,
                len: 0,
                bytes: vec![0u8; 256].into_boxed_slice(),
            },
        });
        assert_eq!(arena.stats().stale_recycles, 1);
    }

    #[test]
    fn size_classes_keep_big_and_small_apart() {
        let mut arena = SlabArena::new();
        let small = arena.acquire(&[1u8; 200], 200); // 256-class
        let big = arena.acquire(&[1u8; 5000], 5000); // 8192-class
        arena.recycle(small);
        arena.recycle(big);
        let again_big = arena.acquire(&[2u8; 4097], 4097);
        assert!(again_big.capacity() >= 8192);
        assert_eq!(arena.stats().recycles, 1, "big class reused");
        let again_small = arena.acquire(&[2u8; 129], 129);
        assert!(again_small.capacity() >= 256);
        assert_eq!(arena.stats().recycles, 2, "small class reused");
    }

    #[test]
    fn sg_splits_without_coalescing_and_gathers_back() {
        let mut arena = SlabArena::new();
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let sg = arena.acquire_sg(&data, 256);
        assert_eq!(sg.segment_count(), 4, "1000 bytes / 256 = 4 segments");
        assert_eq!(sg.len(), 1000);
        // Uniform size class: the 232-byte tail still gets 256 capacity.
        assert!(sg.segments().iter().all(|s| s.capacity() >= 256));
        let mut back = Vec::new();
        sg.gather_into(&mut back);
        assert_eq!(back, data);
        arena.recycle_sg(sg);
    }

    #[test]
    fn sg_steady_state_recycles_everything() {
        let mut arena = SlabArena::new();
        let data = [0x42u8; 4096];
        let warm = arena.acquire_sg(&data, 1024);
        arena.recycle_sg(warm);
        let (allocs, _) = (arena.stats().allocs, ());
        for _ in 0..16 {
            let sg = arena.acquire_sg(&data, 1024);
            arena.recycle_sg(sg);
        }
        assert_eq!(
            arena.stats().allocs,
            allocs,
            "warm streams allocate no slabs"
        );
        assert!(arena.stats().recycles >= 16 * 4);
    }

    #[test]
    fn sg_empty_data_is_one_empty_segment() {
        let mut arena = SlabArena::new();
        let sg = arena.acquire_sg(&[], 4096);
        assert_eq!(sg.segment_count(), 1);
        assert_eq!(sg.len(), 0);
        assert!(sg.is_empty());
        arena.recycle_sg(sg);
    }

    #[test]
    fn sg_set_len_spills_across_segments() {
        let mut arena = SlabArena::new();
        let mut sg = arena.acquire_sg(&[7u8; 600], 256);
        assert_eq!(sg.segment_count(), 3);
        // Grow into the capacity slack (3 × 256 = 768).
        sg.set_len(700);
        assert_eq!(sg.len(), 700);
        assert_eq!(sg.segments()[0].len(), 256);
        assert_eq!(sg.segments()[2].len(), 700 - 512);
        // Shrink below one segment.
        sg.set_len(100);
        assert_eq!(sg.len(), 100);
        assert_eq!(sg.segments()[1].len(), 0);
        arena.recycle_sg(sg);
    }

    #[test]
    #[should_panic(expected = "exceeds sg capacity")]
    fn sg_set_len_beyond_capacity_panics() {
        let mut arena = SlabArena::new();
        let mut sg = arena.acquire_sg(&[1u8; 100], 128);
        sg.set_len(100_000);
    }

    #[test]
    fn sg_meta_rides_the_descriptor() {
        let mut arena = SlabArena::new();
        let mut sg = arena.acquire_sg(&[1u8; 10], 128);
        assert_eq!(sg.meta(), 0);
        sg.set_meta(1 << 40);
        assert_eq!(sg.meta(), 1 << 40);
        arena.recycle_sg(sg);
    }

    #[test]
    fn stats_rates_are_sane() {
        let mut arena = SlabArena::new();
        for _ in 0..8 {
            let b = arena.acquire(&[0u8; 16], 16);
            arena.recycle(b);
        }
        let big = arena.acquire(&[0u8; 1000], 1000);
        arena.recycle(big);
        let big = arena.acquire(&[0u8; 1000], 1000);
        arena.recycle(big);
        let s = arena.stats();
        assert_eq!(s.acquires(), 10);
        assert!((s.inline_hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.recycle_rate() - 0.5).abs() < 1e-12);
        assert!((s.allocs_per_op() - 0.1).abs() < 1e-12);
    }
}
