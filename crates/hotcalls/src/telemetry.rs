//! Per-plane telemetry: counters and stage cycle histograms.
//!
//! The paper's entire argument is measurement — Table 1 latencies, Table 2
//! per-application call frequencies, Figures 10/11 core-cycle fractions —
//! and this module holds what the call planes measure about themselves:
//!
//! * [`CycleHist`] / [`AtomicHist`] — HDR-style log-bucketed cycle
//!   histograms (power-of-two buckets with [`SUB_COUNT`] sub-buckets per
//!   octave, ~12.5% relative resolution), mergeable, with percentile
//!   extraction. The ring planes record them at the
//!   submit→dispatch→complete→reap stage edges so **queueing delay** and
//!   **service time** are separable — the distinction behind the paper's
//!   p78 vs p99.97 HotCall latency split (§4.3).
//! * The counter structs every plane reports ([`HotCallStats`],
//!   [`RingStats`], [`ArenaStats`], [`GovernorStats`]) and
//!   [`PlaneTelemetry`], one ring plane's counters and stage histograms,
//!   read with `telemetry(name)` or through a [`PlaneProvider`].
//!
//! Everything on the hot path follows the responder-local discipline of
//! the data plane: histogram cells are single-writer (a call is recorded
//! by the responder that serviced it) and updated with plain
//! `Relaxed` load/store pairs — no shared read-modify-write on the call
//! path. The reap-stage histogram follows the same rule from the other
//! side: the ring's one requester is its only writer.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Build-mode switches
// ---------------------------------------------------------------------------

/// Whether this build carries telemetry instrumentation. `false` when the
/// crate was compiled with the `telemetry-off` feature — the build the
/// overhead gate compares against.
pub const TELEMETRY_ENABLED: bool = cfg!(not(feature = "telemetry-off"));

/// Reads the current cycle counter (`RDTSC` on x86-64, wall-clock
/// nanoseconds elsewhere; every stage subtracts stamps with saturation,
/// so a backward clock step reads as a zero-length stage). Returns 0 under
/// `telemetry-off` so stage stamps vanish from the instruction stream
/// together with the records.
#[inline]
pub fn now_cycles() -> u64 {
    #[cfg(feature = "telemetry-off")]
    {
        0
    }
    #[cfg(not(feature = "telemetry-off"))]
    {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: RDTSC is unprivileged and universally available on
        // x86-64.
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64)
        }
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed histograms
// ---------------------------------------------------------------------------

/// log2 of the sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave: each octave above the linear range splits into
/// this many equal-width buckets, bounding relative error at
/// `1 / SUB_COUNT` (12.5%).
pub const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Bucket index of a value (monotone in the value).
#[inline]
fn bucket_index(v: u64) -> usize {
    let exp = 63 - (v | 1).leading_zeros();
    if exp <= SUB_BITS {
        // Linear range: values below 2^(SUB_BITS+1) get exact buckets.
        v as usize
    } else {
        let block = (exp - SUB_BITS + 1) as usize;
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB_COUNT - 1);
        block * SUB_COUNT + sub
    }
}

/// Lowest value mapping into bucket `i`.
#[inline]
fn bucket_low(i: usize) -> u64 {
    if i < 2 * SUB_COUNT {
        i as u64
    } else {
        let block = i / SUB_COUNT;
        let sub = (i % SUB_COUNT) as u64;
        (SUB_COUNT as u64 + sub) << (block - 1)
    }
}

/// Highest value mapping into bucket `i` — what percentile queries report
/// (the HDR "highest equivalent value" convention, so exact small values
/// round-trip unchanged through the linear range).
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i < 2 * SUB_COUNT {
        i as u64
    } else {
        let width = 1u64 << (i / SUB_COUNT - 1);
        bucket_low(i) + (width - 1)
    }
}

/// A mergeable log-bucketed cycle histogram (plain, single-threaded).
///
/// Power-of-two octaves with [`SUB_COUNT`] sub-buckets each: the relative
/// quantile error is bounded at 12.5% while the whole `u64` range fits in
/// [`HIST_BUCKETS`] buckets. Merging two histograms is element-wise
/// addition, so per-thread histograms combine into plane-wide views
/// without losing quantile fidelity.
///
/// # Examples
///
/// ```
/// use hotcalls::telemetry::CycleHist;
///
/// let mut h = CycleHist::new();
/// for v in [3, 3, 7, 1_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.percentile(0.50), 3);
/// assert!(h.percentile(0.999) >= 1_000);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleHist {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for CycleHist {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for CycleHist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CycleHist")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

impl CycleHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        CycleHist {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds all of `other`'s samples into `self`. Merge is associative
    /// and commutative: any merge order yields the histogram of the
    /// concatenated sample streams.
    pub fn merge(&mut self, other: &CycleHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (exact sum over exact count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` — the highest value of the
    /// first bucket at which the cumulative count reaches `q * count`.
    /// Returns 0 for an empty histogram. The true max is reported exactly
    /// for `q = 1`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the exactly-tracked max.
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }
}

/// The shared-memory histogram cell the data planes record into.
///
/// Bucket updates match the plane's ownership discipline:
/// [`AtomicHist::record`] is **single-writer** (plain `Relaxed` load +
/// store, no RMW — a responder owns its stage cells and a ring's one
/// requester its reap cell, exactly like `LocalStats` counter flushes). Readers on
/// other threads take a [`AtomicHist::snapshot`].
///
/// Under the `telemetry-off` feature the cell allocates no buckets and
/// `record` is empty.
#[derive(Debug)]
pub struct AtomicHist {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHist {
    /// Creates an empty cell (bucket-free under `telemetry-off`).
    pub fn new() -> Self {
        let buckets = if TELEMETRY_ENABLED { HIST_BUCKETS } else { 0 };
        AtomicHist {
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. **Single-writer**: only the cell's owning
    /// thread may call this (plain load+store, no RMW).
    #[inline]
    pub fn record(&self, v: u64) {
        if !TELEMETRY_ENABLED {
            return;
        }
        let b = &self.counts[bucket_index(v)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum.store(
            self.sum.load(Ordering::Relaxed).saturating_add(v),
            Ordering::Relaxed,
        );
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Copies the cell into a plain mergeable histogram.
    pub fn snapshot(&self) -> CycleHist {
        let mut h = CycleHist::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

// ---------------------------------------------------------------------------
// Counter structs
// ---------------------------------------------------------------------------

/// Runtime statistics of one call plane — total calls serviced, timeout
/// fallbacks taken, responder wakeups, and the responder poll split that
/// yields [`HotCallStats::utilization`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotCallStats {
    /// Completed calls.
    pub calls: u64,
    /// Requester timeouts that fell back to the slow path.
    pub fallbacks: u64,
    /// Times a requester had to wake a sleeping responder.
    pub wakeups: u64,
    /// Responder poll iterations that found no work.
    pub idle_polls: u64,
    /// Responder poll iterations that serviced a call.
    pub busy_polls: u64,
    /// Synchronous calls the requester executed inline on its own core
    /// (no slot, no handoff, no wake) because the ring's responder was
    /// dozing and the ring was near empty. Included in
    /// [`HotCallStats::calls`]; always 0 on a plane whose responder
    /// cannot doze. `calls - fused_runs` is what the responder serviced.
    ///
    /// An inline run records no queue or service sample: the stage
    /// histograms of a plane (and every per-stage figure built on them)
    /// describe its ring calls only, so on a plane that runs most calls
    /// inline they cover a minority of [`HotCallStats::calls`].
    pub fused_runs: u64,
}

impl HotCallStats {
    /// Fraction of responder polls that did useful work.
    pub fn utilization(&self) -> f64 {
        let total = self.idle_polls + self.busy_polls;
        if total == 0 {
            0.0
        } else {
            self.busy_polls as f64 / total as f64
        }
    }
}

/// A plane's responder in the shape the repository benchmark reads: a
/// ring plane has one responder for its life, so `active == min == max
/// == 1`, none parked, and the park/wake counters stay zero (see
/// `RingServer::governor_stats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorStats {
    /// Responders currently in the active set.
    pub active: usize,
    /// Responders currently parked (always 0).
    pub parked: usize,
    /// Lifetime park decisions (always 0).
    pub parks: u64,
    /// Lifetime unpark decisions (always 0).
    pub wakes: u64,
    /// Responder floor (1).
    pub min: usize,
    /// Responder ceiling (1).
    pub max: usize,
}

/// A full snapshot of a ring plane: plane-wide totals and the ring's
/// occupancy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingStats {
    /// Plane-wide call/poll totals.
    pub totals: HotCallStats,
    /// Submitted-but-unserviced entries at snapshot time.
    pub occupancy: usize,
}

/// Counters of one slab arena: where payload buffers came from and where
/// they went back to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Fresh slab allocations (cold path).
    pub allocs: u64,
    /// Buffers returned into the free list and reused.
    pub recycles: u64,
    /// Acquisitions satisfied inline in the slot (no buffer at all).
    pub inline_hits: u64,
    /// Recycle attempts rejected by the generation check.
    pub stale_recycles: u64,
}

impl ArenaStats {
    /// Total acquisitions (inline + slab).
    pub fn acquires(&self) -> u64 {
        self.inline_hits + self.allocs + self.recycles
    }

    /// Fraction of acquisitions served inline in the slot.
    pub fn inline_hit_rate(&self) -> f64 {
        let total = self.acquires();
        if total == 0 {
            0.0
        } else {
            self.inline_hits as f64 / total as f64
        }
    }

    /// Fraction of *slab* acquisitions served by recycling.
    pub fn recycle_rate(&self) -> f64 {
        let slab = self.allocs + self.recycles;
        if slab == 0 {
            0.0
        } else {
            self.recycles as f64 / slab as f64
        }
    }

    /// Fresh allocations per acquisition — the steady-state zero-alloc
    /// claim is `allocs_per_op -> 0`.
    pub fn allocs_per_op(&self) -> f64 {
        let total = self.acquires();
        if total == 0 {
            0.0
        } else {
            self.allocs as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Plane telemetry
// ---------------------------------------------------------------------------

/// One plane's full telemetry: counter snapshot plus the stage
/// histograms.
#[derive(Debug, Clone)]
pub struct PlaneTelemetry {
    /// The name the plane was read under.
    pub name: String,
    /// Counter snapshot (totals and occupancy).
    pub stats: RingStats,
    /// Cycles from submit to responder pickup (queueing delay), recorded
    /// by the plane's responder.
    pub queue: CycleHist,
    /// Cycles from pickup to completion (service time), recorded by the
    /// plane's responder.
    pub service: CycleHist,
    /// Cycles from completion to the requester reaping the response,
    /// recorded by the ring's one requester.
    pub reap: CycleHist,
}

impl PlaneTelemetry {
    /// The plane's queueing histogram (a copy of
    /// [`PlaneTelemetry::queue`]).
    pub fn merged_queue(&self) -> CycleHist {
        self.queue.clone()
    }

    /// The plane's service histogram (a copy of
    /// [`PlaneTelemetry::service`]).
    pub fn merged_service(&self) -> CycleHist {
        self.service.clone()
    }
}

/// A plane-telemetry provider: a closure that reads one plane's telemetry
/// each time it is called. `RingServer::telemetry_provider` hands these
/// out; each captures the plane's shared state, so it outlives the server.
pub type PlaneProvider = Box<dyn Fn() -> PlaneTelemetry + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..10_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            assert!(i <= prev + 1, "index skipped a bucket at {v}");
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn bucket_edges_roundtrip() {
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i, "low edge of {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high edge of {i}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = CycleHist::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0 / 16.0), 0);
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(1.0), 15);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = CycleHist::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let q = [0.5, 0.9, 0.99, 0.999].map(|q| h.percentile(q));
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{q:?}");
        assert!(q[3] <= h.max());
        assert_eq!(h.count(), 60);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = CycleHist::new();
        for v in [620u64, 1_400, 8_640, 1_000_000] {
            h.record(v);
            let p = h.percentile(1.0);
            // p == max is exact; check the bucket itself is within 12.5%.
            assert_eq!(p, v);
            let hi = bucket_high(bucket_index(v));
            assert!(
                (hi - bucket_low(bucket_index(v))) as f64 <= v as f64 / 8.0 + 1.0,
                "bucket too wide at {v}"
            );
            h = CycleHist::new();
        }
    }

    #[test]
    fn atomic_hist_matches_plain() {
        let a = AtomicHist::new();
        let mut p = CycleHist::new();
        for v in [0u64, 1, 63, 64, 65, 4_095, 1 << 40] {
            a.record(v);
            p.record(v);
        }
        if TELEMETRY_ENABLED {
            let s = a.snapshot();
            assert_eq!(s.count(), p.count());
            assert_eq!(s.percentile(0.5), p.percentile(0.5));
            assert_eq!(s.max(), p.max());
        }
    }

    #[test]
    fn utilization_bounds() {
        let mut s = HotCallStats::default();
        assert_eq!(s.utilization(), 0.0);
        s.busy_polls = 25;
        s.idle_polls = 75;
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }
}
