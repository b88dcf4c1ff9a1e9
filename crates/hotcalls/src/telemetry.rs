//! The unified telemetry plane: cycle histograms, event tracing, and the
//! snapshot registry every layer reports into.
//!
//! The paper's entire argument is measurement — Table 1 latencies, Table 2
//! per-application call frequencies, Figures 10/11 core-cycle fractions —
//! and this module is the reproduction's measurement substrate:
//!
//! * [`CycleHist`] / [`AtomicHist`] — HDR-style log-bucketed cycle
//!   histograms (power-of-two buckets with [`SUB_COUNT`] sub-buckets per
//!   octave, ~12.5% relative resolution), mergeable, with
//!   p50/p90/p99/p999 extraction. The data planes record them at the
//!   submit→dispatch→complete→reap stage edges so **queueing delay** and
//!   **service time** are separable — the distinction behind the paper's
//!   p78 vs p99.97 HotCall latency split (§4.3).
//! * [`Tracer`] — a bounded ring-buffer event tracer (fused runs, arena
//!   slab grows, routing and chunk decisions) with a `chrome://tracing`-compatible JSON exporter and
//!   the cheap [`trace`] hook that compiles out under the `telemetry-off`
//!   feature.
//! * [`TelemetryRegistry`] — merges every plane (typed, byte and sg) and
//!   every control plane into one [`Snapshot`], exposed as
//!   Prometheus-style text.
//! * [`ApiCensus`] — the Table-2-style per-application census the apps
//!   build from their call ledgers.
//!
//! Everything on the hot path follows the responder-local discipline of
//! the data plane: histogram cells are single-writer (a call is recorded
//! by the responder that serviced it) and updated with plain
//! `Relaxed` load/store pairs — no shared read-modify-write on the call
//! path. The reap-stage histogram follows the same rule from the other
//! side: one cell per requester handle, merged when a snapshot is taken.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Build-mode switches
// ---------------------------------------------------------------------------

/// Whether this build carries telemetry instrumentation. `false` when the
/// crate was compiled with the `telemetry-off` feature — the build the
/// overhead gate compares against.
pub const TELEMETRY_ENABLED: bool = cfg!(not(feature = "telemetry-off"));

/// Schema version of the serialized telemetry [`Snapshot`]. Bumped when a
/// field is added, removed, renamed or changes meaning. v5 removed the
/// `arenas`, `censuses`, `sim` and `paging` sections and their series,
/// which nothing fed: a section returns together with its producer. v6
/// removed the steal-probe, steal-win, wake-redirect and parked fields of
/// the ring's row and the steal-win series: a plane is one ring, so there
/// is no sibling ring to steal from or redirect a wake to, and its one row
/// is never parked. v7 removed the `ctl` section's two bundle-sizing
/// fields, their two series and the bundle-submission trace kind: a ring
/// slot carries one call, so there is no bundle to size. v8 changed the
/// meaning of a plane's `kind`: it names the plane's shape only, so a
/// one-responder byte or sg plane reads `"single"` where its kind also
/// named the payload — every payload rides the same server. v9 removed
/// the `fused_fallbacks` field and its series: a synchronous call runs
/// inline whenever a dozing plane's gate opens, so there is no opt-in
/// mode whose declines to count. v10 removed a plane's `governor` section,
/// the `hotcalls_governor_{active,parks_total}` and
/// `hotcalls_ctl_resizes_total` series, the `ctl` section's `ticks`,
/// `grows` and `shrinks` fields and the `governor_raise`,
/// `governor_park` and `ctl_resize` trace kinds: a plane is one fixed
/// pool whose only idle mechanism is the doze, so there is no active set
/// to govern or resize. v11 removed a plane's `kind` and its per-lane
/// histograms (a plane holds one `queue` and one `service` histogram),
/// the ring's one-row `shards` list (its `occupancy` moved onto
/// [`RingStats`]; `serviced` is `calls - fused_runs`), the `kind` and
/// `lane` labels and the `hotcalls_shard_serviced_total` series: a plane
/// has exactly one responder, so every plane was one lane, one row and
/// kind `"single"`.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 11;

/// Reads the current cycle counter (`RDTSC` on x86-64, a monotonic
/// nanosecond clock elsewhere). Returns 0 under `telemetry-off` so stage
/// stamps vanish from the instruction stream together with the records.
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
            use std::sync::OnceLock;
            static START: OnceLock<Instant> = OnceLock::new();
            START.get_or_init(Instant::now).elapsed().as_nanos() as u64
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

    /// The p50/p90/p99/p999 summary row the registry serializes.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max,
        }
    }
}

/// The serialized percentile summary of one histogram.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean cycles.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// The shared-memory histogram cell the data planes record into.
///
/// Bucket updates match the plane's ownership discipline:
/// [`AtomicHist::record`] is **single-writer** (plain `Relaxed` load +
/// store, no RMW — a responder owns its stage cells and a requester handle
/// its reap cell, exactly like `LocalStats` counter flushes). Readers on
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
// Stats snapshot types (the canonical homes — the old `config.rs` /
// `rt::arena` names re-export these)
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
// Event tracer
// ---------------------------------------------------------------------------

/// One traced event: a cycle timestamp, a static kind tag, and two
/// free-form arguments (indices, sizes — whatever the site records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// [`now_cycles`] at the event site.
    pub ts: u64,
    /// Static event tag (e.g. `"fused_run"`,
    /// `"arena_grow"`, `"ctl_flip"`).
    pub kind: &'static str,
    /// First argument (site-specific).
    pub a: u64,
    /// Second argument (site-specific).
    pub b: u64,
}

/// A bounded event buffer that drops **oldest-first** under overflow,
/// counting every dropped event.
///
/// # Examples
///
/// ```
/// use hotcalls::telemetry::{TraceBuffer, TraceEvent};
///
/// let mut b = TraceBuffer::with_capacity(2);
/// for i in 0..3 {
///     b.push(TraceEvent { ts: i, kind: "e", a: i, b: 0 });
/// }
/// let (events, dropped) = b.drain();
/// assert_eq!(dropped, 1);
/// assert_eq!(events[0].ts, 1); // the oldest event (ts 0) was dropped
/// ```
#[derive(Debug)]
pub struct TraceBuffer {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty buffer holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        TraceBuffer {
            buf: VecDeque::with_capacity(cap.min(1 << 20)),
            cap,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest if the buffer is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Takes all buffered events (oldest first) and the lifetime dropped
    /// count, leaving the buffer empty (the dropped counter persists).
    pub fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        (self.buf.drain(..).collect(), self.dropped)
    }

    /// Events dropped so far (oldest-first eviction).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cycle→wall-clock calibration captured when tracing starts, so the
/// exporter can place cycle timestamps on `chrome://tracing`'s
/// microsecond axis.
#[derive(Debug, Clone, Copy)]
struct Calibration {
    t0_cycles: u64,
    t0_wall: Instant,
}

/// The process-wide tracer behind the [`trace`] hook: an enable flag the
/// hot path checks with one `Relaxed` load, and a mutex-guarded
/// [`TraceBuffer`] touched only when tracing is actually on.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    inner: Mutex<TracerInner>,
}

#[derive(Debug)]
struct TracerInner {
    buf: TraceBuffer,
    calib: Option<Calibration>,
}

/// Default event capacity used by [`Tracer::enable`] callers that take
/// the default (e.g. `paper ablation_ctl`).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

static TRACER: Tracer = Tracer {
    enabled: AtomicBool::new(false),
    inner: Mutex::new(TracerInner {
        buf: TraceBuffer {
            buf: VecDeque::new(),
            cap: 0,
            dropped: 0,
        },
        calib: None,
    }),
};

/// The process-wide tracer instance.
pub fn tracer() -> &'static Tracer {
    &TRACER
}

impl Tracer {
    /// Turns tracing on with a buffer of at most `cap` events, capturing
    /// the cycle↔wall-clock calibration pair for the exporter. Resets any
    /// previously buffered events.
    pub fn enable(&self, cap: usize) {
        let mut inner = self.inner.lock().expect("tracer lock");
        inner.buf = TraceBuffer::with_capacity(cap);
        inner.calib = Some(Calibration {
            t0_cycles: now_cycles(),
            t0_wall: Instant::now(),
        });
        self.enabled.store(true, Ordering::Release);
    }

    /// Turns tracing off (buffered events stay until drained).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Is tracing currently on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event (called by [`trace`] after the enabled check).
    pub fn record(&self, kind: &'static str, a: u64, b: u64) {
        let ev = TraceEvent {
            ts: now_cycles(),
            kind,
            a,
            b,
        };
        if let Ok(mut inner) = self.inner.lock() {
            inner.buf.push(ev);
        }
    }

    /// Takes all buffered events and the dropped count.
    pub fn drain(&self) -> (Vec<TraceEvent>, u64) {
        self.inner.lock().expect("tracer lock").buf.drain()
    }

    /// Events dropped so far.
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().expect("tracer lock").buf.dropped_events()
    }

    /// Drains the buffer and renders it as a `chrome://tracing` JSON
    /// document (instant events on the microsecond axis, calibrated from
    /// the enable-time cycle↔wall pair). Loadable in `chrome://tracing`
    /// or Perfetto.
    pub fn export_chrome_json(&self) -> String {
        let (events, dropped, calib) = {
            let mut inner = self.inner.lock().expect("tracer lock");
            let calib = inner.calib;
            let (events, dropped) = inner.buf.drain();
            (events, dropped, calib)
        };
        let cycles_per_us = calib
            .map(|c| {
                let wall_us = c.t0_wall.elapsed().as_micros() as f64;
                let cycles = now_cycles().saturating_sub(c.t0_cycles) as f64;
                if wall_us > 0.0 && cycles > 0.0 {
                    cycles / wall_us
                } else {
                    1_000.0
                }
            })
            .unwrap_or(1_000.0);
        let t0 = calib.map(|c| c.t0_cycles).unwrap_or(0);
        let mut out = String::from("{\n\"displayTimeUnit\": \"ns\",\n");
        out.push_str(&format!("\"droppedEvents\": {dropped},\n"));
        out.push_str("\"traceEvents\": [\n");
        for (i, ev) in events.iter().enumerate() {
            let ts_us = ev.ts.saturating_sub(t0) as f64 / cycles_per_us;
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {ts_us:.3}, \"args\": {{\"a\": {}, \"b\": {}}}}}",
                ev.kind, ev.a, ev.b
            ));
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// The cheap trace hook the data planes call: one `Relaxed` flag load
/// when tracing is off, nothing at all under `telemetry-off`.
#[inline]
pub fn trace(kind: &'static str, a: u64, b: u64) {
    if !TELEMETRY_ENABLED {
        return;
    }
    if TRACER.is_enabled() {
        TRACER.record(kind, a, b);
    }
}

// ---------------------------------------------------------------------------
// Snapshot / registry
// ---------------------------------------------------------------------------

/// One plane's full telemetry: counter snapshot plus the stage
/// histograms.
#[derive(Debug, Clone)]
pub struct PlaneTelemetry {
    /// Registered plane name.
    pub name: String,
    /// Counter snapshot (totals and occupancy).
    pub stats: RingStats,
    /// Cycles from submit to responder pickup (queueing delay), recorded
    /// by the plane's responder.
    pub queue: CycleHist,
    /// Cycles from pickup to completion (service time), recorded by the
    /// plane's responder.
    pub service: CycleHist,
    /// Cycles from completion to the requester reaping the response: one
    /// single-writer cell per requester handle, merged here. Exact when
    /// every thread redeems through its own handle (see `RingRequester`).
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

/// One API's row in the Table-2-style census.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApiCensusRow {
    /// API (edge function) name.
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Calls per (virtual) second.
    pub calls_per_sec: f64,
    /// Mean interface cycles per call.
    pub cycles_per_call: f64,
    /// This API's share of all interface cycles, in `[0, 1]`.
    pub share_of_interface: f64,
}

/// A Table-2-style census of one application under one interface mode:
/// which APIs were called, how often, at what per-call cycle cost, and
/// what fraction of core time the interface consumed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApiCensus {
    /// Application name (`memcached`, `lighttpd`, `openvpn`).
    pub app: String,
    /// Interface mode label (`native`, `sdk`, `hot`, `auto`).
    pub mode: String,
    /// Virtual seconds the measured window spanned.
    pub elapsed_secs: f64,
    /// Total API calls issued.
    pub total_calls: u64,
    /// Total cycles spent inside the call interface.
    pub interface_cycles: u64,
    /// Fraction of elapsed core time spent in the interface (Table 2's
    /// "Core Time" column).
    pub core_time_fraction: f64,
    /// Per-API rows, most frequent first.
    pub rows: Vec<ApiCensusRow>,
}

/// The merged, serializable view of everything the registry knows.
#[derive(Debug)]
pub struct Snapshot {
    /// [`TELEMETRY_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Was this build instrumented ([`TELEMETRY_ENABLED`])?
    pub enabled: bool,
    /// Every registered plane's telemetry.
    pub planes: Vec<PlaneTelemetry>,
    /// Every registered control plane's decision counters and routing
    /// table (schema v3).
    pub ctl: Vec<crate::ctl::CtlTelemetry>,
    /// Events the process tracer has dropped so far.
    pub tracer_dropped: u64,
}

fn prom_hist(out: &mut String, metric: &str, labels: &str, h: &CycleHist) {
    let s = h.summary();
    for (q, v) in [
        ("0.5", s.p50),
        ("0.9", s.p90),
        ("0.99", s.p99),
        ("0.999", s.p999),
    ] {
        out.push_str(&format!("{metric}{{{labels},quantile=\"{q}\"}} {v}\n"));
    }
    out.push_str(&format!("{metric}_count{{{labels}}} {}\n", s.count));
    out.push_str(&format!("{metric}_max{{{labels}}} {}\n", s.max));
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (counters as `_total`, histogram percentiles as quantile-labelled
    /// gauges — a summary-style exposition).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# HELP hotcalls_telemetry_enabled 1 when the build is instrumented\n\
             hotcalls_telemetry_enabled {}\n",
            u8::from(self.enabled)
        ));
        out.push_str(&format!(
            "hotcalls_tracer_dropped_events_total {}\n",
            self.tracer_dropped
        ));
        for p in &self.planes {
            let pl = format!("plane=\"{}\"", p.name);
            out.push_str(&format!(
                "hotcalls_calls_total{{{pl}}} {}\n",
                p.stats.totals.calls
            ));
            out.push_str(&format!(
                "hotcalls_fallbacks_total{{{pl}}} {}\n",
                p.stats.totals.fallbacks
            ));
            out.push_str(&format!(
                "hotcalls_wakeups_total{{{pl}}} {}\n",
                p.stats.totals.wakeups
            ));
            out.push_str(&format!(
                "hotcalls_fused_runs_total{{{pl}}} {}\n",
                p.stats.totals.fused_runs
            ));
            prom_hist(&mut out, "hotcalls_queue_cycles", &pl, &p.queue);
            prom_hist(&mut out, "hotcalls_service_cycles", &pl, &p.service);
            prom_hist(&mut out, "hotcalls_reap_cycles", &pl, &p.reap);
        }
        for c in &self.ctl {
            let cl = format!("ctl=\"{}\"", c.name);
            out.push_str(&format!(
                "hotcalls_ctl_decisions_total{{{cl}}} {}\n",
                c.stats.decisions
            ));
            out.push_str(&format!(
                "hotcalls_ctl_route_flips_total{{{cl}}} {}\n",
                c.stats.flips
            ));
            out.push_str(&format!(
                "hotcalls_ctl_sdk_demotions_total{{{cl}}} {}\n",
                c.stats.sdk_demotions
            ));
            out.push_str(&format!(
                "hotcalls_ctl_promotions_total{{{cl}}} {}\n",
                c.stats.promotions
            ));
            out.push_str(&format!(
                "hotcalls_ctl_explore_probes_total{{{cl}}} {}\n",
                c.stats.explore_probes
            ));
            for r in &c.routes {
                out.push_str(&format!(
                    "hotcalls_ctl_api_transport{{{cl},api=\"{}\",transport=\"{}\"}} 1\n",
                    r.api, r.transport
                ));
                out.push_str(&format!(
                    "hotcalls_ctl_api_flips_total{{{cl},api=\"{}\"}} {}\n",
                    r.api, r.flips
                ));
            }
        }
        out
    }
}

/// A plane-telemetry provider: a closure the registry polls at snapshot
/// time (servers hand these out; they capture the plane's shared state).
pub type PlaneProvider = Box<dyn Fn() -> PlaneTelemetry + Send + Sync>;

/// A control-plane provider polled at snapshot time (see
/// [`crate::ctl::ApiRouter::provider`]).
pub type CtlProvider = Box<dyn Fn() -> crate::ctl::CtlTelemetry + Send + Sync>;

#[derive(Default)]
struct RegistryInner {
    planes: Vec<PlaneProvider>,
    ctl: Vec<CtlProvider>,
}

/// The registry that merges every telemetry source into one
/// [`Snapshot`].
///
/// Planes and control planes register pull-style providers, polled at
/// snapshot time, so the snapshot is always current.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::telemetry::TelemetryRegistry;
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn_pool(table, 8, 1, HotCallConfig::default()).unwrap();
/// let reg = TelemetryRegistry::new();
/// reg.register_plane(server.telemetry_provider("rt"));
/// server.requester().call(inc, 1).unwrap();
/// let snap = reg.snapshot();
/// assert_eq!(snap.planes.len(), 1);
/// assert_eq!(snap.planes[0].stats.totals.calls, 1);
/// ```
#[derive(Default)]
pub struct TelemetryRegistry {
    inner: Mutex<RegistryInner>,
}

impl core::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("TelemetryRegistry")
            .field("planes", &inner.planes.len())
            .finish()
    }
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a plane provider (see `telemetry_provider` on
    /// `RingServer`, `ByteRing` and `SgRing`).
    pub fn register_plane(&self, provider: PlaneProvider) {
        self.inner
            .lock()
            .expect("registry lock")
            .planes
            .push(provider);
    }

    /// Registers a control-plane provider (see
    /// [`crate::ctl::ApiRouter::provider`]).
    pub fn register_ctl(&self, provider: CtlProvider) {
        self.inner.lock().expect("registry lock").ctl.push(provider);
    }

    /// Polls every provider and merges everything into one snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry lock");
        Snapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            enabled: TELEMETRY_ENABLED,
            planes: inner.planes.iter().map(|p| p()).collect(),
            ctl: inner.ctl.iter().map(|p| p()).collect(),
            tracer_dropped: tracer().dropped_events(),
        }
    }
}

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
        let s = h.summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        assert_eq!(s.count, 60);
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
    fn trace_buffer_drops_oldest_first() {
        let mut b = TraceBuffer::with_capacity(3);
        for i in 0..5u64 {
            b.push(TraceEvent {
                ts: i,
                kind: "e",
                a: i,
                b: 0,
            });
        }
        assert_eq!(b.dropped_events(), 2);
        let (events, dropped) = b.drain();
        assert_eq!(dropped, 2);
        assert_eq!(
            events.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "survivors are the newest, oldest were evicted first"
        );
        assert!(b.is_empty());
    }

    #[test]
    fn chrome_export_is_balanced_json() {
        let t = Tracer {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(TracerInner {
                buf: TraceBuffer::with_capacity(0),
                calib: None,
            }),
        };
        t.enable(16);
        t.record("fused_run", 1, 0);
        t.record("ctl_flip", 2, 7);
        let json = t.export_chrome_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("fused_run"));
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
