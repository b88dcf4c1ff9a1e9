//! The configless control plane: per-API break-even routing and online
//! responder autosizing.
//!
//! Without this module, every lever that decides where a call's break-even
//! point falls — responder pool bounds and hot-vs-SDK routing — is a
//! hand-set constant.
//! This module closes the loop the way *SGX Switchless Calls Made
//! Configless* does: the telemetry the data plane already produces (per-API
//! cycles/call, useful-work poll ratios, doze wake counts)
//! feeds two controllers that move those knobs online.
//!
//! * [`ApiRouter`] — measures each API's observed cycles/call under the
//!   transports it may ride ([`Transport::Sdk`], [`Transport::Hot`]) and
//!   routes each call site to whichever side of its measured break-even it
//!   sits on. The
//!   paper's break-even argument is priced directly into the score: every
//!   switchless transport pays a *standby tax* proportional to the API's
//!   observed inter-arrival gap (a dedicated responder core burns cycles
//!   between calls), so a low-rate API demotes itself back to the SDK
//!   fallback exactly when `rate x (sdk - hot) cycles` stops covering the
//!   core it keeps busy.
//! * [`AutoSizer`] — resizes the responder pool's active target from a
//!   worker-efficiency metric (the useful-work poll ratio the governor
//!   already exports), inside [`crate::ResponderPolicy::auto`]-style
//!   bounds. It sizes workers, not batches: one ticket is one call.
//!
//! Both halves are **hysteretic** — flips require a margin, a minimum
//! sample count, and a cooldown, so a stationary workload converges to a
//! stable routing table with a bounded number of flips — and **observable**:
//! every decision bumps a [`CtlStats`] counter, emits a `ctl_*` trace
//! event, and is exported as `hotcalls_ctl_*` Prometheus lines through the
//! telemetry snapshot's `ctl` section. Nothing configures either half:
//! their time constants are the private constants below.
//!
//! [`ChunkSizer`] stands apart from the [`Controller`]: a one-way ratchet
//! that halves a streaming chunk while the EPC's paging bill per streamed
//! byte stays high.
//!
//! Every input here is handed in by the caller — cycles per call (RDTSC
//! or a simulator clock), a [`RingStats`] snapshot, paging counters — so
//! the decisions run the same in every build: the `telemetry-off` feature
//! compiles out the trace events, not the routing and sizing.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::error::{HotCallError, Result};
use crate::telemetry::{trace, RingStats};

/// The transports a call site can ride, in break-even order of the
/// paper's Table 1: the SDK fallback costs thousands of cycles but keeps
/// no core busy; the switchless transport costs hundreds but stands a
/// responder up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Transport {
    /// The plain SDK ocall/ecall — no responder core on standby.
    Sdk = 0,
    /// A per-call switchless submission through the ring.
    Hot = 1,
}

impl Transport {
    /// Every transport, in enum order.
    pub const ALL: [Transport; 2] = [Transport::Sdk, Transport::Hot];

    /// Census/Prometheus label.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Sdk => "sdk",
            Transport::Hot => "hot",
        }
    }

    /// Inverse of `as u8`; the slot stores nothing else.
    fn from_u8(v: u8) -> Transport {
        Transport::ALL[usize::from(v)]
    }
}

/// Observations a transport needs before its estimate is trusted in a
/// routing decision.
const MIN_SAMPLES: u64 = 8;
/// A challenger transport must beat the incumbent's score by this factor
/// to win a flip (hysteresis: 1.0 flips on any delta and oscillates on
/// noise).
const FLIP_MARGIN: f64 = 1.15;
/// Routing decisions are evaluated every this many observations of an API
/// (decisions off the hot path).
const DECIDE_EVERY: u64 = 32;
/// Minimum observations between two flips of the same API — the
/// bounded-flip-rate guarantee.
const COOLDOWN: u64 = 128;
/// Every this many calls, one call is routed over a non-current transport
/// so estimates of the roads not taken stay fresh.
const EXPLORE_EVERY: u64 = 64;
/// EWMA smoothing factor for cycles/call and inter-arrival estimates.
const EWMA_ALPHA: f64 = 0.125;
/// The standby tax: the fraction of an API's inter-arrival gap charged to
/// every switchless transport's score, pricing the responder core the
/// transport keeps on call. The break-even this induces is the paper's:
/// switchless wins iff `sdk - hot > STANDBY_FRACTION x inter-arrival`,
/// i.e. iff the call rate is high enough to pay for the standing core.
const STANDBY_FRACTION: f64 = 0.05;

/// Paging cycles per streamed byte above which the chunk sizer halves the
/// chunk.
const CHUNK_SHRINK_ABOVE: f64 = 0.5;
/// The chunk sizer's floor is the max chunk divided by this.
const CHUNK_FLOOR_DIVISOR: usize = 16;
/// Windows the chunk sizer holds still after a move: the paging counters
/// need a window at the new size (the post-shrink refault transient has
/// to drain) before they mean anything.
const CHUNK_HOLD_WINDOWS: u32 = 2;

/// The EPC-aware streaming chunk sizer, a one-way ratchet. The rule is
/// the bandwidth analog of the router's break-even: a streamed chunk that
/// fits the resident EPC costs only its marshalling, while one that
/// pushes the enclave's working set past the paging cliff pays EWB/ELDU
/// per byte. Fed each window's paging-cycle bill and byte count, the
/// sizer starts at the max chunk and halves it while the bill exceeds
/// 0.5 cycles per streamed byte, down to a floor of a sixteenth of the
/// max, holding two windows after each move. It never grows: a probed
/// cliff is never re-entered.
#[derive(Debug)]
pub struct ChunkSizer {
    chunk: usize,
    floor: usize,
    hold: u32,
    shrinks: u64,
}

impl ChunkSizer {
    /// A sizer starting at `max_chunk` bytes.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for a zero `max_chunk`.
    pub fn new(max_chunk: usize) -> Result<Self> {
        if max_chunk == 0 {
            return Err(HotCallError::InvalidConfig(
                "chunk sizer needs a positive max chunk",
            ));
        }
        Ok(ChunkSizer {
            chunk: max_chunk,
            floor: (max_chunk / CHUNK_FLOOR_DIVISOR).max(1),
            hold: 0,
            shrinks: 0,
        })
    }

    /// The chunk size the next submission should use.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk
    }

    /// Halvings so far.
    pub fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Reports one streamed window: `paging_cycles` charged by the EPC
    /// while `bytes` moved. Returns the new chunk size if the window
    /// halved it, `None` otherwise. Zero-byte windows are ignored (no
    /// rate to read) and do not count toward a hold.
    pub fn observe(&mut self, paging_cycles: u64, bytes: u64) -> Option<usize> {
        if bytes == 0 {
            return None;
        }
        if self.hold > 0 {
            self.hold -= 1;
            return None;
        }
        if paging_cycles as f64 / bytes as f64 <= CHUNK_SHRINK_ABOVE || self.chunk == self.floor {
            return None;
        }
        self.chunk = (self.chunk / 2).max(self.floor);
        self.shrinks += 1;
        self.hold = CHUNK_HOLD_WINDOWS;
        trace("ctl_chunk_resize", self.chunk as u64, paging_cycles);
        Some(self.chunk)
    }
}

/// Handle to one registered API in the router's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiId(usize);

/// Atomic f64 cell (bit-cast storage). Updates are plain load/store —
/// concurrent observers may lose an EWMA step, which only delays
/// convergence; the decision layer re-reads under its own cadence.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// One API's routing state: per-transport cycle estimates plus the flip
/// bookkeeping.
#[derive(Debug)]
struct ApiSlot {
    name: String,
    allowed: Vec<Transport>,
    current: AtomicU8,
    /// Observations so far (drives the decide/explore cadences).
    observes: AtomicU64,
    /// `observes` value at the last flip (cooldown baseline).
    last_flip_at: AtomicU64,
    flips: AtomicU64,
    /// EWMA cycles/call per transport, indexed by `Transport as u8`.
    ewma: [AtomicF64; 2],
    samples: [AtomicU64; 2],
    /// EWMA of the cycle gap between consecutive observations — the
    /// inverse call rate the standby tax prices.
    interarrival: AtomicF64,
    /// Stamp of the previous observation (0 = none yet).
    last_stamp: AtomicU64,
}

impl ApiSlot {
    fn current(&self) -> Transport {
        Transport::from_u8(self.current.load(Ordering::Relaxed))
    }
}

/// Counter snapshot of everything the controller has decided so far.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtlStats {
    /// Routing decisions evaluated (most conclude "stay").
    pub decisions: u64,
    /// Transport flips taken across all APIs.
    pub flips: u64,
    /// Flips *to* [`Transport::Sdk`] — low-rate APIs priced off the
    /// switchless path.
    pub sdk_demotions: u64,
    /// Flips *from* [`Transport::Sdk`] back onto a switchless transport.
    pub promotions: u64,
    /// Calls deliberately routed off the current transport to refresh a
    /// stale estimate.
    pub explore_probes: u64,
    /// Sizer ticks evaluated.
    pub ticks: u64,
    /// Active-responder target raises issued by the sizer.
    pub grows: u64,
    /// Active-responder target cuts issued by the sizer.
    pub shrinks: u64,
}

/// One API's row in the control plane's telemetry export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtlRoute {
    /// API name as registered.
    pub api: String,
    /// Transport currently routed to (label form).
    pub transport: String,
    /// EWMA cycles/call on the current transport (0 before any sample).
    pub ewma_cycles: f64,
    /// Observations of this API so far.
    pub observes: u64,
    /// Flips this API has taken.
    pub flips: u64,
}

/// The control plane's section of a telemetry snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtlTelemetry {
    /// Registered controller name.
    pub name: String,
    /// Decision counters.
    pub stats: CtlStats,
    /// Current routing table, one row per API.
    pub routes: Vec<CtlRoute>,
}

/// The per-API break-even router.
///
/// Register each API once with its default transport and the set it may
/// ride; on the hot path, ask [`ApiRouter::route`] where this call goes
/// and report what it cost with [`ApiRouter::observe`]. Decisions run
/// every 32nd observation of an API, off the per-call path.
///
/// # Examples
///
/// ```
/// use hotcalls::ctl::{ApiRouter, Transport};
///
/// let mut router = ApiRouter::new();
/// let read = router.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
/// let t = router.route(read);
/// router.observe(read, t, 620, 1_000);
/// assert_eq!(router.current(read), Transport::Hot);
/// ```
#[derive(Debug)]
pub struct ApiRouter {
    slots: Vec<ApiSlot>,
    decisions: AtomicU64,
    flips: AtomicU64,
    sdk_demotions: AtomicU64,
    promotions: AtomicU64,
    explore_probes: AtomicU64,
}

impl Default for ApiRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl ApiRouter {
    /// An empty router.
    pub fn new() -> Self {
        ApiRouter {
            slots: Vec::new(),
            decisions: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            sdk_demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            explore_probes: AtomicU64::new(0),
        }
    }

    /// Registers an API with its starting transport and the transports the
    /// router may move it between. `default` is added to `allowed` if
    /// missing. Registration happens at setup time, before the router is
    /// shared.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        default: Transport,
        allowed: &[Transport],
    ) -> ApiId {
        let mut allowed = allowed.to_vec();
        if !allowed.contains(&default) {
            allowed.insert(0, default);
        }
        self.slots.push(ApiSlot {
            name: name.into(),
            allowed,
            current: AtomicU8::new(default as u8),
            observes: AtomicU64::new(0),
            last_flip_at: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            ewma: Default::default(),
            samples: Default::default(),
            interarrival: AtomicF64::default(),
            last_stamp: AtomicU64::new(0),
        });
        ApiId(self.slots.len() - 1)
    }

    /// Where this call goes: the API's current transport, except for the
    /// periodic exploration probe that keeps the other transports'
    /// estimates fresh.
    pub fn route(&self, api: ApiId) -> Transport {
        let slot = &self.slots[api.0];
        let cur = slot.current();
        if slot.allowed.len() > 1 {
            let n = slot.observes.load(Ordering::Relaxed);
            if n % EXPLORE_EVERY == EXPLORE_EVERY - 1 {
                let probe = slot.allowed[(n / EXPLORE_EVERY) as usize % slot.allowed.len()];
                if probe != cur {
                    self.explore_probes.fetch_add(1, Ordering::Relaxed);
                    return probe;
                }
            }
        }
        cur
    }

    /// Reports one completed call: it rode `transport`, cost `cycles`, and
    /// finished at monotonic stamp `now` (any cycle base works — RDTSC or
    /// a simulator clock — as long as one caller is consistent). Every
    /// 32nd observation re-evaluates the API's route.
    pub fn observe(&self, api: ApiId, transport: Transport, cycles: u64, now: u64) {
        let slot = &self.slots[api.0];
        let t = transport as usize;
        let prev = slot.ewma[t].get();
        let n = slot.samples[t].fetch_add(1, Ordering::Relaxed);
        slot.ewma[t].set(if n == 0 {
            cycles as f64
        } else {
            prev + EWMA_ALPHA * (cycles as f64 - prev)
        });
        let last = slot.last_stamp.swap(now, Ordering::Relaxed);
        if last != 0 && now > last {
            let gap = (now - last) as f64;
            let prev_ia = slot.interarrival.get();
            slot.interarrival.set(if prev_ia == 0.0 {
                gap
            } else {
                prev_ia + EWMA_ALPHA * (gap - prev_ia)
            });
        }
        let observes = slot.observes.fetch_add(1, Ordering::Relaxed) + 1;
        if observes.is_multiple_of(DECIDE_EVERY) {
            self.decide(api.0, observes);
        }
    }

    /// A transport's routing score: EWMA cycles/call, plus the standby tax
    /// on switchless transports. Lower is better; `None` until the
    /// transport has enough samples to be trusted.
    fn score(slot: &ApiSlot, t: Transport) -> Option<f64> {
        if slot.samples[t as usize].load(Ordering::Relaxed) < MIN_SAMPLES {
            return None;
        }
        let standby = if t == Transport::Sdk {
            0.0
        } else {
            STANDBY_FRACTION * slot.interarrival.get()
        };
        Some(slot.ewma[t as usize].get() + standby)
    }

    fn decide(&self, index: usize, observes: u64) {
        let slot = &self.slots[index];
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let cur = slot.current();
        let best = slot
            .allowed
            .iter()
            .filter_map(|&t| Self::score(slot, t).map(|s| (t, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((best, best_score)) = best else {
            return;
        };
        if best == cur {
            return;
        }
        if observes.saturating_sub(slot.last_flip_at.load(Ordering::Relaxed)) < COOLDOWN {
            return;
        }
        // An unmeasured incumbent loses to any measured challenger; a
        // measured one must be beaten by the margin.
        if let Some(cur_score) = Self::score(slot, cur) {
            if cur_score <= best_score * FLIP_MARGIN {
                return;
            }
        }
        if slot
            .current
            .compare_exchange(cur as u8, best as u8, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.last_flip_at.store(observes, Ordering::Relaxed);
        slot.flips.fetch_add(1, Ordering::Relaxed);
        self.flips.fetch_add(1, Ordering::Relaxed);
        if best == Transport::Sdk {
            self.sdk_demotions.fetch_add(1, Ordering::Relaxed);
        }
        if cur == Transport::Sdk {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        trace("ctl_flip", index as u64, best as u8 as u64);
    }

    /// The API's current transport (no exploration).
    pub fn current(&self, api: ApiId) -> Transport {
        self.slots[api.0].current()
    }

    /// Total flips taken by one API (the convergence-test observable).
    pub fn flips_of(&self, api: ApiId) -> u64 {
        self.slots[api.0].flips.load(Ordering::Relaxed)
    }

    /// The current routing table, one row per registered API.
    pub fn routes(&self) -> Vec<CtlRoute> {
        self.slots
            .iter()
            .map(|slot| {
                let cur = slot.current();
                CtlRoute {
                    api: slot.name.clone(),
                    transport: cur.label().to_string(),
                    ewma_cycles: slot.ewma[cur as usize].get(),
                    observes: slot.observes.load(Ordering::Relaxed),
                    flips: slot.flips.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// Useful-work poll ratio above which the sizer grows the active set (the
/// workers are all earning their keep and backlog is building).
const SIZER_EFF_HIGH: f64 = 0.75;
/// Ratio below which the sizer shrinks the active set (workers mostly poll
/// empty — the Configless paper's "worker not efficient" rule).
const SIZER_EFF_LOW: f64 = 0.20;
/// Ticks to hold still after a resize (hysteresis: the plane needs a
/// window at the new size before its efficiency means anything).
const SIZER_COOLDOWN_TICKS: u32 = 2;

/// Window counters one tick compares against the last.
#[derive(Debug, Default, Clone, Copy)]
struct SizerWindow {
    busy: u64,
    idle: u64,
}

/// The online sizer: periodically fed a [`RingStats`] snapshot, it
/// returns resize decisions derived from the delta since its previous
/// tick. Single-owner by design (the driver loop that ticks it); the
/// [`Controller`] wraps it in a mutex for shared use.
#[derive(Debug)]
pub struct AutoSizer {
    prev: Option<SizerWindow>,
    cooldown: u32,
    ticks: u64,
    grows: u64,
    shrinks: u64,
}

impl Default for AutoSizer {
    fn default() -> Self {
        Self::new()
    }
}

impl AutoSizer {
    /// A sizer with no baseline window yet.
    pub fn new() -> Self {
        AutoSizer {
            prev: None,
            cooldown: 0,
            ticks: 0,
            grows: 0,
            shrinks: 0,
        }
    }

    /// One control tick over the plane's current [`RingStats`]: the new
    /// active responder target to push into the governor, or `None` to
    /// hold. The first tick only establishes the baseline window.
    pub fn tick(&mut self, rs: &RingStats) -> Option<usize> {
        self.ticks += 1;
        let window = SizerWindow {
            busy: rs.totals.busy_polls,
            idle: rs.totals.idle_polls,
        };
        let prev = self.prev.replace(window)?;
        let busy = window.busy.saturating_sub(prev.busy);
        let idle = window.idle.saturating_sub(prev.idle);
        let polls = busy + idle;
        let backlog: usize = rs.shards.iter().map(|s| s.occupancy).sum();
        let active = rs.governor.active;

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if polls == 0 {
            return None;
        }
        let efficiency = busy as f64 / polls as f64;
        if efficiency > SIZER_EFF_HIGH && backlog > active && active < rs.governor.max {
            self.grows += 1;
            self.cooldown = SIZER_COOLDOWN_TICKS;
            Some(active + 1)
        } else if efficiency < SIZER_EFF_LOW && backlog == 0 && active > rs.governor.min {
            // Low poll efficiency alone is not idleness: responders
            // blocked inside io-bound handlers poll nothing while the
            // ring holds work, and shrinking then thrashes against the
            // governor's raise path. Only a drained plane shrinks.
            self.shrinks += 1;
            self.cooldown = SIZER_COOLDOWN_TICKS;
            Some(active - 1)
        } else {
            None
        }
    }
}

/// The control plane: one [`ApiRouter`] plus one [`AutoSizer`], sharable
/// across threads, exporting a [`CtlTelemetry`] section.
///
/// Build it at setup time ([`Controller::auto`] + [`Controller::register`]),
/// then share it (`Arc`) with the call sites: `route`/`observe` per call,
/// [`Controller::tick`] periodically from whichever thread drives the
/// plane, with the responder target it returns pushed into the server's
/// `set_active` surface.
#[derive(Debug)]
pub struct Controller {
    router: ApiRouter,
    sizer: Mutex<AutoSizer>,
}

impl Controller {
    /// A controller with an empty routing table and a fresh sizer.
    pub fn auto() -> Self {
        Controller {
            router: ApiRouter::new(),
            sizer: Mutex::new(AutoSizer::new()),
        }
    }

    /// Registers an API (setup time — see [`ApiRouter::register`]).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        default: Transport,
        allowed: &[Transport],
    ) -> ApiId {
        self.router.register(name, default, allowed)
    }

    /// Routes one call (see [`ApiRouter::route`]).
    pub fn route(&self, api: ApiId) -> Transport {
        self.router.route(api)
    }

    /// Reports one call's cost (see [`ApiRouter::observe`]).
    pub fn observe(&self, api: ApiId, transport: Transport, cycles: u64, now: u64) {
        self.router.observe(api, transport, cycles, now);
    }

    /// One sizer tick over the plane's stats: the new active responder
    /// target, or `None` to hold (see [`AutoSizer::tick`]).
    pub fn tick(&self, rs: &RingStats) -> Option<usize> {
        let target = self.sizer.lock().expect("sizer lock").tick(rs);
        if let Some(n) = target {
            trace("ctl_resize", n as u64, rs.governor.active as u64);
        }
        target
    }

    /// Decision counters so far.
    pub fn stats(&self) -> CtlStats {
        let sizer = self.sizer.lock().expect("sizer lock");
        CtlStats {
            decisions: self.router.decisions.load(Ordering::Relaxed),
            flips: self.router.flips.load(Ordering::Relaxed),
            sdk_demotions: self.router.sdk_demotions.load(Ordering::Relaxed),
            promotions: self.router.promotions.load(Ordering::Relaxed),
            explore_probes: self.router.explore_probes.load(Ordering::Relaxed),
            ticks: sizer.ticks,
            grows: sizer.grows,
            shrinks: sizer.shrinks,
        }
    }

    /// This controller's telemetry section right now.
    pub fn telemetry(&self, name: &str) -> CtlTelemetry {
        CtlTelemetry {
            name: name.to_string(),
            stats: self.stats(),
            routes: self.router.routes(),
        }
    }

    /// A provider for [`crate::TelemetryRegistry::register_ctl`], holding
    /// the controller alive.
    pub fn provider(self: &Arc<Self>, name: impl Into<String>) -> crate::telemetry::CtlProvider {
        let ctl = Arc::clone(self);
        let name = name.into();
        Box::new(move || ctl.telemetry(&name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_way_router() -> (ApiRouter, ApiId) {
        let mut r = ApiRouter::new();
        let id = r.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        (r, id)
    }

    /// Feed `n` observations with fixed per-transport costs at a fixed
    /// inter-arrival gap, honoring the router's own routing choices.
    fn drive(r: &ApiRouter, id: ApiId, n: u64, gap: u64, cost: impl Fn(Transport) -> u64) {
        let mut now = 1;
        for _ in 0..n {
            let t = r.route(id);
            now += gap;
            r.observe(id, t, cost(t), now);
        }
    }

    #[test]
    fn fast_transport_wins_and_stays() {
        let (r, id) = two_way_router();
        // Hot is 600 cycles, SDK 8_200, calls arrive every 2_000 cycles:
        // the standby tax (5% of 2_000 = 100) nowhere near closes the gap.
        drive(&r, id, 2_000, 2_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Hot);
        assert_eq!(r.flips_of(id), 0, "stationary workload must not flip");
    }

    #[test]
    fn low_rate_api_demotes_to_sdk_and_promotes_back() {
        let (r, id) = two_way_router();
        // Sparse calls: one every 400_000 cycles. The standby tax is
        // 20_000 cycles/call — far more than the 7_600 the hot path saves,
        // so the router prices this API back onto the SDK. (Exploration
        // probes the SDK arm every ~2·explore_every calls, so it takes
        // ~min_samples·128 observations to trust the estimate.)
        drive(&r, id, 2_000, 400_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Sdk);
        let stats_flips = r.flips_of(id);
        assert!(stats_flips >= 1);
        // The rate recovers: calls every 2_000 cycles again. Exploration
        // keeps refreshing the hot estimate, so the router promotes back.
        drive(&r, id, 4_000, 2_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Hot);
    }

    #[test]
    fn flip_count_is_bounded_under_stationary_load() {
        let (r, id) = two_way_router();
        drive(&r, id, 50_000, 3_000, |t| match t {
            Transport::Sdk => 8_200,
            Transport::Hot => 620,
        });
        // Hysteresis (margin + cooldown) bounds flips to the initial
        // settling, never an oscillation.
        assert!(r.flips_of(id) <= 2, "flips: {}", r.flips_of(id));
    }

    #[test]
    fn exploration_probes_are_periodic_and_counted() {
        let (r, id) = two_way_router();
        drive(&r, id, 1_000, 2_000, |_| 600);
        let stats_probes = r.explore_probes.load(Ordering::Relaxed);
        assert!(stats_probes > 0, "exploration must sample the other road");
        // Both transports accumulated samples.
        assert!(r.slots[0].samples[Transport::Sdk as usize].load(Ordering::Relaxed) > 0);
        assert!(r.slots[0].samples[Transport::Hot as usize].load(Ordering::Relaxed) > 0);
    }

    fn stats_with(busy: u64, idle: u64, occupancy: usize, active: usize) -> RingStats {
        use crate::telemetry::{GovernorStats, HotCallStats, ShardStats};
        RingStats {
            totals: HotCallStats {
                calls: busy,
                busy_polls: busy,
                idle_polls: idle,
                ..HotCallStats::default()
            },
            governor: GovernorStats {
                active,
                min: 1,
                max: 4,
                ..GovernorStats::default()
            },
            shards: vec![ShardStats {
                occupancy,
                ..ShardStats::default()
            }],
        }
    }

    #[test]
    fn sizer_grows_on_saturation_and_shrinks_on_idle() {
        let mut sizer = AutoSizer::new();
        // First tick is the baseline.
        assert_eq!(sizer.tick(&stats_with(0, 0, 0, 2)), None);
        // Saturated window: all polls busy, backlog beyond the active set.
        assert_eq!(sizer.tick(&stats_with(10_000, 10, 8, 2)), Some(3));
        // Cooldown holds the next two ticks still even under saturation.
        assert_eq!(sizer.tick(&stats_with(30_000, 20, 8, 3)), None);
        assert_eq!(sizer.tick(&stats_with(60_000, 30, 8, 3)), None);
        // Idle window: polls overwhelmingly empty -> shrink.
        assert_eq!(sizer.tick(&stats_with(60_010, 1_000_000, 0, 3)), Some(2));
    }

    #[test]
    fn chunk_sizer_is_a_one_way_ratchet() {
        const MAX: usize = 1 << 20;
        // 600 paging cycles per 1 000 bytes: over the 0.5 watermark.
        const THRASH: u64 = 600;
        let mut sizer = ChunkSizer::new(MAX).unwrap();
        assert_eq!(sizer.chunk_bytes(), MAX, "starts at max");
        // One window per row: its paging cycles and bytes, the chunk after
        // it, and the rule the row pins. `observe` must answer the new
        // chunk exactly when it moved.
        let table: &[(u64, u64, usize, &str)] = &[
            (THRASH, 1_000, MAX / 2, "a window above 0.5 halves"),
            (THRASH, 1_000, MAX / 2, "hold 1 of 2"),
            (10_000, 0, MAX / 2, "a zero-byte window is no hold"),
            (THRASH, 1_000, MAX / 2, "hold 2 of 2"),
            (THRASH, 1_000, MAX / 4, "halves right after the hold"),
            (0, 1_000, MAX / 4, "hold 1 of 2"),
            (0, 1_000, MAX / 4, "hold 2 of 2"),
            (0, 1_000, MAX / 4, "a zero-paging window never grows"),
            (500, 1_000, MAX / 4, "exactly 0.5 is not above it"),
            (THRASH, 1_000, MAX / 8, "halves"),
            (THRASH, 1_000, MAX / 8, "hold 1 of 2"),
            (THRASH, 1_000, MAX / 8, "hold 2 of 2"),
            (THRASH, 1_000, MAX / 16, "halves onto the floor"),
            (THRASH, 1_000, MAX / 16, "hold 1 of 2"),
            (THRASH, 1_000, MAX / 16, "hold 2 of 2"),
            (5_000_000, 1_000, MAX / 16, "the floor holds"),
            (5_000_000, 1_000, MAX / 16, "and stays"),
        ];
        for (i, &(paging, bytes, chunk, rule)) in table.iter().enumerate() {
            let moved = (chunk != sizer.chunk_bytes()).then_some(chunk);
            assert_eq!(sizer.observe(paging, bytes), moved, "row {i}: {rule}");
            assert_eq!(sizer.chunk_bytes(), chunk, "row {i}: {rule}");
        }
        assert_eq!(sizer.shrinks(), 4);
        let mut tiny = ChunkSizer::new(2).unwrap();
        assert_eq!(tiny.observe(THRASH, 1_000), Some(1), "floor of 1, not 0");
        assert!(ChunkSizer::new(0).is_err(), "a zero max is refused");
    }

    #[test]
    fn controller_counts_decisions_and_exports_routes() {
        let mut ctl = Controller::auto();
        let id = ctl.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        let t = ctl.route(id);
        ctl.observe(id, t, 620, 1_000);
        ctl.tick(&stats_with(0, 0, 0, 1));
        let tel = ctl.telemetry("unit");
        assert_eq!(tel.name, "unit");
        assert_eq!(tel.routes.len(), 1);
        assert_eq!(tel.routes[0].api, "read");
        assert_eq!(tel.stats.ticks, 1);
        assert_eq!(tel.routes[0].observes, 1);
    }
}
