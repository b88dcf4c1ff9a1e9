//! A queued HotCalls variant: a multi-slot submission ring with an
//! adaptive responder pool, pipelined completions, and call bundling.
//!
//! The paper's single mailbox serializes requesters; §4.2 observes that
//! responder utilization "can potentially be improved by sharing the
//! responder thread with several requesters". [`RingServer`] realizes
//! that: a fixed ring of request slots lets several requesters have calls
//! in flight simultaneously while one *or more* responders drain them in
//! order. Each slot is its own little mailbox (CLAIM → SUBMIT → DONE) on
//! its own cache lines, so requesters never contend on a single word the
//! way the plain channel does, and payloads move through lock-free
//! `UnsafeCell`s guarded by the slot state machine (see [`super::slot`]).
//!
//! Three mechanisms pipeline the plane beyond the paper's synchronous
//! protocol:
//!
//! * **Async completions** — [`RingRequester::submit`] returns a
//!   [`Ticket`] immediately; [`RingRequester::wait`],
//!   [`RingRequester::try_wait`] and [`RingRequester::wait_any`] reap
//!   completions in any order, so one requester keeps many slots in
//!   flight and a blocked handler no longer serializes the ring.
//! * **Call bundles** — a [`Bundle`] packs N small calls into *one* ring
//!   submission serviced by *one* responder dispatch: one slot claim, one
//!   head CAS, at most one doze wakeup for the whole bundle.
//! * **Adaptive governor** — [`RingServer::spawn_adaptive`] replaces the
//!   static pool size with a [`ResponderPolicy`]`{min, max,
//!   target_occupancy}`: requesters raise the active-responder target
//!   when the ring backs up (or their in-flight calls age), and the top
//!   active responder demotes itself and *parks* after a useful-work
//!   drought. Parked responders sleep on a doze that per-call wakeups
//!   never touch, so surplus pollers stop burning the cores the
//!   requesters need.
//!
//! Responders claim work in batches: each scans up to
//! [`HotCallConfig::drain_batch`] contiguous submitted slots from `tail`
//! and takes ownership of the whole run with one CAS on `tail` (see
//! [`super::pool`]), amortizing coordination the way batched switchless
//! draining does in IO-heavy enclave workloads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{FusedMode, GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, trace, AtomicHist, LaneTelemetry, PlaneProvider, PlaneTelemetry, RingStats,
};

use super::pool;
use super::slot::{
    AbandonBoard, Backoff, CachePadded, CallSlot, Doze, ReapCells, StatCell, DONE, EMPTY,
};
use super::CallTable;

/// Grace polls a waiter grants the shutdown sweep before giving up on a
/// slot that will never complete (its payload is freed by the slot Drop).
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

/// Poll interval at which a waiter treats its in-flight call as "aging"
/// and nudges the governor to raise the active-responder target.
const AGE_POLLS_PER_RAISE: u32 = 4_096;

/// Poll interval at which a deadline-bounded wait re-reads the clock.
/// `Instant::now` is a vDSO call — cheap, but not spin-loop cheap.
const DEADLINE_CHECK_POLLS: u32 = 64;

/// What one ring slot carries callee-bound: a single call's request (the
/// call id rides in the slot's id word) or a bundle of `(id, request)`
/// pairs submitted as one unit.
pub(super) enum ReqEnvelope<Req> {
    One(Req),
    Bundle(Vec<(u32, Req)>),
}

/// What comes back: the lone response, or one result per bundled call in
/// submission order. Per-call failures (unknown id) stay inside the
/// bundle; a slot-level `Err` means the transport itself failed.
pub(super) enum RespEnvelope<Resp> {
    One(Resp),
    Bundle(Vec<Result<Resp>>),
}

pub(super) type RingSlot<Req, Resp> = CallSlot<ReqEnvelope<Req>, RespEnvelope<Resp>>;

/// The adaptive pool's control block. For static pools (`min == max`) the
/// governor is inert: no requester or responder ever branches into it.
pub(super) struct GovernorState {
    pub(super) policy: ResponderPolicy,
    /// Responders with index below this are active; the rest park. Only
    /// moves inside `[min, max]`.
    pub(super) active_target: CachePadded<AtomicUsize>,
    /// Where parked responders sleep. Separate from the work doze on
    /// purpose: per-call wakeups must never reach a parked responder —
    /// that churn is exactly the oversubscription regression the governor
    /// exists to fix.
    pub(super) park_doze: Doze,
    /// Responders currently parked (gauge).
    pub(super) parked_now: AtomicUsize,
    /// Park decisions taken (a responder left the active set).
    pub(super) parks: AtomicU64,
    /// Wake decisions taken (the target was raised on backlog).
    pub(super) wakes: AtomicU64,
}

impl GovernorState {
    pub(super) fn new(policy: ResponderPolicy) -> Self {
        // Start wide: all `max` responders active, and let idleness park
        // the surplus. Cold-start backlog never waits on a governor
        // decision this way; quiet periods converge to `min` within one
        // park threshold per surplus responder.
        GovernorState {
            policy,
            active_target: CachePadded::new(AtomicUsize::new(policy.max)),
            park_doze: Doze::new(),
            parked_now: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Is there anything to govern?
    #[inline]
    pub(super) fn adaptive(&self) -> bool {
        self.policy.is_adaptive()
    }

    /// Raises the active target by one (up to `max`) and wakes the parked
    /// responders so the newly admitted one starts draining. Called by
    /// requesters when they observe backlog or in-flight age.
    pub(super) fn try_raise(&self) -> bool {
        let t = self.active_target.load(Ordering::Relaxed);
        if t >= self.policy.max {
            return false;
        }
        if self
            .active_target
            .compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.wakes.fetch_add(1, Ordering::Relaxed);
        trace("governor_raise", (t + 1) as u64, self.policy.max as u64);
        // Wake *all* parked responders: each re-checks its index against
        // the new target and the surplus re-parks. notify_one could hand
        // the wake to a responder that stays parked, stranding the one
        // the raise admitted.
        self.park_doze.wake_all();
        true
    }

    /// Lowers the active target by one. Only the *top* active responder
    /// (`index == target - 1`) may demote, so the active set stays the
    /// contiguous prefix `0..target` and parking is deterministic.
    pub(super) fn try_demote(&self, index: usize) -> bool {
        if index < self.policy.min {
            return false;
        }
        let t = self.active_target.load(Ordering::Relaxed);
        if t <= self.policy.min || index != t - 1 {
            return false;
        }
        let demoted = self
            .active_target
            .compare_exchange(t, t - 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if demoted {
            trace("governor_park", index as u64, (t - 1) as u64);
        }
        demoted
    }

    /// Sets the active target directly, clamped into `[min, max]`, and
    /// returns the value installed. The external control surface for the
    /// `ctl` sizer: responders notice the new target on their next poll —
    /// surplus ones park themselves, and a raise wakes the parked set so
    /// newly admitted responders start draining.
    pub(super) fn set_target(&self, n: usize) -> usize {
        let n = n.clamp(self.policy.min, self.policy.max);
        let prev = self.active_target.swap(n, Ordering::AcqRel);
        if n > prev {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            trace("governor_raise", n as u64, self.policy.max as u64);
            self.park_doze.wake_all();
        } else if n < prev {
            trace("governor_park", prev as u64, n as u64);
        }
        n
    }
}

impl core::fmt::Debug for GovernorState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GovernorState")
            .field("policy", &self.policy)
            .field("active", &self.active_target.load(Ordering::Relaxed))
            .field("parked", &self.parked_now.load(Ordering::Relaxed))
            .finish()
    }
}

pub(super) struct RingShared<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[RingSlot<Req, Resp>]>,
    /// The handler table. Responders clone the `Arc` at spawn; keeping it
    /// here as well lets a *requester* dispatch inline on the fused
    /// run-to-completion path without any handoff.
    pub(super) table: Arc<CallTable<Req, Resp>>,
    /// Next slot index a requester claims. Padded: requesters hammer this
    /// line; responders must not.
    pub(super) head: CachePadded<AtomicUsize>,
    /// Next slot index the responders service. Padded likewise.
    pub(super) tail: CachePadded<AtomicUsize>,
    pub(super) shutdown: AtomicBool,
    pub(super) doze: Doze,
    pub(super) governor: GovernorState,
    /// One padded statistics cell per responder; each responder writes
    /// only its own (plain stores, no shared RMW on the hot path).
    pub(super) responders: Box<[CachePadded<StatCell>]>,
    /// Completion → redeem latency (reap stage), one single-writer cell
    /// per requester handle.
    pub(super) reaps: ReapCells,
    /// Dropped-unredeemed ticket registry (see [`AbandonBoard`]): tickets
    /// hold a clone, claimants lapping onto a marked slot reap it.
    pub(super) abandon: Arc<AbandonBoard>,
    // Requester-side event counters; rare, so shared RMWs are fine.
    fallbacks: AtomicU64,
    wakeups: AtomicU64,
    /// Calls executed inline by requesters (fused run-to-completion).
    /// Shared `fetch_add` cells: requesters have no single-writer stat
    /// cell of their own, and the fused path only runs when the plane is
    /// quiet, so contention on these lines is structurally rare.
    pub(super) fused_runs: AtomicU64,
    pub(super) fused_fallbacks: AtomicU64,
}

impl<Req, Resp> RingShared<Req, Resp> {
    /// Slots currently between claim and service. `head` and `tail` are
    /// monotonic with `head >= tail` at every instant, but two separate
    /// loads can still see them "out of order" — the caller must load
    /// `tail` *before* `head` (then the head snapshot can only be newer,
    /// never older, than the tail snapshot) and this subtraction wraps
    /// instead of panicking as a second line of defense.
    pub(super) fn occupancy(head: usize, tail: usize) -> usize {
        head.wrapping_sub(tail)
    }

    fn snapshot(&self) -> HotCallStats {
        let fused_runs = self.fused_runs.load(Ordering::Relaxed);
        let mut s = HotCallStats {
            // Fused calls never pass through a responder cell, so the
            // plane-wide call count starts from them.
            calls: fused_runs,
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            idle_polls: 0,
            busy_polls: 0,
            fused_runs,
            fused_fallbacks: self.fused_fallbacks.load(Ordering::Relaxed),
        };
        for cell in self.responders.iter() {
            s.calls += cell.calls.load(Ordering::Relaxed);
            s.idle_polls += cell.idle_polls.load(Ordering::Relaxed);
            s.busy_polls += cell.busy_polls.load(Ordering::Relaxed);
        }
        s
    }

    /// Is the whole responder set out of the way (parked by the governor
    /// or dozing on the work doze)? While this holds, no responder core is
    /// spinning on the ring, so a requester executing inline steals
    /// nothing and saves the wake + cross-core transfer. The check is a
    /// heuristic — the service-ownership CAS is what keeps the fused path
    /// correct when a responder wakes mid-decision.
    pub(super) fn responders_quiescent(&self) -> bool {
        let parked = self.governor.parked_now.load(Ordering::Relaxed);
        let dozing = self.doze.sleepers.load(Ordering::Relaxed);
        parked + dozing >= self.responders.len()
    }

    fn governor_snapshot(&self) -> GovernorStats {
        GovernorStats {
            active: self.governor.active_target.load(Ordering::Relaxed),
            parked: self.governor.parked_now.load(Ordering::Relaxed),
            parks: self.governor.parks.load(Ordering::Relaxed),
            wakes: self.governor.wakes.load(Ordering::Relaxed),
            min: self.governor.policy.min,
            max: self.governor.policy.max,
        }
    }

    /// One [`LaneTelemetry`] row per responder cell.
    pub(super) fn lane_telemetry(&self) -> Vec<LaneTelemetry> {
        self.responders
            .iter()
            .enumerate()
            .map(|(lane, cell)| LaneTelemetry {
                lane,
                queue: cell.stages.queue.snapshot(),
                service: cell.stages.service.snapshot(),
            })
            .collect()
    }

    /// The plane's full telemetry view: counters plus per-lane stage
    /// histograms and the plane-wide reap histogram.
    pub(super) fn plane_telemetry(&self, name: &str, kind: &'static str) -> PlaneTelemetry {
        PlaneTelemetry {
            name: name.to_string(),
            kind,
            stats: RingStats::from_single(self.snapshot(), self.governor_snapshot()),
            lanes: self.lane_telemetry(),
            reap: self.reaps.snapshot(),
        }
    }
}

impl<Req, Resp> core::fmt::Debug for RingShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingShared")
            .field("capacity", &self.slots.len())
            .field("responders", &self.responders.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("governor", &self.governor)
            .finish()
    }
}

/// A running ring server: a pool of responder threads draining a
/// multi-slot submission ring in batches, optionally governed by a
/// [`ResponderPolicy`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn(table, 8, HotCallConfig::default());
/// let requester = server.requester();
/// assert_eq!(requester.call(inc, 9).unwrap(), 10);
/// ```
#[derive(Debug)]
pub struct RingServer<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    joins: Vec<JoinHandle<()>>,
}

impl<Req, Resp> RingServer<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Spawns a single responder over `table` with a ring of `capacity`
    /// slots (the original single-responder configuration).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn spawn(table: CallTable<Req, Resp>, capacity: usize, config: HotCallConfig) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self::spawn_pool(table, capacity, 1, config).expect("capacity and pool size validated")
    }

    /// Spawns a static pool of `n_responders` always-active threads
    /// draining one shared ring of `capacity` slots. Each responder
    /// claims up to [`HotCallConfig::drain_batch`] contiguous submissions
    /// per tail advance.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` or `n_responders` is
    /// zero.
    pub fn spawn_pool(
        table: CallTable<Req, Resp>,
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        Self::spawn_adaptive(
            table,
            capacity,
            ResponderPolicy::fixed(n_responders),
            config,
        )
    }

    /// Spawns an adaptive pool: `policy.max` responder threads of which
    /// between `policy.min` and `policy.max` are active at any moment.
    /// Requesters raise the active target when ring occupancy exceeds
    /// `policy.target_occupancy` (or their in-flight calls age without
    /// completing); the top active responder demotes itself and parks
    /// after `policy.park_after_idle_polls` polls without useful work.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` is zero or the policy
    /// or config fail their [`ResponderPolicy::validate`] /
    /// [`HotCallConfig::validate`] checks.
    pub fn spawn_adaptive(
        table: CallTable<Req, Resp>,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(HotCallError::InvalidConfig(
                "ring capacity must be positive",
            ));
        }
        policy.validate()?;
        config.validate()?;
        let n_responders = policy.max;
        let table = Arc::new(table);
        let shared = Arc::new(RingShared {
            slots: (0..capacity).map(|_| RingSlot::new()).collect(),
            table: Arc::clone(&table),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            shutdown: AtomicBool::new(false),
            doze: Doze::new(),
            governor: GovernorState::new(policy),
            responders: (0..n_responders)
                .map(|_| CachePadded::new(StatCell::default()))
                .collect(),
            reaps: ReapCells::default(),
            abandon: AbandonBoard::new(capacity),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
            fused_fallbacks: AtomicU64::new(0),
        });
        let joins = (0..n_responders)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let table = Arc::clone(&table);
                std::thread::Builder::new()
                    .name(format!("hotcalls-ring-responder-{index}"))
                    .spawn(move || pool::responder_loop(shared, table, index, config))
                    .expect("spawn ring responder")
            })
            .collect();
        Ok(RingServer {
            shared,
            config,
            joins,
        })
    }

    /// Creates a requester handle.
    pub fn requester(&self) -> RingRequester<Req, Resp> {
        RingRequester::new(Arc::clone(&self.shared), self.config)
    }

    /// Number of responder threads in the pool (active and parked).
    pub fn responders(&self) -> usize {
        self.shared.responders.len()
    }

    /// Statistics so far, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The governor's current shape and decision counters. For static
    /// pools `active == min == max` and the counters stay zero.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }

    /// Sets the active responder target directly (the `ctl` sizer's
    /// control surface), clamped into the policy's `[min, max]`, and
    /// returns the value installed. Responders converge on their next
    /// poll: surplus ones park, and a raise wakes the parked set. The
    /// requester-side backlog governor keeps running — it can still raise
    /// the target above what the sizer set if the ring backs up.
    pub fn set_active_responders(&self, n: usize) -> usize {
        self.shared.governor.set_target(n)
    }

    /// This plane's full telemetry view right now: counters plus per-lane
    /// queue/service histograms and the plane-wide reap histogram. The
    /// plane kind is `"single"` for a one-responder ring, `"pool"`
    /// otherwise.
    pub fn telemetry(&self, name: &str) -> crate::telemetry::PlaneTelemetry {
        self.shared.plane_telemetry(name, self.plane_kind())
    }

    /// A [`PlaneProvider`] for [`crate::telemetry::TelemetryRegistry`]:
    /// the registry polls it at snapshot time, so the snapshot is always
    /// current. The provider holds the plane's shared state alive.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        let shared = Arc::clone(&self.shared);
        let name = name.into();
        let kind = self.plane_kind();
        Box::new(move || shared.plane_telemetry(&name, kind))
    }

    fn plane_kind(&self) -> &'static str {
        if self.shared.responders.len() == 1 {
            "single"
        } else {
            "pool"
        }
    }

    /// Stops the responders and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl<Req, Resp> RingServer<Req, Resp> {
    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.doze.wake_all();
        self.shared.governor.park_doze.wake_all();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl<Req, Resp> Drop for RingServer<Req, Resp> {
    fn drop(&mut self) {
        if !self.joins.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// A handle submitting calls into the ring.
///
/// Give each thread its own clone. The handle is `Sync` and every method
/// takes `&self`, so sharing one by reference works and loses no call, but
/// the handle's reap-latency cell is single-writer: threads redeeming
/// through the same handle at once may drop reap *samples* from
/// `telemetry().reap` (never a call, never another counter).
#[derive(Debug)]
pub struct RingRequester<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    /// This handle's reap-stage cell; only this handle records into it.
    reap: Arc<AtomicHist>,
}

impl<Req, Resp> RingRequester<Req, Resp> {
    fn new(shared: Arc<RingShared<Req, Resp>>, config: HotCallConfig) -> Self {
        RingRequester {
            reap: shared.reaps.register(),
            shared,
            config,
        }
    }
}

impl<Req, Resp> Clone for RingRequester<Req, Resp> {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.shared), self.config)
    }
}

/// An in-flight call: redeem with [`RingRequester::wait`],
/// [`RingRequester::try_wait`] or [`RingRequester::wait_any`], or await
/// the future minted by the async submit paths (`hotcalls::aio`).
///
/// Dropping a ticket unredeemed *abandons* the call: the drop marks the
/// slot on the plane's [`AbandonBoard`], and the next claimant that laps
/// onto the completed slot reaps the stale response. The response value
/// is discarded, but the slot is released — a dropped ticket no longer
/// wedges the ring.
#[derive(Debug)]
#[must_use = "redeem the response by waiting, or drop to abandon the call"]
pub struct Ticket {
    pub(super) index: usize,
    /// The plane's abandonment registry; `None` once the ticket has been
    /// defused (redeemed through a wait path, so drop must not mark).
    pub(super) board: Option<Arc<AbandonBoard>>,
}

impl Ticket {
    /// The submission sequence number (monotonic per ring): correlate a
    /// completion from [`RingRequester::wait_any`] back to its
    /// submission.
    pub fn seq(&self) -> u64 {
        self.index as u64
    }

    /// Takes over the redeem obligation from the drop guard: after this,
    /// dropping the ticket is inert. Every redeeming path calls it right
    /// before (or instead of) consuming the slot.
    pub(super) fn defuse(&mut self) -> usize {
        self.board = None;
        self.index
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(board) = self.board.take() {
            board.mark(self.index);
        }
    }
}

/// An in-flight bundle: redeem with [`RingRequester::wait_bundle`].
/// Dropping it unredeemed abandons the bundle the same way dropping a
/// [`Ticket`] abandons a single call.
#[derive(Debug)]
#[must_use = "redeem the results by waiting, or drop to abandon the bundle"]
pub struct BundleTicket {
    pub(super) index: usize,
    pub(super) len: usize,
    /// See [`Ticket::board`].
    pub(super) board: Option<Arc<AbandonBoard>>,
}

impl BundleTicket {
    /// Number of calls packed in the bundle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A bundle ticket never covers zero calls, but clippy likes the
    /// pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// See [`Ticket::defuse`].
    pub(super) fn defuse(&mut self) -> usize {
        self.board = None;
        self.index
    }
}

impl Drop for BundleTicket {
    fn drop(&mut self) {
        if let Some(board) = self.board.take() {
            board.mark(self.index);
        }
    }
}

/// Builder packing many small calls into one ring submission.
///
/// The whole bundle costs one slot claim, one head CAS and at most one
/// responder wakeup, and is serviced by a single responder dispatch —
/// amortizing the per-call ring traffic the way HotCall bundling does for
/// IO-intensive enclave applications.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{Bundle, CallTable, RingServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let dbl = table.register(|x| x * 2);
/// let server = RingServer::spawn(table, 8, HotCallConfig::patient());
/// let r = server.requester();
///
/// let mut bundle = Bundle::new();
/// bundle.push(inc, 1).push(dbl, 21).push(inc, 99);
/// let results = r.call_bundle(bundle).unwrap();
/// let values: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
/// assert_eq!(values, [2, 42, 100]);
/// ```
#[derive(Debug)]
pub struct Bundle<Req> {
    pub(super) calls: Vec<(u32, Req)>,
}

impl<Req> Default for Bundle<Req> {
    fn default() -> Self {
        Bundle::new()
    }
}

impl<Req> Bundle<Req> {
    /// An empty bundle.
    pub fn new() -> Self {
        Bundle { calls: Vec::new() }
    }

    /// An empty bundle with room for `n` calls.
    pub fn with_capacity(n: usize) -> Self {
        Bundle {
            calls: Vec::with_capacity(n),
        }
    }

    /// Appends a call to the bundle.
    pub fn push(&mut self, id: u32, req: Req) -> &mut Self {
        self.calls.push((id, req));
        self
    }

    /// Calls packed so far.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Nothing packed yet?
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

/// One attempt at the claim step of a submission, shared by the ring and
/// by every shard of the sharded plane: `Some(seq)` once this caller owns
/// slot `seq % capacity` (state `EMPTY`, ready for `publish`), `None` when
/// the ring is full, the target slot is still occupied, or another
/// requester won the head CAS — the caller retries.
///
/// **Who guards a lap.** Slot `seq % capacity` was last used by call
/// `seq - capacity`. The full check admits `seq` only after `tail` passed
/// `seq - capacity`, i.e. after a responder took that call — which it only
/// does once the call was published. A claimed but still unpublished slot
/// (state `EMPTY`: rings have no `CLAIMED` mark) is therefore never lapped
/// onto. The `EMPTY` check below then waits out the rest of that call's
/// life (`SERVICING`, un-redeemed `DONE`).
///
/// **Happens-before.** The Acquire `tail` load pairs with the AcqRel tail
/// CAS of the responder that took call `seq - capacity` after reading its
/// slot `SUBMITTED`; by coherence the state load below sees that
/// `SUBMITTED` or a later value, so an `EMPTY` read is the one `redeem`
/// stored with Release and the previous call's payload accesses are over
/// before this caller writes the cells.
pub(super) fn claim_slot<Req, Resp>(
    slots: &[RingSlot<Req, Resp>],
    head: &AtomicUsize,
    tail: &AtomicUsize,
    abandon: &AbandonBoard,
    gov: &GovernorState,
) -> Option<usize> {
    let cap = slots.len();
    // Tail before head: a tail snapshot taken first cannot exceed the head
    // snapshot, so the subtraction cannot underflow.
    let tail = tail.load(Ordering::Acquire);
    // Acquire: pairs with the AcqRel head CAS of the previous claimant.
    let seq = head.load(Ordering::Acquire);
    let occupancy = RingShared::<Req, Resp>::occupancy(seq, tail);
    // Backlog deeper than the policy threshold (or a full ring) means the
    // active responders are outpaced: admit another.
    if gov.adaptive() && occupancy > gov.policy.target_occupancy_clamped() {
        gov.try_raise();
    }
    if occupancy >= cap {
        return None;
    }
    let slot = &slots[seq % cap];
    // Acquire (inside `state`): pairs with the Release `EMPTY` store of
    // the previous call's `redeem`.
    match slot.state() {
        EMPTY => {}
        // A completed call whose ticket was dropped unredeemed: reap it so
        // the lap proceeds instead of wedging. The occupant is exactly call
        // `seq - cap`, so the board's exact-sequence CAS can neither match
        // a live call nor hand the reap to two racing claimants.
        DONE if abandon.try_take(seq.wrapping_sub(cap)) => {
            // SAFETY: winning the CAS transferred the dropping submitter's
            // redeem ownership to this thread; DONE was read with Acquire.
            drop(unsafe { slot.redeem() });
            return None;
        }
        // Mid-service, or a live un-redeemed response: wait for its owner.
        _ => return None,
    }
    // AcqRel: the claim. Release publishes nothing by itself (the payload
    // travels with `publish`'s store); Acquire orders this claimant after
    // the previous one. Winning makes the slot ours: any other claimant of
    // this physical slot needs `head` to advance a full lap, which the
    // full check forbids until this submission was published and taken.
    head.compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Relaxed)
        .ok()
}

/// The reap pick shared by both planes' `wait_any*`: the position in
/// `tickets` of the *oldest* completed call, or `None` if none completed.
///
/// Oldest, never first-found: with instantly-completing submissions (the
/// fused path) a first-found scan keeps redeeming whichever ticket
/// `swap_remove` rotated to the front — always the youngest — while older
/// DONE slots sit un-redeemed until the head laps onto one and `submit`
/// spins on a slot only this very caller could free. Oldest-first bounds
/// an un-redeemed completion's age by the caller's in-flight window.
///
/// The minimum-sequence ticket is found in the caller's own memory and
/// its slot is tested first: if it is DONE it *is* the oldest completed
/// call, for one shared state line read instead of one per ticket (lines
/// the responder is about to write). Only when it is not are the others
/// scanned, which still returns a younger completion stuck behind a slow
/// older one. A younger hit is not trusted over the oldest, though: the
/// oldest may have completed while the scan ran (behind a single in-order
/// responder a younger DONE proves it has), and a caller whose window
/// equals the capacity submits next onto exactly the oldest ticket's slot —
/// handed the younger one it would spin on a DONE only it can redeem. So
/// the oldest is looked at once more before a younger one is returned; an
/// empty scan, the spinning case, costs no extra read.
pub(super) fn oldest_done<Req, Resp>(
    slots: &[RingSlot<Req, Resp>],
    tickets: &[Ticket],
) -> Option<usize> {
    // Acquire (inside `state`): pairs with `finish`'s Release DONE store,
    // making the response visible to the redeem that follows.
    let done = |t: &Ticket| slots[t.index % slots.len()].state() == DONE;
    let by_age = |(_, t): &(usize, &Ticket)| t.index;
    let (first, oldest) = tickets.iter().enumerate().min_by_key(by_age)?;
    if done(oldest) {
        return Some(first);
    }
    let younger_done = |(i, t): &(usize, &Ticket)| *i != first && done(t);
    let completed = tickets.iter().enumerate().filter(younger_done);
    let (younger, _) = completed.min_by_key(by_age)?;
    Some(if done(oldest) { first } else { younger })
}

/// The wait loop shared by every blocking redeem path of both planes:
/// polls `ready` until it yields, `deadline` passes (`Ok(None)`), or the
/// plane shut down and the grace ran out.
pub(super) fn poll_until<T>(
    shutdown: &AtomicBool,
    gov: &GovernorState,
    deadline: Option<Instant>,
    mut ready: impl FnMut() -> Option<T>,
) -> Result<Option<T>> {
    let mut backoff = Backoff::new();
    let mut grace: u32 = 0;
    let mut polls: u32 = 0;
    loop {
        if let Some(hit) = ready() {
            return Ok(Some(hit));
        }
        // Deadline check on a stride: `Instant::now` per spin would
        // dominate the wait loop. The first iteration checks too, so an
        // already-expired deadline still gets exactly one scan. Once the
        // backoff has escalated to yielding, every poll already costs a
        // scheduler quantum, so the stride no longer buys anything —
        // check every poll instead (64 yields between deadline reads
        // overshoot small timeouts by milliseconds).
        if polls.is_multiple_of(DEADLINE_CHECK_POLLS) || backoff.yields() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Ok(None);
                }
            }
        }
        // The pool drains submitted work before exiting, but a submission
        // that raced the shutdown flag (or sits behind a neighbour stuck
        // mid-publish) may never be serviced; give up after a bounded
        // grace. The slot stays occupied and its payload is freed by Drop.
        if shutdown.load(Ordering::Acquire) {
            grace += 1;
            if grace > SHUTDOWN_GRACE_POLLS {
                return Err(HotCallError::ResponderGone);
            }
        }
        // In-flight age: a call that spins this long without completing
        // is stuck behind busy responders — ask the governor for another.
        polls = polls.wrapping_add(1);
        if gov.adaptive() && polls.is_multiple_of(AGE_POLLS_PER_RAISE) {
            gov.try_raise();
        }
        backoff.snooze();
    }
}

impl<Req, Resp> RingRequester<Req, Resp> {
    /// Is the fused run-to-completion path worth attempting right now?
    /// `occupancy` is the requester's latest coherent tail-before-head
    /// snapshot. Never true after shutdown, so fused configs keep the
    /// pooled `ResponderGone` semantics.
    fn fused_eligible(&self, occupancy: usize) -> bool {
        match self.config.fused_mode {
            FusedMode::Off => false,
            FusedMode::Always => true,
            FusedMode::Auto => {
                occupancy < self.config.fused_below_occupancy && self.shared.responders_quiescent()
            }
        }
    }

    /// Counts (and traces) a call that was fused-eligible in principle but
    /// rode the pooled path.
    #[inline]
    fn note_fused_fallback(&self, seq: u64) {
        if self.config.fused_mode != FusedMode::Off {
            self.shared.fused_fallbacks.fetch_add(1, Ordering::Relaxed);
            trace("fused_fallback", seq, 0);
        }
    }

    /// Tries to service the just-published slot at `index` on *this*
    /// thread. Winning the tail CAS for exactly `[index, index + 1)` is
    /// the same service-ownership edge the responder drain uses, so the
    /// requester and any awake responder can race for the slot and
    /// exactly one of them executes it. Returns `true` if the slot was
    /// serviced inline (it is DONE and awaits its normal redeem).
    fn try_self_service(&self, index: usize) -> bool {
        if self
            .shared
            .tail
            .compare_exchange(index, index + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // Older submissions sit ahead of ours (or a responder already
            // claimed a run covering this slot): pipelining wins, hand
            // off.
            return false;
        }
        let slot = &self.shared.slots[index % self.shared.slots.len()];
        // SAFETY: the tail CAS granted service ownership of exactly this
        // slot, and this requester published it SUBMITTED (with Release)
        // just above, so the Acquire side of the CAS sees the payload.
        let n = unsafe { pool::service_slot_inline(slot, &self.shared.table) };
        self.shared.fused_runs.fetch_add(n, Ordering::Relaxed);
        trace("fused_run", index as u64, n);
        true
    }

    /// Claims a slot and publishes `env` into it, returning the absolute
    /// slot sequence. On failure the envelope is handed back so the
    /// caller can recover the request payloads (the fallback path). With
    /// `allow_fuse` (and [`FusedMode::Always`]), the requester services
    /// its own submission inline instead of waking a responder. With
    /// `arm`, the slot's waker cell is armed before publish so the
    /// completing side fires the future's waker (the async submit paths).
    fn submit_envelope(
        &self,
        id: u32,
        env: ReqEnvelope<Req>,
        allow_fuse: bool,
        arm: bool,
    ) -> core::result::Result<usize, (HotCallError, ReqEnvelope<Req>)> {
        let shared = &*self.shared;
        let mut backoff = Backoff::new();
        for _retry in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Err((HotCallError::ResponderGone, env));
                }
                let Some(head) = claim_slot(
                    &shared.slots,
                    &shared.head,
                    &shared.tail,
                    &shared.abandon,
                    &shared.governor,
                ) else {
                    core::hint::spin_loop();
                    continue;
                };
                let slot = &shared.slots[head % shared.slots.len()];
                if arm {
                    // Before publish: the SUBMITTED Release store carries
                    // the armed flag to whichever thread completes the
                    // call, so its wake cannot be missed.
                    slot.arm_async();
                }
                // Async submissions fuse only under an explicit `Always`.
                // The caller chose the pipelined API to overlap work, and
                // under `Auto` an inline completion would collapse
                // occupancy back to zero before the next submission's gate
                // reads it — the plane would run whole bursts inline,
                // never wake a responder, and never hand the backlog to
                // the pool. `Auto`'s break-even gate lives on the
                // synchronous `call` path, where the requester would have
                // blocked anyway.
                let fuse = allow_fuse && self.config.fused_mode == FusedMode::Always;
                // SAFETY: `claim_slot` won the head CAS, which grants
                // exclusive claim ownership of this slot; publish once.
                unsafe { slot.publish(head, id, env) };
                if fuse {
                    if self.try_self_service(head) {
                        // Serviced on this core: no handoff, no wake. The
                        // slot is DONE and redeems through the normal
                        // wait path.
                        return Ok(head);
                    }
                    // Lost the service race (a responder is active after
                    // all, or older submissions are queued ahead): fall
                    // through to the pooled wake so the submission cannot
                    // strand behind an unwoken doze.
                    self.note_fused_fallback(head as u64);
                }
                // Wake a sleeping responder (after the SUBMITTED store).
                // One wake per submission — a bundle of N calls pays this
                // at most once.
                if self.shared.doze.wake() {
                    self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(head);
            }
            backoff.snooze();
        }
        self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err((
            HotCallError::ResponderTimeout {
                retries: self.config.timeout_retries,
            },
            env,
        ))
    }

    /// Claims a slot and submits a request without waiting. Returns a
    /// [`Ticket`] to redeem the response.
    ///
    /// An un-redeemed ticket keeps its ring slot occupied, so a
    /// submission that laps the ring onto such a slot blocks until the
    /// ticket is redeemed (or, if the ticket was dropped, reaps the
    /// abandoned response itself). Pipelined callers should keep fewer
    /// than `capacity` calls in flight and redeem a ticket whose sequence
    /// number is one full lap behind the submission count before
    /// submitting past it.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if no slot frees up within the
    /// retry budget; [`HotCallError::ResponderGone`] after shutdown.
    pub fn submit(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, false) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&self.shared.abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// [`RingRequester::submit`] with the slot's waker cell armed: the
    /// completing side (responder, fused-inline service, or the shutdown
    /// sweep) fires a waker registered against the returned ticket, which
    /// is what gives the `hotcalls::aio` futures completion wakes without
    /// any busy polling.
    pub(crate) fn submit_async(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, true) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&self.shared.abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// The future-side poll: redeem if complete, otherwise register
    /// `cx`'s waker with the slot and stay pending. Takes the ticket out
    /// of `ticket` exactly when it returns `Ready`.
    pub(crate) fn poll_ticket(
        &self,
        ticket: &mut Option<Ticket>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Resp>> {
        let index = ticket
            .as_ref()
            .expect("future polled after completion")
            .index;
        let cap = self.shared.slots.len();
        let slot = &self.shared.slots[index % cap];
        if slot.state() == DONE || slot.register_waker(cx.waker()) {
            ticket.take().expect("present above").defuse();
            return Poll::Ready(self.redeem_one(index));
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The drain sweep may have completed the call between the
            // registration above and the flag load; deliver if so.
            if slot.state() == DONE {
                ticket.take().expect("present above").defuse();
                return Poll::Ready(self.redeem_one(index));
            }
            // A submission that raced the flag may never be serviced; a
            // future cannot grace-spin the way the sync waiters do, so
            // abandon the call (the drop marks the slot reapable) and
            // surface the shutdown.
            drop(ticket.take());
            return Poll::Ready(Err(HotCallError::ResponderGone));
        }
        Poll::Pending
    }

    /// Packs `bundle` into one ring submission: one slot claim, one
    /// responder dispatch, at most one wakeup for all of its calls.
    /// Returns a [`BundleTicket`] to redeem the per-call results.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for an empty bundle, otherwise as
    /// [`RingRequester::submit`].
    pub fn submit_bundle(&self, bundle: Bundle<Req>) -> Result<BundleTicket> {
        if bundle.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "a bundle must pack at least one call",
            ));
        }
        let len = bundle.len();
        trace("bundle_submit", len as u64, 0);
        match self.submit_envelope(0, ReqEnvelope::Bundle(bundle.calls), true, false) {
            Ok(index) => Ok(BundleTicket {
                index,
                len,
                board: Some(Arc::clone(&self.shared.abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// Spins until the slot behind `index` is DONE. Returns `Err` only on
    /// shutdown-with-grace-expired.
    fn wait_done(&self, index: usize) -> Result<()> {
        let shared = &*self.shared;
        let slot = &shared.slots[index % shared.slots.len()];
        let done = || (slot.state() == DONE).then_some(());
        poll_until(&shared.shutdown, &shared.governor, None, done).map(drop)
    }

    /// Redeems the single-call response sitting DONE at `index`. The
    /// caller must be (or act for) the submitter and must have observed
    /// `DONE` with Acquire.
    fn redeem_one(&self, index: usize) -> Result<Resp> {
        let cap = self.shared.slots.len();
        let slot = &self.shared.slots[index % cap];
        // Read the completion stamp before redeeming: redeem frees the
        // slot for re-claim, after which the stamp belongs to a new call.
        let completed_at = slot.completed_at();
        // SAFETY: this requester submitted the call at `index` and
        // observed DONE with Acquire; only the submitter redeems a slot,
        // and the previous lap's DONE was redeemed before this slot could
        // be claimed again, so this DONE is ours.
        let result = match unsafe { slot.redeem() } {
            Ok(RespEnvelope::One(resp)) => Ok(resp),
            Ok(RespEnvelope::Bundle(_)) => {
                unreachable!("a Ticket is only minted for single-call submissions")
            }
            Err(e) => Err(e),
        };
        self.reap.record(now_cycles().saturating_sub(completed_at));
        result
    }

    /// Wait + redeem by raw slot sequence: the synchronous call paths use
    /// this directly so they never mint a ticket (and never touch the
    /// abandonment board) at all.
    fn wait_index(&self, index: usize) -> Result<Resp> {
        self.wait_done(index)?;
        self.redeem_one(index)
    }

    /// Waits for a submitted call to complete and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, or
    /// the handler's own error.
    pub fn wait(&self, mut ticket: Ticket) -> Result<Resp> {
        self.wait_index(ticket.defuse())
    }

    /// Redeems the response if the call already completed, or hands the
    /// ticket back untouched — the non-blocking reap primitive for
    /// poll-style event loops.
    pub fn try_wait(&self, ticket: Ticket) -> core::result::Result<Result<Resp>, Ticket> {
        let cap = self.shared.slots.len();
        let slot = &self.shared.slots[ticket.index % cap];
        if slot.state() != DONE {
            return Err(ticket);
        }
        let mut ticket = ticket;
        Ok(self.redeem_one(ticket.defuse()))
    }

    /// Waits until *any* of `tickets` completes, removes it from the set,
    /// and returns its sequence number (see [`Ticket::seq`]) with the
    /// response. Completion order is whatever the responder pool produces
    /// — this is the batched-reap primitive that keeps a deep pipeline
    /// full.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on an empty set;
    /// [`HotCallError::ResponderGone`] if the server shut down; a per-call
    /// failure (e.g. unknown id) is returned as-is (the offending ticket
    /// is consumed).
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        if tickets.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        }
        let reaped = self.wait_any_inner(tickets, None)?;
        Ok(reaped.expect("a deadline-free wait_any only returns on a completion"))
    }

    /// [`RingRequester::wait_any`] bounded by a deadline: returns
    /// `Ok(None)` — with every ticket left in the set — if nothing
    /// completes by `deadline` (or the set is empty). The primitive that
    /// lets async reapers and graceful shutdown stop parking forever on
    /// an idle plane.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait_any`], except that an empty set is
    /// `Ok(None)` instead of an error.
    pub fn wait_any_until(
        &self,
        tickets: &mut Vec<Ticket>,
        deadline: Instant,
    ) -> Result<Option<(u64, Resp)>> {
        if tickets.is_empty() {
            return Ok(None);
        }
        self.wait_any_inner(tickets, Some(deadline))
    }

    /// [`RingRequester::wait_any_until`] with a relative timeout.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait_any_until`].
    pub fn wait_any_timeout(
        &self,
        tickets: &mut Vec<Ticket>,
        timeout: Duration,
    ) -> Result<Option<(u64, Resp)>> {
        if tickets.is_empty() {
            return Ok(None);
        }
        self.wait_any_inner(tickets, Some(Instant::now() + timeout))
    }

    fn wait_any_inner(
        &self,
        tickets: &mut Vec<Ticket>,
        deadline: Option<Instant>,
    ) -> Result<Option<(u64, Resp)>> {
        let shared = &*self.shared;
        let pick = || oldest_done(&shared.slots, tickets);
        let Some(i) = poll_until(&shared.shutdown, &shared.governor, deadline, pick)? else {
            return Ok(None);
        };
        let mut ticket = tickets.swap_remove(i);
        let seq = ticket.seq();
        self.redeem_one(ticket.defuse())
            .map(|resp| Some((seq, resp)))
    }

    /// Waits for a bundle and returns one result per call, in submission
    /// order.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down before the
    /// bundle was serviced. Per-call failures stay *inside* the returned
    /// vector.
    pub fn wait_bundle(&self, mut ticket: BundleTicket) -> Result<Vec<Result<Resp>>> {
        let index = ticket.defuse();
        self.wait_done(index)?;
        let cap = self.shared.slots.len();
        let slot = &self.shared.slots[index % cap];
        let completed_at = slot.completed_at();
        // SAFETY: as in `wait` — DONE observed with Acquire by the
        // submitting requester.
        let result = match unsafe { slot.redeem() } {
            Ok(RespEnvelope::Bundle(results)) => Ok(results),
            Ok(RespEnvelope::One(_)) => {
                unreachable!("a BundleTicket is only minted for bundle submissions")
            }
            Err(e) => Err(e),
        };
        self.reap.record(now_cycles().saturating_sub(completed_at));
        result
    }

    /// Submit + wait in one step.
    ///
    /// On a quiet plane with fusing enabled (see
    /// [`FusedMode`](crate::FusedMode)) the handler runs *inline on this
    /// thread* — no slot publish, no doze wake, no cross-core cache-line
    /// transfer — and falls back to the pooled submit/wait the moment
    /// responders are active.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] and [`RingRequester::wait`].
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        // Synchronous calls can skip the ring entirely: nothing to
        // pipeline, no ticket to mint, so the fused path is a plain
        // dispatch on the requester's core.
        if self.config.fused_mode != FusedMode::Off && !self.shared.shutdown.load(Ordering::Acquire)
        {
            let tail = self.shared.tail.load(Ordering::Acquire);
            let head = self.shared.head.load(Ordering::Acquire);
            let occupancy = RingShared::<Req, Resp>::occupancy(head, tail);
            if self.fused_eligible(occupancy) {
                let result = self
                    .shared
                    .table
                    .dispatch(id, req)
                    .ok_or(HotCallError::UnknownCallId(id));
                self.shared.fused_runs.fetch_add(1, Ordering::Relaxed);
                trace("fused_run", id as u64, 1);
                return result;
            }
            self.note_fused_fallback(id as u64);
        }
        // Fusing was declined here; don't re-attempt it inside submit.
        match self.submit_envelope(id, ReqEnvelope::One(req), false, false) {
            Ok(index) => self.wait_index(index),
            Err((e, _)) => Err(e),
        }
    }

    /// Submits a bundle and waits for all of its results.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit_bundle`] and
    /// [`RingRequester::wait_bundle`].
    pub fn call_bundle(&self, bundle: Bundle<Req>) -> Result<Vec<Result<Resp>>> {
        let t = self.submit_bundle(bundle)?;
        self.wait_bundle(t)
    }

    /// Issues a call, running `fallback` locally if the fast path times
    /// out — the paper's SDK-call fallback, generalized to the ring.
    ///
    /// The request is moved into the ring only after the claim succeeds,
    /// so the hot path never clones: on timeout the original request
    /// comes back out of the envelope and goes to `fallback` as-is.
    pub fn call_with_fallback<F>(&self, id: u32, req: Req, fallback: F) -> Result<Resp>
    where
        F: FnOnce(Req) -> Resp,
    {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, false) {
            Ok(index) => self.wait_index(index),
            Err((HotCallError::ResponderTimeout { .. }, ReqEnvelope::One(req))) => {
                Ok(fallback(req))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// Statistics so far, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (CallTable<u64, u64>, u32) {
        let mut t = CallTable::new();
        let sq = t.register(|x| x * x);
        (t, sq)
    }

    fn generous() -> HotCallConfig {
        HotCallConfig::patient()
    }

    #[test]
    fn call_roundtrip() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        assert_eq!(r.call(sq, 7).unwrap(), 49);
        assert_eq!(server.stats().calls, 1);
    }

    #[test]
    fn pipelined_submissions_complete_in_order() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 8, generous());
        let r = server.requester();
        let tickets: Vec<Ticket> = (0..8u64).map(|i| r.submit(sq, i).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(r.wait(t).unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn wait_any_reaps_out_of_order() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 16, 2, generous()).unwrap();
        let r = server.requester();
        let mut tickets: Vec<Ticket> = (0..10u64).map(|i| r.submit(sq, i).unwrap()).collect();
        let mut seen = std::collections::BTreeMap::new();
        while !tickets.is_empty() {
            let (seq, resp) = r.wait_any(&mut tickets).unwrap();
            assert!(seen.insert(seq, resp).is_none(), "seq {seq} reaped twice");
        }
        // Sequence numbers are the ring indices 0..10 for a fresh server,
        // and each response is the square of its submission payload.
        let values: Vec<u64> = seen.into_values().collect();
        let mut want: Vec<u64> = (0..10u64).map(|i| i * i).collect();
        want.sort_unstable();
        let mut got = values;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn try_wait_returns_ticket_until_done() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            x + 1
        });
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut ticket = r.submit(slow, 1).unwrap();
        let mut polls = 0u32;
        let resp = loop {
            match r.try_wait(ticket) {
                Ok(resp) => break resp.unwrap(),
                Err(t) => {
                    ticket = t;
                    polls += 1;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(resp, 2);
        assert!(polls > 0, "a 30ms handler cannot complete instantly");
    }

    #[test]
    fn wait_any_timeout_returns_promptly_on_quiescent_plane() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(400));
            x
        });
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut tickets = vec![r.submit(slow, 7).unwrap()];
        let start = Instant::now();
        let timeout = Duration::from_millis(5);
        // The ticket cannot complete within the timeout, so this must
        // come back `Ok(None)` near the deadline — not after the old
        // 64-yield deadline stride let scheduler quanta pile up.
        let reaped = r.wait_any_timeout(&mut tickets, timeout).unwrap();
        let elapsed = start.elapsed();
        assert!(reaped.is_none(), "a 400ms handler beat a 5ms timeout");
        assert_eq!(tickets.len(), 1, "timeout must leave the ticket in place");
        assert!(
            elapsed < Duration::from_millis(200),
            "timeout overshot: {elapsed:?}"
        );
        // Drain the ticket so shutdown doesn't race the in-flight call.
        let (_, resp) = r.wait_any(&mut tickets).unwrap();
        assert_eq!(resp, 7);
    }

    #[test]
    fn bundle_roundtrip_preserves_order_and_ids() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let inc = t.register(|x| x + 1);
        let dbl = t.register(|x| x * 2);
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut bundle = Bundle::with_capacity(5);
        bundle
            .push(inc, 10)
            .push(dbl, 10)
            .push(inc, 0)
            .push(dbl, 0)
            .push(inc, 41);
        assert_eq!(bundle.len(), 5);
        let results = r.call_bundle(bundle).unwrap();
        let values: Vec<u64> = results.into_iter().map(|x| x.unwrap()).collect();
        assert_eq!(values, [11, 20, 1, 0, 42]);
        // Each bundled call counts as a call; the bundle is one ring slot.
        assert_eq!(server.stats().calls, 5);
    }

    #[test]
    fn bundle_unknown_id_fails_only_that_call() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut bundle = Bundle::new();
        bundle.push(sq, 3).push(999, 1).push(sq, 4);
        let results = r.call_bundle(bundle).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 9);
        assert!(matches!(results[1], Err(HotCallError::UnknownCallId(999))));
        assert_eq!(*results[2].as_ref().unwrap(), 16);
    }

    #[test]
    fn empty_bundle_is_rejected() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        assert!(matches!(
            r.submit_bundle(Bundle::new()),
            Err(HotCallError::InvalidConfig(_))
        ));
    }

    #[test]
    fn bundles_interleave_with_single_calls() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 8, 2, generous()).unwrap();
        let r = server.requester();
        for round in 0..50u64 {
            let single = r.submit(sq, round).unwrap();
            let mut bundle = Bundle::new();
            for i in 0..4u64 {
                bundle.push(sq, round * 10 + i);
            }
            let bt = r.submit_bundle(bundle).unwrap();
            let results = r.wait_bundle(bt).unwrap();
            for (i, got) in results.into_iter().enumerate() {
                let x = round * 10 + i as u64;
                assert_eq!(got.unwrap(), x * x);
            }
            assert_eq!(r.wait(single).unwrap(), round * round);
        }
        assert_eq!(server.stats().calls, 250);
    }

    #[test]
    fn ring_wraps_many_times() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 2, generous());
        let r = server.requester();
        for i in 0..5_000u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        assert_eq!(server.stats().calls, 5_000);
    }

    #[test]
    fn concurrent_requesters_share_the_ring() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, generous());
        let mut handles = Vec::new();
        for th in 0..3u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                (0..500u64)
                    .map(|i| r.call(sq, th * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..3u64)
            .flat_map(|th| (0..500u64).map(move |i| (th * 1_000 + i) * (th * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_500);
    }

    #[test]
    fn unknown_id_propagates() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 2, generous());
        let r = server.requester();
        assert!(matches!(
            r.call(42, 1),
            Err(HotCallError::UnknownCallId(42))
        ));
    }

    #[test]
    fn ring_fallback_runs_locally_on_timeout() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            x
        });
        // Capacity-1 ring: while the slow call is in flight the ring is
        // full, so a second requester times out and falls back.
        let server = RingServer::spawn(
            t,
            1,
            HotCallConfig {
                timeout_retries: 2,
                spins_per_retry: 4,
                ..HotCallConfig::default()
            },
        );
        let r1 = server.requester();
        let r2 = server.requester();
        let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
        assert_eq!(v, 105);
        assert!(r2.stats().fallbacks >= 1);
        assert_eq!(blocker.join().unwrap(), 7);
    }

    #[test]
    fn shutdown_fails_inflight_and_future_calls() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 2, generous());
        let r = server.requester();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        server.shutdown();
        assert!(matches!(r.submit(sq, 1), Err(HotCallError::ResponderGone)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let (t, _) = table();
        let _ = RingServer::spawn(t, 0, generous());
    }

    #[test]
    fn pool_rejects_degenerate_shapes() {
        let (t, _) = table();
        assert!(matches!(
            RingServer::spawn_pool(t, 0, 2, generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
        let (t, _) = table();
        assert!(matches!(
            RingServer::spawn_pool(t, 8, 0, generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
        let (t, _) = table();
        assert!(matches!(
            RingServer::spawn_adaptive(t, 8, ResponderPolicy::elastic(2, 1), generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pool_services_concurrent_requesters() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 16, 3, generous()).unwrap();
        assert_eq!(server.responders(), 3);
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                (0..400u64)
                    .map(|i| r.call(sq, th * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..4u64)
            .flat_map(|th| (0..400u64).map(move |i| (th * 1_000 + i) * (th * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_600);
    }

    #[test]
    fn pool_batched_drain_handles_bursts() {
        // A tiny drain batch and a large one must both preserve
        // exactly-once results over pipelined bursts.
        for batch in [1u32, 4, 64] {
            let (t, sq) = table();
            let config = HotCallConfig {
                drain_batch: batch,
                ..generous()
            };
            let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
            let r = server.requester();
            for _ in 0..50 {
                let tickets: Vec<Ticket> = (0..8u64).map(|i| r.submit(sq, i).unwrap()).collect();
                for (i, t) in tickets.into_iter().enumerate() {
                    assert_eq!(r.wait(t).unwrap(), (i * i) as u64, "batch={batch}");
                }
            }
            assert_eq!(server.stats().calls, 400);
        }
    }

    #[test]
    fn pool_idle_sleep_wakes_on_submit() {
        let (t, sq) = table();
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(200),
            ..generous()
        };
        let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 5).unwrap(), 25);
        // Let both responders doze off, then prove a call still lands.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.shared.doze.sleepers.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "responders never slept"
            );
            std::thread::yield_now();
        }
        assert_eq!(r.call(sq, 6).unwrap(), 36);
        let stats = server.stats();
        assert!(stats.wakeups >= 1, "wakeups not accounted: {stats:?}");
    }

    #[test]
    fn bundle_submission_performs_at_most_one_wake() {
        let (t, sq) = table();
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(100),
            ..generous()
        };
        let server = RingServer::spawn_pool(t, 32, 2, config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 2).unwrap(), 4);
        // Let every responder doze so the next submission must wake.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.shared.doze.sleepers.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "responders never slept"
            );
            std::thread::yield_now();
        }
        let before = server.stats().wakeups;
        let mut bundle = Bundle::new();
        for i in 0..16u64 {
            bundle.push(sq, i);
        }
        let results = r.call_bundle(bundle).unwrap();
        assert!(results.into_iter().all(|x| x.is_ok()));
        let woke = server.stats().wakeups - before;
        assert!(woke <= 1, "a 16-call bundle paid {woke} wakes");
    }

    #[test]
    fn occupancy_is_underflow_proof() {
        // The regression this fixes: a stale head snapshot paired with a
        // fresher tail snapshot made `head - tail` underflow. The helper
        // must stay a plain difference for in-order snapshots and must not
        // panic for out-of-order ones.
        type R = RingShared<u64, u64>;
        assert_eq!(R::occupancy(5, 3), 2);
        assert_eq!(R::occupancy(7, 7), 0);
        // Out-of-order snapshot (tail "ahead" of head): wraps instead of
        // panicking, and the huge value safely reads as "full" upstream.
        assert!(R::occupancy(3, 5) >= usize::MAX - 1);
    }

    #[test]
    fn stale_head_stress_on_tiny_ring() {
        // Maximize head/tail snapshot races: capacity-1 ring, several
        // requesters, responders constantly advancing tail. With the old
        // head-then-tail load order this underflowed in debug builds.
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 1, 2, generous()).unwrap();
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let x = th * 100 + i % 50;
                    assert_eq!(r.call(sq, x).unwrap(), x * x);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().calls, 1_200);
    }

    #[test]
    fn static_pool_governor_is_inert() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 8, 3, generous()).unwrap();
        let r = server.requester();
        for i in 0..500u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let g = server.governor_stats();
        assert_eq!((g.active, g.parked), (3, 0));
        assert_eq!((g.parks, g.wakes), (0, 0));
        assert_eq!((g.min, g.max), (3, 3));
    }

    #[test]
    fn governor_parks_surplus_responders_when_idle() {
        let (t, sq) = table();
        let policy = ResponderPolicy {
            park_after_idle_polls: 64,
            ..ResponderPolicy::elastic(1, 4)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let server = RingServer::spawn_adaptive(t, 16, policy, config).unwrap();
        assert_eq!(server.responders(), 4);
        let r = server.requester();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        // With no work, the three governable responders demote themselves
        // top-down and park.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let g = server.governor_stats();
            if g.active == 1 && g.parked == 3 {
                assert!(g.parks >= 3, "{g:?}");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never parked: {g:?}");
            std::thread::yield_now();
        }
        // The remaining responder still serves calls.
        assert_eq!(r.call(sq, 5).unwrap(), 25);
    }

    #[test]
    fn governor_wakes_parked_responders_on_backlog() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x + 1
        });
        let policy = ResponderPolicy {
            park_after_idle_polls: 64,
            target_occupancy: 1,
            ..ResponderPolicy::elastic(1, 4)
        };
        let server = RingServer::spawn_adaptive(t, 32, policy, generous()).unwrap();
        let r = server.requester();
        // Let the pool park down to the minimum first.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.governor_stats().active > 1 {
            assert!(std::time::Instant::now() < deadline, "never parked");
            std::thread::yield_now();
        }
        // Pipeline a burst of blocking calls: occupancy builds behind the
        // single active responder, requesters raise the target, parked
        // responders wake and help.
        let tickets: Vec<Ticket> = (0..24u64).map(|i| r.submit(slow, i).unwrap()).collect();
        let mut tickets = tickets;
        while !tickets.is_empty() {
            let (_, resp) = r.wait_any(&mut tickets).unwrap();
            assert!(resp >= 1);
        }
        let g = server.governor_stats();
        assert!(g.wakes >= 1, "backlog never raised the target: {g:?}");
        assert_eq!(server.stats().calls, 24);
    }

    #[test]
    fn fused_always_runs_calls_inline() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, HotCallConfig::fused(FusedMode::Always));
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let s = server.stats();
        assert_eq!(s.calls, 100);
        // `call` with Always never touches the ring at all.
        assert_eq!(s.fused_runs, 100, "{s:?}");
    }

    #[test]
    fn fused_call_propagates_unknown_id() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 4, HotCallConfig::fused(FusedMode::Always));
        let r = server.requester();
        assert!(matches!(
            r.call(42, 1),
            Err(HotCallError::UnknownCallId(42))
        ));
    }

    #[test]
    fn fused_submit_self_services_and_redeems() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 8, HotCallConfig::fused(FusedMode::Always));
        let r = server.requester();
        let ticket = r.submit(sq, 6).unwrap();
        assert_eq!(r.wait(ticket).unwrap(), 36);
        let mut bundle = Bundle::new();
        bundle.push(sq, 2).push(sq, 3);
        let results = r.call_bundle(bundle).unwrap();
        let values: Vec<u64> = results.into_iter().map(|x| x.unwrap()).collect();
        assert_eq!(values, [4, 9]);
        let s = server.stats();
        // Each envelope either self-serviced (its calls count as fused
        // runs) or lost its race to the responder (one counted fallback) —
        // conservation must be exact either way.
        assert_eq!(s.calls, 3, "{s:?}");
        assert!(s.fused_runs + s.fused_fallbacks >= 1, "{s:?}");
    }

    #[test]
    fn fused_pipelining_redeems_oldest_and_never_wedges_on_wrap() {
        // Regression (same shape as the sharded plane's): first-found
        // `wait_any` redemption starves older DONE tickets when fused
        // submissions complete instantly, and the head's next lap then
        // blocks on a slot only the spinning submitter could redeem.
        // Oldest-first redemption keeps the lap ahead of the in-flight
        // window; this loop wraps the 8-slot ring dozens of times.
        let (t, sq) = table();
        let server = RingServer::spawn(t, 8, HotCallConfig::fused(FusedMode::Always));
        let r = server.requester();
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut submitted = 0u64;
        let mut redeemed = 0u64;
        while redeemed < 500 {
            while tickets.len() < 4 {
                tickets.push(r.submit(sq, submitted).unwrap());
                submitted += 1;
            }
            r.wait_any(&mut tickets).unwrap();
            redeemed += 1;
        }
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
            redeemed += 1;
        }
        assert_eq!(redeemed, submitted);
        assert_eq!(server.stats().calls, submitted);
    }

    #[test]
    fn fused_auto_uses_the_pool_when_responders_are_hot() {
        // Spinning responders (no doze) keep the plane attended: Auto must
        // decline to fuse and count the decline.
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: None,
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn(t, 4, config);
        let r = server.requester();
        assert_eq!(r.call(sq, 9).unwrap(), 81);
        let s = server.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.fused_runs, 0, "{s:?}");
        assert_eq!(s.fused_fallbacks, 1, "{s:?}");
    }

    #[test]
    fn fused_auto_fuses_once_responders_doze() {
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
        let r = server.requester();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.shared.doze.sleepers.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "responders never slept"
            );
            std::thread::yield_now();
        }
        let before_wakes = server.stats().wakeups;
        // Quiet plane, every responder dozing: the call runs inline and
        // pays no wake.
        assert_eq!(r.call(sq, 12).unwrap(), 144);
        let s = server.stats();
        assert_eq!(s.fused_runs, 1, "{s:?}");
        assert_eq!(s.wakeups, before_wakes, "a fused call paid a wake");
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
        let r = server.requester();
        // Alternate quiet single calls (fuse once responders doze) with
        // pipelined bursts (occupancy pushes past break-even → pooled).
        for round in 0..50u64 {
            assert_eq!(r.call(sq, round).unwrap(), round * round);
            let mut tickets: Vec<Ticket> = (0..4u64)
                .map(|i| r.submit(sq, round * 10 + i).unwrap())
                .collect();
            while !tickets.is_empty() {
                r.wait_any(&mut tickets).unwrap();
            }
        }
        assert_eq!(server.stats().calls, 250);
    }
}
