//! The queued HotCalls plane: one multi-slot submission ring, a responder
//! pool that drains it in batches, and pipelined completions.
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
//! **One ring, `R` responders.** A plane is one ring — slots, head, tail,
//! doze line and abandon board, all cache-padded — drained by `R ≥ 1`
//! responder threads ([`RingServer::spawn_pool`] builds a static `R`,
//! [`RingServer::spawn_adaptive`] an elastic one). Every requester shares
//! the one head word and every responder drains the one ring. A layout
//! that wants independent channels — the paper's Fig. 9 gives each call
//! channel its own mailbox — builds one plane per channel. The payload is
//! the server's type parameter: a typed plane is `RingServer<Req, Resp>`,
//! and the byte and scatter-gather planes are the same server at `HotBuf`
//! and `SgList` payloads ([`super::ByteRing`], [`super::SgRing`]).
//!
//! Two mechanisms pipeline the plane beyond the paper's synchronous
//! protocol. One ticket is one call: a slot carries one request and one
//! response, as the paper's mailbox does.
//!
//! * **Pipelined completions** — [`RingRequester::submit`] returns a
//!   [`Ticket`] immediately; [`RingRequester::wait`] and
//!   [`RingRequester::wait_any`] reap completions in any order, so one
//!   requester keeps many slots in flight and a blocked handler no longer
//!   serializes the ring.
//! * **Adaptive governor** — a [`ResponderPolicy`]`{min, max}` replaces
//!   the static pool size: requesters raise the active-responder target
//!   when the ring backs up (or their in-flight calls age), and the top
//!   active responder demotes itself and *parks* after a useful-work
//!   drought. Parked responders sleep on a doze that per-call wakeups
//!   never touch, so surplus pollers stop burning the cores the requesters
//!   need. The target never drops below `min ≥ 1`, so the ring always has
//!   an active responder.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::{HotCallConfig, ResponderPolicy, FUSED_BELOW_OCCUPANCY};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, trace, AtomicHist, GovernorStats, HotCallStats, LaneTelemetry, PlaneProvider,
    PlaneTelemetry, RingStats, ShardStats,
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

/// The governor's two thresholds. Not public: every public constructor
/// builds the plane with [`GovernorTuning::DEFAULT`]; unit tests lower
/// them to make parking and raising observable within milliseconds.
#[derive(Debug, Clone, Copy)]
pub(super) struct GovernorTuning {
    /// Queued-submission count above which a requester raises the active
    /// target (at least 1). The paper's responder has no queue; this is
    /// the ring generalization: backlog deeper than this means the active
    /// responders are not keeping up.
    pub(super) target_occupancy: usize,
    /// Consecutive polls without useful work after which the top active
    /// responder demotes itself and parks (at least 1). Counted across
    /// idle-doze wakeups, so a responder that is woken per-call but never
    /// wins work (the oversubscription churn) still accumulates toward
    /// parking.
    pub(super) park_after_idle_polls: u64,
}

impl GovernorTuning {
    pub(super) const DEFAULT: GovernorTuning = GovernorTuning {
        target_occupancy: 2,
        park_after_idle_polls: 2_048,
    };
}

/// The adaptive pool's control block.
/// For static pools (`min == max`) the governor is inert: no requester or
/// responder ever branches into it.
pub(super) struct GovernorState {
    pub(super) policy: ResponderPolicy,
    pub(super) tuning: GovernorTuning,
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
    pub(super) fn new(policy: ResponderPolicy, tuning: GovernorTuning) -> Self {
        // Start wide: all `max` responders active, and let idleness park
        // the surplus. Cold-start backlog never waits on a governor
        // decision this way; quiet periods converge to `min` within one
        // park threshold per surplus responder.
        GovernorState {
            policy,
            tuning,
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
        self.policy.max > self.policy.min
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

/// Slots currently between claim and service. `head` and `tail` are
/// monotonic with `head >= tail` at every instant, but two separate
/// loads can still see them "out of order" — the caller must load
/// `tail` *before* `head` (then the head snapshot can only be newer,
/// never older, than the tail snapshot) and this subtraction wraps
/// instead of panicking as a second line of defense.
fn occupancy(head: usize, tail: usize) -> usize {
    head.wrapping_sub(tail)
}

/// Per-responder statistics cell: the shared transport counters plus the
/// poll count. Only the owning responder writes any of it (plain stores,
/// no shared RMW on the hot path).
#[derive(Default)]
pub(super) struct ResponderCell {
    pub(super) base: StatCell,
    pub(super) polls: AtomicU64,
}

pub(super) struct RingShared<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[CallSlot<Req, Resp>]>,
    /// Next slot index a requester claims. Padded: requesters hammer this
    /// line; responders must not.
    head: CachePadded<AtomicUsize>,
    /// Next slot index the responders service. Padded likewise.
    pub(super) tail: CachePadded<AtomicUsize>,
    /// Where idle responders doze; per-call wakeups land here.
    pub(super) doze: Doze,
    /// Dropped-unredeemed ticket registry (see [`AbandonBoard`]): tickets
    /// hold a clone, claimants lapping onto a marked slot reap it. Its
    /// address doubles as the ticket's proof of origin.
    abandon: Arc<AbandonBoard>,
    /// The handler table, shared with every responder thread. Holding it
    /// here as well lets a *requester* dispatch inline on the fused
    /// run-to-completion path without any handoff.
    pub(super) table: CallTable<Req, Resp>,
    pub(super) shutdown: AtomicBool,
    /// `active_target` counts active responders; the park doze hosts the
    /// ones above it.
    pub(super) governor: GovernorState,
    /// One padded statistics cell per responder; each responder writes
    /// only its own.
    pub(super) responders: Box<[CachePadded<ResponderCell>]>,
    /// Completion → redeem latency (reap stage), one single-writer cell
    /// per requester handle.
    reaps: ReapCells,
    // Requester-side event counters; rare, so shared RMWs are fine.
    fallbacks: AtomicU64,
    wakeups: AtomicU64,
    /// Calls executed inline by requesters (fused run-to-completion).
    /// Shared `fetch_add` cells: requesters have no single-writer stat
    /// cell of their own, and the fused path only runs when the ring is
    /// quiet, so contention on these lines is structurally rare.
    fused_runs: AtomicU64,
}

impl<Req, Resp> RingShared<Req, Resp> {
    /// The slot call `seq` lives in.
    #[inline]
    pub(super) fn slot(&self, seq: usize) -> &CallSlot<Req, Resp> {
        &self.slots[seq % self.slots.len()]
    }

    /// Occupancy from a tail-before-head snapshot (wrap-proof; see
    /// [`occupancy`]).
    fn occupancy_snapshot(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        occupancy(head, tail)
    }

    /// Is the slot at the ring front submitted (work a responder could
    /// claim right now)? The sleep predicate of every dozing responder.
    pub(super) fn front_submitted(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        pool::submitted_run(&self.slots, tail, 1) > 0
    }

    /// Was the ticket carrying `board` minted by this plane? A ticket is
    /// only a sequence number; redeeming it against another plane's slots
    /// would hand out somebody else's response or wait on a slot that
    /// never completes. The ticket's clone of the abandon board is its
    /// proof of origin.
    fn check_issuer(&self, board: &Option<Arc<AbandonBoard>>) -> Result<()> {
        match board {
            Some(board) if Arc::ptr_eq(board, &self.abandon) => Ok(()),
            _ => Err(HotCallError::InvalidConfig(
                "ticket was issued by another plane",
            )),
        }
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
        };
        for cell in self.responders.iter() {
            s.calls += cell.base.calls.load(Ordering::Relaxed);
            s.idle_polls += cell.base.idle_polls.load(Ordering::Relaxed);
            s.busy_polls += cell.base.busy_polls.load(Ordering::Relaxed);
        }
        s
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

    /// The ring's one [`ShardStats`] row sums every responder's cell.
    fn ring_snapshot(&self) -> RingStats {
        let mut row = ShardStats {
            occupancy: self.occupancy_snapshot(),
            ..ShardStats::default()
        };
        for cell in self.responders.iter() {
            row.serviced += cell.base.calls.load(Ordering::Relaxed);
            row.home_polls += cell.polls.load(Ordering::Relaxed);
        }
        RingStats {
            totals: self.snapshot(),
            governor: self.governor_snapshot(),
            shards: vec![row],
        }
    }

    /// The plane's shape: `"pool"` with more than one responder, else
    /// `"single"`, whatever its payload type.
    fn plane_kind(&self) -> &'static str {
        if self.responders.len() > 1 {
            "pool"
        } else {
            "single"
        }
    }

    /// The plane's full telemetry view: counters plus one lane of stage
    /// histograms per responder and the plane-wide reap histogram.
    fn plane_telemetry(&self, name: &str) -> PlaneTelemetry {
        PlaneTelemetry {
            name: name.to_string(),
            kind: self.plane_kind(),
            stats: self.ring_snapshot(),
            lanes: self
                .responders
                .iter()
                .enumerate()
                .map(|(lane, cell)| LaneTelemetry {
                    lane,
                    queue: cell.base.stages.queue.snapshot(),
                    service: cell.base.stages.service.snapshot(),
                })
                .collect(),
            reap: self.reaps.snapshot(),
        }
    }

    /// Are the active responders all out of the way, dozing on the ring's
    /// doze? (Parked ones sleep on the park doze and never count.) While
    /// this holds, no responder core is spinning on the ring, so a
    /// requester executing inline steals nothing and saves the wake +
    /// cross-core transfer. The check is a heuristic: a fused call claims
    /// no slot, so a responder waking mid-decision costs the call its
    /// break-even, never its correctness.
    fn quiescent(&self) -> bool {
        let active = self.governor.active_target.load(Ordering::Relaxed);
        self.doze.sleepers.load(Ordering::Relaxed) >= active
    }
}

impl<Req, Resp> core::fmt::Debug for RingShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingShared")
            .field("capacity", &self.slots.len())
            .field("responders", &self.responders.len())
            .field("governor", &self.governor)
            .finish()
    }
}

/// A running plane: a pool of responder threads draining one multi-slot
/// submission ring in batches, governed by a [`ResponderPolicy`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::{HotCallConfig, ResponderPolicy};
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn_pool(table, 8, 1, HotCallConfig::default()).unwrap();
/// let requester = server.requester();
/// assert_eq!(requester.call(inc, 9).unwrap(), 10);
///
/// // The same type, one to two responders on one ring.
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let policy = ResponderPolicy::elastic(1, 2);
/// let server = RingServer::spawn_adaptive(table, 8, policy, HotCallConfig::patient()).unwrap();
/// assert_eq!(server.requester().call(inc, 41).unwrap(), 42);
/// assert_eq!(server.responders(), 2);
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
    /// Spawns a static pool of `n_responders` always-active threads
    /// draining one shared ring of `capacity` slots. Each responder
    /// claims up to [`HotCallConfig::drain_batch`] contiguous submissions
    /// per tail advance. `table` is a [`CallTable`] or a payload's own
    /// table ([`super::ByteCallTable`], [`super::SgCallTable`]).
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` or `n_responders` is
    /// zero.
    pub fn spawn_pool(
        table: impl Into<CallTable<Req, Resp>>,
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

    /// Spawns an adaptive pool on one ring: `policy.max` responder threads
    /// of which between `policy.min` and `policy.max` are active at any
    /// moment. Requesters raise the active target when the ring backs up
    /// (or their in-flight calls age without completing); the top active
    /// responder demotes itself and parks after a useful-work drought.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` is zero or the policy
    /// or config fail their [`ResponderPolicy::validate`] /
    /// [`HotCallConfig::validate`] checks.
    pub fn spawn_adaptive(
        table: impl Into<CallTable<Req, Resp>>,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        Self::spawn_plane(
            table.into(),
            capacity,
            policy,
            GovernorTuning::DEFAULT,
            config,
        )
    }

    /// Builds a ring of `capacity` slots and spawns `policy.max`
    /// responder threads over it.
    fn spawn_plane(
        table: CallTable<Req, Resp>,
        capacity: usize,
        policy: ResponderPolicy,
        tuning: GovernorTuning,
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
        let shared = Arc::new(RingShared {
            slots: (0..capacity).map(|_| CallSlot::new()).collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            doze: Doze::new(),
            abandon: AbandonBoard::new(capacity),
            table,
            shutdown: AtomicBool::new(false),
            governor: GovernorState::new(policy, tuning),
            responders: (0..n_responders)
                .map(|_| CachePadded::new(ResponderCell::default()))
                .collect(),
            reaps: ReapCells::default(),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
        });
        let joins = (0..n_responders)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hotcalls-ring-responder-{index}"))
                    .spawn(move || pool::responder_loop(&shared, index, config))
                    .expect("spawn ring responder")
            })
            .collect();
        Ok(RingServer {
            shared,
            config,
            joins,
        })
    }

    /// Creates a requester handle on the ring.
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
    pub fn set_active(&self, n: usize) -> usize {
        self.shared.governor.set_target(n)
    }

    /// The full snapshot: totals, governor, and the ring's one
    /// [`ShardStats`] row (serviced calls, polls, occupancy).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }

    /// This plane's full telemetry view right now: counters plus per-lane
    /// queue/service histograms and the plane-wide reap histogram. The
    /// plane kind is `"pool"` with more than one responder, else
    /// `"single"`, whatever the payload type.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        self.shared.plane_telemetry(name)
    }

    /// A [`PlaneProvider`] for [`crate::telemetry::TelemetryRegistry`]:
    /// the registry polls it at snapshot time, so the snapshot is always
    /// current. The provider holds the plane's shared state alive.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        let shared = Arc::clone(&self.shared);
        let name = name.into();
        Box::new(move || shared.plane_telemetry(&name))
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

/// A handle submitting calls into a [`RingServer`]'s ring; completions
/// may be produced by any of its responders.
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

/// An in-flight call: redeem with [`RingRequester::wait`] or
/// [`RingRequester::wait_any`].
///
/// A ticket redeems only through a requester of the plane that issued it;
/// another plane's handle refuses it with [`HotCallError::InvalidConfig`].
///
/// Dropping a ticket unredeemed *abandons* the call: the drop marks the
/// slot on the issuing plane's abandon board, and the next claimant
/// that laps onto the completed slot reaps the stale response. The
/// response value is discarded, but the slot is released — a dropped
/// ticket no longer wedges the ring.
#[derive(Debug)]
#[must_use = "redeem the response by waiting, or drop to abandon the call"]
pub struct Ticket {
    index: usize,
    /// The issuing plane's abandonment registry, which doubles as the
    /// ticket's proof of origin; `None` once the ticket has been defused
    /// (redeemed through a wait path, so drop must not mark).
    board: Option<Arc<AbandonBoard>>,
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
    fn defuse(&mut self) -> usize {
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

/// One attempt at the claim step of a submission: `Some(seq)`
/// once this caller owns slot `seq % capacity` (state `EMPTY`, ready for
/// `publish`), `None` when the ring is full, the target slot is still
/// occupied, or another requester won the head CAS — the caller retries.
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
fn claim_slot<Req, Resp>(ring: &RingShared<Req, Resp>) -> Option<usize> {
    let (cap, gov) = (ring.slots.len(), &ring.governor);
    // Tail before head: a tail snapshot taken first cannot exceed the head
    // snapshot, so the subtraction cannot underflow.
    let tail = ring.tail.load(Ordering::Acquire);
    // Acquire: pairs with the AcqRel head CAS of the previous claimant.
    let seq = ring.head.load(Ordering::Acquire);
    let occupancy = occupancy(seq, tail);
    // Backlog deeper than the policy threshold (or a full ring) means the
    // active responders are outpaced: admit another.
    if gov.adaptive() && occupancy > gov.tuning.target_occupancy {
        gov.try_raise();
    }
    if occupancy >= cap {
        return None;
    }
    let slot = ring.slot(seq);
    // Acquire (inside `state`): pairs with the Release `EMPTY` store of
    // the previous call's `redeem`.
    match slot.state() {
        EMPTY => {}
        // A completed call whose ticket was dropped unredeemed: reap it so
        // the lap proceeds instead of wedging. The occupant is exactly call
        // `seq - cap`, so the board's exact-sequence CAS can neither match
        // a live call nor hand the reap to two racing claimants.
        DONE if ring.abandon.try_take(seq.wrapping_sub(cap)) => {
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
    let next = seq.wrapping_add(1);
    ring.head
        .compare_exchange(seq, next, Ordering::AcqRel, Ordering::Relaxed)
        .ok()
}

/// The reap pick of `wait_any`: the position in
/// `tickets` of the *oldest* completed call, or `None` if none completed.
///
/// Oldest, never first-found: when the responders complete calls faster
/// than the caller redeems them (a cheap handler, a batched drain), every
/// ticket of the set is DONE at scan time, and a first-found scan keeps
/// redeeming whichever ticket `swap_remove` rotated to the front — always
/// the youngest — while older DONE slots sit un-redeemed until the head
/// laps onto one and `submit` spins on a slot only this very caller could
/// free. Oldest-first bounds an un-redeemed completion's age by the
/// caller's in-flight window.
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
fn oldest_done<Req, Resp>(slots: &[CallSlot<Req, Resp>], tickets: &[Ticket]) -> Option<usize> {
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

/// The wait loop shared by every blocking redeem path: polls `ready` until
/// it yields, or the plane shut down and the grace ran out.
fn poll_until<T>(
    shutdown: &AtomicBool,
    gov: &GovernorState,
    mut ready: impl FnMut() -> Option<T>,
) -> Result<T> {
    let mut backoff = Backoff::new();
    let mut grace: u32 = 0;
    let mut polls: u32 = 0;
    loop {
        if let Some(hit) = ready() {
            return Ok(hit);
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
    /// Is the fused run-to-completion path worth taking right now? The
    /// plane must be able to doze, its active responders must all doze and
    /// the ring's backlog must be below the break-even threshold. A plane
    /// that cannot doze stops at its own config; quiescence is read next:
    /// on a plane whose responders are awake it fails on two rarely
    /// written words, so an active plane never reads the
    /// responder-written `tail` line here. A plane shutting down takes the
    /// pooled path, which reports `ResponderGone`.
    fn fused_eligible(&self) -> bool {
        let shared = &*self.shared;
        self.config.idle_polls_before_sleep.is_some()
            && shared.quiescent()
            && !shared.shutdown.load(Ordering::Acquire)
            && shared.occupancy_snapshot() < FUSED_BELOW_OCCUPANCY
    }

    /// Claims a slot, publishes `req` into it and wakes a responder,
    /// returning the absolute slot sequence. On failure the request is
    /// handed back so the caller can recover it (the fallback path).
    fn submit_request(
        &self,
        id: u32,
        req: Req,
    ) -> core::result::Result<usize, (HotCallError, Req)> {
        let shared = &*self.shared;
        let mut backoff = Backoff::new();
        for _retry in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Err((HotCallError::ResponderGone, req));
                }
                let Some(head) = claim_slot(shared) else {
                    core::hint::spin_loop();
                    continue;
                };
                let slot = shared.slot(head);
                // SAFETY: `claim_slot` won the head CAS, which grants
                // exclusive claim ownership of this slot; publish once.
                unsafe { slot.publish(head, id, req) };
                // Wake a sleeping responder (after the SUBMITTED store).
                if shared.doze.wake() {
                    shared.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(head);
            }
            backoff.snooze();
        }
        shared.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err((
            HotCallError::ResponderTimeout {
                retries: self.config.timeout_retries,
            },
            req,
        ))
    }

    /// Claims a slot and submits a request without waiting. Returns a
    /// [`Ticket`] to redeem the response against a requester of this
    /// plane.
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
        match self.submit_request(id, req) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&self.shared.abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// Spins until the slot behind `index` is DONE. While it ages, the
    /// governor is asked for another responder. Returns `Err` only on
    /// shutdown-with-grace-expired.
    fn wait_done(&self, index: usize) -> Result<()> {
        let slot = self.shared.slot(index);
        let done = || (slot.state() == DONE).then_some(());
        poll_until(&self.shared.shutdown, &self.shared.governor, done)
    }

    /// Redeems the response sitting DONE at `index`. The caller must be
    /// (or act for) the submitter and must have observed `DONE` with
    /// Acquire.
    fn redeem(&self, index: usize) -> Result<Resp> {
        let slot = self.shared.slot(index);
        // Read the completion stamp before redeeming: redeem frees the
        // slot for re-claim, after which the stamp belongs to a new call.
        let completed_at = slot.completed_at();
        // SAFETY: this requester submitted the call at `index` on this
        // plane (every ticket-taking caller checked the ticket's issuer)
        // and observed DONE with Acquire; only the submitter redeems a
        // slot, and the previous lap's DONE was redeemed before this slot
        // could be claimed again, so this DONE is ours.
        let result = unsafe { slot.redeem() };
        self.reap.record(now_cycles().saturating_sub(completed_at));
        result
    }

    /// Wait + redeem by raw slot sequence: the synchronous call paths use
    /// this directly so they never mint a ticket (and never touch the
    /// abandonment board) at all.
    fn wait_index(&self, index: usize) -> Result<Resp> {
        self.wait_done(index)?;
        self.redeem(index)
    }

    /// Waits for a submitted call to complete and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, the
    /// handler's own error, or [`HotCallError::InvalidConfig`] for a
    /// ticket another plane issued (the call is then abandoned on the
    /// plane that did).
    pub fn wait(&self, mut ticket: Ticket) -> Result<Resp> {
        self.shared.check_issuer(&ticket.board)?;
        self.wait_index(ticket.defuse())
    }

    /// Waits until *any* of `tickets` (all issued by this plane)
    /// completes, removes it from the set, and returns its sequence number
    /// (see [`Ticket::seq`]) with the response. Completion order is
    /// whatever the responder pool produces — this is the batched-reap
    /// primitive that keeps a deep pipeline full.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on an empty set, or — with the set
    /// left untouched — on one holding a ticket another plane issued;
    /// [`HotCallError::ResponderGone`] if the server shut down; a per-call
    /// failure (e.g. unknown id) is returned as-is (the offending ticket is
    /// consumed).
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        if tickets.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        }
        let shared = &*self.shared;
        // Once per call, in the caller's own memory: a foreign ticket
        // would be matched against the wrong plane's slots below.
        tickets
            .iter()
            .try_for_each(|t| shared.check_issuer(&t.board))?;
        let pick = || oldest_done(&shared.slots, tickets);
        let i = poll_until(&shared.shutdown, &shared.governor, pick)?;
        let mut ticket = tickets.swap_remove(i);
        let seq = ticket.seq();
        self.redeem(ticket.defuse()).map(|resp| (seq, resp))
    }

    /// Submit + wait in one step.
    ///
    /// On a plane whose responders can doze (`idle_polls_before_sleep`
    /// is set), once they all have and the ring is near empty, the handler
    /// runs *inline on this thread* — no slot publish, no doze wake, no
    /// cross-core cache-line transfer. Any other time the call rides the
    /// pool. A plane that cannot doze never consults this gate.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] and [`RingRequester::wait`].
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        // Synchronous calls can skip the ring entirely: nothing to
        // pipeline, no ticket to mint, so the fused path is a plain
        // dispatch on the requester's core.
        if self.fused_eligible() {
            let result = self
                .shared
                .table
                .dispatch(id, req)
                .ok_or(HotCallError::UnknownCallId(id));
            self.shared.fused_runs.fetch_add(1, Ordering::Relaxed);
            trace("fused_run", id as u64, 1);
            return result;
        }
        match self.submit_request(id, req) {
            Ok(index) => self.wait_index(index),
            Err((e, _)) => Err(e),
        }
    }

    /// Issues a call, running `fallback` locally if the fast path times
    /// out — the paper's SDK-call fallback, generalized to the ring.
    ///
    /// The request is moved into the ring only after the claim succeeds,
    /// so the hot path never clones: on timeout the original request
    /// comes back out of the failed submission and goes to `fallback`
    /// as-is.
    pub fn call_with_fallback<F>(&self, id: u32, req: Req, fallback: F) -> Result<Resp>
    where
        F: FnOnce(Req) -> Resp,
    {
        match self.submit_request(id, req) {
            Ok(index) => self.wait_index(index),
            Err((HotCallError::ResponderTimeout { .. }, req)) => Ok(fallback(req)),
            Err((e, _)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn table() -> (CallTable<u64, u64>, u32) {
        let mut t = CallTable::new();
        let sq = t.register(|x| x * x);
        (t, sq)
    }

    fn generous() -> HotCallConfig {
        HotCallConfig::patient()
    }

    type Server = RingServer<u64, u64>;

    type Spawn = fn(CallTable<u64, u64>, usize, HotCallConfig) -> Server;

    /// The plane shapes every shape-agnostic test runs over: the ring with
    /// one responder and with a pool of four.
    const SHAPES: [(&str, Spawn); 2] = [
        ("1 responder", |t, cap, config| {
            RingServer::spawn_pool(t, cap, 1, config).unwrap()
        }),
        ("4 responders", |t, cap, config| {
            RingServer::spawn_pool(t, cap, 4, config).unwrap()
        }),
    ];

    /// Runs `test` once per shape over a fresh squaring table; `shape`
    /// names the plane in assertion messages.
    fn each_shape(capacity: usize, config: HotCallConfig, test: impl Fn(&str, Server, u32)) {
        for (shape, spawn) in SHAPES {
            let (t, sq) = table();
            test(shape, spawn(t, capacity, config), sq);
        }
    }

    /// Blocks until every responder of `server` sleeps on a work doze.
    fn await_all_dozing(server: &Server) {
        let dozing = || server.shared.doze.sleepers.load(Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while dozing() < server.responders() {
            assert!(Instant::now() < deadline, "responders never slept");
            std::thread::yield_now();
        }
    }

    #[test]
    fn call_roundtrip() {
        each_shape(4, generous(), |shape, server, sq| {
            let r = server.requester();
            assert_eq!(r.call(sq, 7).unwrap(), 49, "{shape}");
            assert_eq!(server.stats().calls, 1, "{shape}");
        });
    }

    #[test]
    fn wait_any_reaps_out_of_order() {
        each_shape(16, generous(), |shape, server, sq| {
            let r = server.requester();
            let mut tickets: Vec<Ticket> = (0..10u64).map(|i| r.submit(sq, i).unwrap()).collect();
            let mut seen = std::collections::BTreeMap::new();
            while !tickets.is_empty() {
                let (seq, resp) = r.wait_any(&mut tickets).unwrap();
                assert!(seen.insert(seq, resp).is_none(), "{shape}: seq {seq} twice");
            }
            // Sequence numbers are the ring indices 0..10 on a
            // fresh server, and each response is the square of its
            // submission payload.
            let got: Vec<(u64, u64)> = seen.into_iter().collect();
            let want: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i * i)).collect();
            assert_eq!(got, want, "{shape}");
        });
    }

    #[test]
    fn pipelined_unknown_id_fails_only_its_ticket() {
        each_shape(4, generous(), |shape, server, sq| {
            let r = server.requester();
            let tickets = [r.submit(sq, 3), r.submit(999, 1), r.submit(sq, 4)];
            let results = tickets.map(|t| r.wait(t.unwrap()));
            assert_eq!(*results[0].as_ref().unwrap(), 9, "{shape}");
            assert!(
                matches!(results[1], Err(HotCallError::UnknownCallId(999))),
                "{shape}"
            );
            assert_eq!(*results[2].as_ref().unwrap(), 16, "{shape}");
        });
    }

    #[test]
    fn wraps_many_times() {
        each_shape(2, generous(), |shape, server, sq| {
            let r = server.requester();
            for i in 0..5_000u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i, "{shape}");
            }
            assert_eq!(server.stats().calls, 5_000, "{shape}");
        });
    }

    #[test]
    fn fallback_runs_locally_on_timeout() {
        for (shape, spawn) in SHAPES {
            let mut t: CallTable<u64, u64> = CallTable::new();
            let slow = t.register(|x| {
                std::thread::sleep(std::time::Duration::from_millis(200));
                x
            });
            // Capacity-1 ring: while the slow call is in flight the ring is
            // full, so a second call times out and falls back.
            let config = HotCallConfig {
                timeout_retries: 2,
                spins_per_retry: 4,
                ..HotCallConfig::default()
            };
            let server = spawn(t, 1, config);
            let r1 = server.requester();
            let r2 = server.requester();
            let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(50));
            let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
            assert_eq!(v, 105, "{shape}");
            assert!(server.stats().fallbacks >= 1, "{shape}");
            assert_eq!(blocker.join().unwrap(), 7, "{shape}");
        }
    }

    #[test]
    fn shutdown_fails_inflight_and_future_calls() {
        each_shape(2, generous(), |shape, server, sq| {
            let r = server.requester();
            assert_eq!(r.call(sq, 3).unwrap(), 9, "{shape}");
            server.shutdown();
            assert!(
                matches!(r.submit(sq, 1), Err(HotCallError::ResponderGone)),
                "{shape}"
            );
        });
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let rejected = |server: Result<Server>| {
            assert!(matches!(server, Err(HotCallError::InvalidConfig(_))));
        };
        let t = || table().0;
        rejected(RingServer::spawn_pool(t(), 0, 2, generous()));
        rejected(RingServer::spawn_pool(t(), 8, 0, generous()));
        let two = ResponderPolicy::fixed(2);
        rejected(RingServer::spawn_adaptive(t(), 0, two, generous()));
        for (min, max) in [(0, 2), (2, 1)] {
            let policy = ResponderPolicy::elastic(min, max);
            rejected(RingServer::spawn_adaptive(t(), 8, policy, generous()));
        }
    }

    #[test]
    fn one_responder_snapshot_counts_every_call() {
        // After a fixed call sequence every counter that does not count
        // empty polls, and the shape of every snapshot, is exact.
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 8, 1, generous()).unwrap();
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
        }
        // An unknown id is a serviced call that returns an error.
        assert!(r.call(999, 3).is_err());
        assert_eq!(server.stats(), server.ring_stats().totals);
        let t = server.telemetry("p");
        let rs = t.stats;
        assert_eq!((rs.totals.calls, rs.totals.busy_polls), (105, 105));
        assert_eq!((rs.shards.len(), rs.shards[0].serviced), (1, 105));
        assert_eq!((t.kind, t.lanes.len()), ("single", 1));
    }

    /// Two planes of the same payload type, on one responder and on a
    /// pool, each with one completed call whose ticket is still out. Each
    /// ticket comes paired with the other plane's handle, which has a DONE
    /// slot of its own at the ticket's sequence, so without the issuer
    /// check the ticket redeems somebody else's response instead of
    /// waiting forever.
    #[allow(clippy::type_complexity)]
    fn foreign_tickets() -> (Vec<Server>, u32, Vec<(RingRequester<u64, u64>, Ticket)>) {
        let (t, sq) = table();
        let single = RingServer::spawn_pool(t, 4, 1, generous()).unwrap();
        let (t, _) = table();
        let pool = RingServer::spawn_pool(t, 4, 2, generous()).unwrap();
        let servers = vec![single, pool];
        let mut handles: Vec<_> = servers.iter().map(RingServer::requester).collect();
        let tickets: Vec<Ticket> = handles
            .iter()
            .map(|r| {
                let ticket = r.submit(sq, 3).unwrap();
                while r.shared.slot(ticket.index).state() != DONE {
                    std::thread::yield_now();
                }
                ticket
            })
            .collect();
        // Each plane's ticket goes to the other plane's handle.
        handles.rotate_left(1);
        let cases = handles.into_iter().zip(tickets).collect();
        (servers, sq, cases)
    }

    fn is_foreign<T>(result: &Result<T>) -> bool {
        matches!(result, Err(HotCallError::InvalidConfig(m)) if m.contains("another plane"))
    }

    #[test]
    fn wait_refuses_a_foreign_ticket_and_abandons_it_at_its_issuer() {
        let (servers, sq, cases) = foreign_tickets();
        for (wrong, ticket) in cases {
            assert!(is_foreign(&wrong.wait(ticket)));
        }
        // The refusal dropped each ticket, and the drop marked the call on
        // its own board: the issuing planes keep lapping their 4 slots.
        for server in &servers {
            let r = server.requester();
            for i in 0..16u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i);
            }
        }
    }

    #[test]
    fn wait_any_refuses_a_foreign_ticket_and_keeps_the_set() {
        let (_servers, _, cases) = foreign_tickets();
        for (wrong, ticket) in cases {
            let mut set = vec![ticket];
            assert!(is_foreign(&wrong.wait_any(&mut set)));
            assert_eq!(set.len(), 1, "a refused set stays with its owner");
        }
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
        // Let both responders doze off, then prove a submission still
        // lands (a synchronous call would now run inline and wake nobody).
        await_all_dozing(&server);
        assert_eq!(r.wait(r.submit(sq, 6).unwrap()).unwrap(), 36);
        let stats = server.stats();
        assert!(stats.wakeups >= 1, "wakeups not accounted: {stats:?}");
    }

    #[test]
    fn occupancy_is_underflow_proof() {
        // The regression this fixes: a stale head snapshot paired with a
        // fresher tail snapshot made `head - tail` underflow. The helper
        // must stay a plain difference for in-order snapshots and must not
        // panic for out-of-order ones.
        assert_eq!(occupancy(5, 3), 2);
        assert_eq!(occupancy(7, 7), 0);
        // Out-of-order snapshot (tail "ahead" of head): wraps instead of
        // panicking, and the huge value safely reads as "full" upstream.
        assert!(occupancy(3, 5) >= usize::MAX - 1);
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

    /// The default governor with a park threshold low enough to watch it
    /// work within milliseconds.
    fn eager(park_after_idle_polls: u64) -> GovernorTuning {
        GovernorTuning {
            park_after_idle_polls,
            ..GovernorTuning::DEFAULT
        }
    }

    /// Spins until the governor's snapshot satisfies `settled`.
    fn await_governor(server: &Server, settled: impl Fn(&GovernorStats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let g = server.governor_stats();
            if settled(&g) {
                return;
            }
            assert!(Instant::now() < deadline, "never settled: {g:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn governor_parks_surplus_responders_when_idle() {
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let policy = ResponderPolicy::elastic(1, 4);
        let (t, sq) = table();
        let server = RingServer::spawn_plane(t, 16, policy, eager(64), config).unwrap();
        assert_eq!(server.responders(), 4);
        let r = server.requester();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        // With no work, the three governable responders demote themselves
        // top-down and park.
        await_governor(&server, |g| g.active == 1 && g.parked == 3 && g.parks >= 3);
        // The remaining responder still serves submissions.
        assert_eq!(r.wait(r.submit(sq, 5).unwrap()).unwrap(), 25);
    }

    #[test]
    fn governor_wakes_parked_responders_on_backlog() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x + 1
        });
        let policy = ResponderPolicy::elastic(1, 4);
        let tuning = GovernorTuning {
            target_occupancy: 1,
            park_after_idle_polls: 64,
        };
        let server = RingServer::spawn_plane(t, 32, policy, tuning, generous()).unwrap();
        let r = server.requester();
        // Let the pool park down to the minimum first.
        await_governor(&server, |g| g.active == 1);
        // Pipeline a burst of blocking calls: occupancy builds behind the
        // single active responder, requesters raise the target, parked
        // responders wake and help.
        let mut tickets: Vec<Ticket> = (0..24u64).map(|i| r.submit(slow, i).unwrap()).collect();
        while !tickets.is_empty() {
            let (_, resp) = r.wait_any(&mut tickets).unwrap();
            assert!(resp >= 1);
        }
        let g = server.governor_stats();
        assert!(g.wakes >= 1, "backlog never raised the target: {g:?}");
        assert_eq!(server.stats().calls, 24);
    }

    #[test]
    fn concurrent_requesters_lose_nothing() {
        // Four threads, one handle each, sharing the one ring's head word.
        each_shape(8, generous(), |shape, server, sq| {
            let stamp = |th: u64, i: u64| th * 1_000 + i;
            let total: u64 = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4u64)
                    .map(|th| {
                        let r = server.requester();
                        let calls = move |i| r.call(sq, stamp(th, i)).unwrap();
                        s.spawn(move || (0..400).map(calls).sum::<u64>())
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum::<u64>()
            });
            let squares = |th| (0..400).map(move |i| stamp(th, i) * stamp(th, i));
            assert_eq!(total, (0..4).flat_map(squares).sum::<u64>(), "{shape}");
            assert_eq!(server.stats().calls, 1_600, "{shape}");
        });
    }

    #[test]
    fn auto_policy_resolves_and_serves() {
        let (t, sq) = table();
        let server = RingServer::spawn_adaptive(t, 4, ResponderPolicy::auto(), generous()).unwrap();
        assert!(server.responders() >= 1);
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
    }

    #[test]
    fn park_unpark_race_never_strands_a_submission() {
        // Race a requester against an aggressive governor that parks and
        // re-admits responders between bursts: parking must never take
        // the last active responder away from a published submission, so
        // every call completes well inside the deadline. Submit + wait,
        // not `call`: a synchronous call on the dozed plane would run
        // inline and publish nothing.
        let (t, sq) = table();
        let policy = ResponderPolicy::elastic(1, 3);
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(32),
            ..generous()
        };
        let server = RingServer::spawn_plane(t, 4, policy, eager(16), config).unwrap();
        let r = server.requester();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for i in 0..3_000u64 {
            assert_eq!(r.wait(r.submit(sq, i).unwrap()).unwrap(), i * i);
            assert!(
                std::time::Instant::now() < deadline,
                "stranded after {i} calls: {:?}",
                server.ring_stats()
            );
            if i % 64 == 0 {
                // Let demotions ripen between bursts so the parked window
                // is actually exercised.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert_eq!(server.stats().calls, 3_000);
    }

    /// A patient plane whose responders doze after `idle` empty polls
    /// (`None`: they spin forever, so no call ever runs inline).
    fn dozing(idle: Option<u64>) -> HotCallConfig {
        HotCallConfig {
            idle_polls_before_sleep: idle,
            ..HotCallConfig::patient()
        }
    }

    #[test]
    fn unknown_id_propagates_pooled_and_fused() {
        for (config, fused) in [(generous(), 0), (dozing(Some(64)), 1)] {
            each_shape(4, config, |shape, server, _| {
                let r = server.requester();
                if fused == 1 {
                    await_all_dozing(&server);
                }
                assert!(
                    matches!(r.call(42, 1), Err(HotCallError::UnknownCallId(42))),
                    "{shape}"
                );
                let s = server.stats();
                assert_eq!(s.fused_runs, fused, "{shape}: {s:?}");
            });
        }
    }

    #[test]
    fn wait_any_redeems_oldest_and_never_wedges_on_wrap() {
        // Regression: when the responders complete a window faster than
        // the caller redeems it, every outstanding ticket is DONE at scan
        // time, and a first-found `wait_any` kept redeeming whichever
        // ticket `swap_remove` had rotated to the front — always the
        // youngest — while older DONE slots sat un-redeemed until the head
        // lapped onto one and `submit` spun forever on a slot only this
        // very thread could free. This loop wraps the 8-slot ring dozens
        // of times.
        //
        // On a pool a responder descheduled mid-service
        // can still hold the oldest call while others complete younger
        // ones around it, so the loop keeps `submit`'s lap rule: a ticket
        // a full lap behind is redeemed by name before submitting past it.
        // Behind one in-order responder that rule never has to fire —
        // oldest-first hands back the oldest ticket whenever any is done —
        // while a first-found pick strands older DONE tickets until it
        // must.
        const CAPACITY: u64 = 8;
        let in_order = SHAPES[0].0;
        each_shape(CAPACITY as usize, generous(), |shape, server, sq| {
            let r = server.requester();
            let mut tickets: Vec<Ticket> = Vec::new();
            let (mut submitted, mut redeemed, mut lapped) = (0u64, 0u64, 0u64);
            while redeemed < 500 {
                while tickets.len() < 4 {
                    let behind = |t: &Ticket| t.seq() + CAPACITY <= submitted;
                    if let Some(at) = tickets.iter().position(behind) {
                        r.wait(tickets.swap_remove(at)).unwrap();
                        (redeemed, lapped) = (redeemed + 1, lapped + 1);
                    }
                    tickets.push(r.submit(sq, submitted).unwrap());
                    submitted += 1;
                }
                let (_, resp) = r.wait_any(&mut tickets).unwrap();
                assert!(resp <= (submitted - 1) * (submitted - 1), "{shape}");
                redeemed += 1;
            }
            while !tickets.is_empty() {
                r.wait_any(&mut tickets).unwrap();
                redeemed += 1;
            }
            assert_eq!(redeemed, submitted, "{shape}");
            assert_eq!(server.stats().calls, submitted, "{shape}");
            if shape == in_order {
                assert_eq!(lapped, 0, "{shape}: wait_any skipped the oldest");
            }
        });
    }

    #[test]
    fn a_plane_that_cannot_doze_uses_the_pool() {
        // Spinning responders (no doze) keep the ring attended:
        // occupancy is low, but the call must not run inline — the pool
        // services it.
        each_shape(4, dozing(None), |shape, server, sq| {
            let r = server.requester();
            assert_eq!(r.call(sq, 9).unwrap(), 81, "{shape}");
            let s = server.stats();
            assert_eq!(s.calls, 1, "{shape}");
            assert_eq!(s.fused_runs, 0, "{shape}: {s:?}");
            let rs = server.ring_stats();
            assert_eq!(rs.shards[0].serviced, 1, "{shape}: {rs:?}");
        });
    }

    #[test]
    fn calls_fuse_once_responders_doze() {
        each_shape(8, dozing(Some(64)), |shape, server, sq| {
            let r = server.requester();
            await_all_dozing(&server);
            let before_wakes = server.stats().wakeups;
            // Quiet plane, every responder dozing: the call runs inline
            // and pays no wake.
            assert_eq!(r.call(sq, 12).unwrap(), 144, "{shape}");
            let s = server.stats();
            assert_eq!(s.fused_runs, 1, "{shape}: {s:?}");
            assert_eq!(s.wakeups, before_wakes, "{shape}: a fused call paid a wake");
        });
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        each_shape(8, dozing(Some(64)), |shape, server, sq| {
            let r = server.requester();
            // Alternate quiet single calls (fuse once responders doze)
            // with pipelined bursts (occupancy pushes past break-even →
            // pooled). Exact conservation across the mixed paths is the
            // invariant.
            for round in 0..50u64 {
                assert_eq!(r.call(sq, round).unwrap(), round * round, "{shape}");
                let mut tickets: Vec<Ticket> = (0..4u64)
                    .map(|i| r.submit(sq, round * 10 + i).unwrap())
                    .collect();
                while !tickets.is_empty() {
                    r.wait_any(&mut tickets).unwrap();
                }
            }
            assert_eq!(server.stats().calls, 250, "{shape}");
        });
    }

    #[test]
    fn submissions_ride_the_pool_on_a_dozing_plane() {
        // Pipelined submissions never fuse, even with the
        // break-even gate wide open (dozing responders, empty ring): the
        // pipelined caller asked for overlap, and an inline completion would
        // keep occupancy at zero so the plane never hands a burst to the
        // pool at all.
        each_shape(8, dozing(Some(64)), |shape, server, sq| {
            let r = server.requester();
            await_all_dozing(&server);
            let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
            while !tickets.is_empty() {
                r.wait_any(&mut tickets).unwrap();
            }
            let s = server.stats();
            assert_eq!(s.calls, 4, "{shape}");
            assert_eq!(s.fused_runs, 0, "{shape}: {s:?}");
        });
    }
}
