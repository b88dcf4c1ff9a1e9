//! The queued HotCalls plane: one or more multi-slot submission rings, a
//! responder pool that drains and steals, pipelined completions, and call
//! bundling.
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
//! **One core, two shapes.** A plane is `S` shards — each a full ring
//! (slots, head, tail, doze line, abandon board, all cache-padded) — and
//! `R ≥ S` responders, responder `i` homing on shard `i % S`. A *ring*
//! ([`RingServer::spawn`], [`RingServer::spawn_pool`],
//! [`RingServer::spawn_adaptive`]) is the `S = 1, R = max` shape: every
//! requester shares one head word and every responder drains the one
//! ring. A *sharded plane* ([`RingServer::spawn_sharded`]) is the
//! `S = R = max` shape: at scale the shared head CAS becomes the new
//! 620-cycle-class bottleneck, so each shard gets exactly one home
//! responder and each requester is pinned to a home shard — uncontended
//! requesters never share a head CAS with anyone. Both shapes run the same
//! submit, wait, drain, park and shutdown code; nothing below branches on
//! which constructor built the plane, only on the shard count it can see.
//!
//! Three mechanisms pipeline the plane beyond the paper's synchronous
//! protocol:
//!
//! * **Pipelined completions** — [`RingRequester::submit`] returns a
//!   [`Ticket`] immediately; [`RingRequester::wait`] and
//!   [`RingRequester::wait_any`] reap completions in any order, so one
//!   requester keeps many slots in flight and a blocked handler no longer
//!   serializes the ring.
//! * **Call bundles** — a [`Bundle`] packs N small calls into *one* ring
//!   submission serviced by *one* responder dispatch: one slot claim, one
//!   head CAS, at most one doze wakeup for the whole bundle.
//! * **Adaptive governor** — a [`ResponderPolicy`]`{min, max}` replaces
//!   the static pool size on either shape: requesters raise the
//!   active-responder target when a ring backs up (or their in-flight
//!   calls age), and the top active responder demotes itself and *parks*
//!   after a useful-work drought.
//!   Parked responders sleep on a doze that per-call wakeups never touch,
//!   so surplus pollers stop burning the cores the requesters need.
//!
//! **Work-stealing.** A responder drains its home shard first; only when
//! the home shard is empty does it probe sibling shards, in an order
//! rotated per pass so the probe load spreads instead of convoying on
//! shard 0 (see [`super::pool`]). A burst on one shard is therefore
//! absorbed by responders that were already awake on quiet shards — no
//! extra thread wakes for it. `steals` counts sibling probes, `steal_hits`
//! the probes that claimed work; on one shard there is no sibling and both
//! stay zero.
//!
//! **Shards and the governor.** Responders with index at or above the
//! active target park on the shared park doze. A shard whose index is at
//! or above the target has no active home responder: the router stops
//! assigning new requesters to it, its residual submissions are reaped by
//! the stealing responders (every responder's probe set covers *all*
//! shards, parked included), and a submission to it redirects its wakeup
//! to an active sibling — counted as `cross_shard_wakes` on the home
//! shard. On one shard the target never drops below `min ≥ 1`, so shard 0
//! always has an active home responder and none of that machinery runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::{FusedMode, HotCallConfig, ResponderPolicy, FUSED_BELOW_OCCUPANCY};
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

/// The adaptive pool's control block, shared by every shard of a plane.
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

/// One shard: a full ring with its own head, tail, doze line and abandon
/// board. Responder `i` homes on shard `i % S`; a ring is the plane with
/// exactly one of these.
pub(super) struct Shard<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[RingSlot<Req, Resp>]>,
    /// Next slot index a requester of *this shard* claims. Padded:
    /// requesters hammer this line; responders must not. Only this
    /// shard's requesters touch it — the whole point of sharding.
    head: CachePadded<AtomicUsize>,
    /// Next slot index the responders service (a home responder or a
    /// stealer). Padded likewise.
    pub(super) tail: CachePadded<AtomicUsize>,
    /// This shard's own doze line: per-call wakeups on one shard never
    /// disturb another shard's responder.
    pub(super) doze: Doze,
    /// Submissions to this shard whose wakeup was redirected to a sibling
    /// responder (home responder parked or saturated).
    cross_shard_wakes: AtomicU64,
    /// Dropped-unredeemed ticket registry (see [`AbandonBoard`]): tickets
    /// hold a clone, claimants lapping onto a marked slot reap it. One
    /// board per shard because slot sequences are per-shard — which also
    /// makes the board's address the ticket's proof of origin.
    abandon: Arc<AbandonBoard>,
}

impl<Req, Resp> Shard<Req, Resp> {
    fn new(capacity: usize) -> Self {
        Shard {
            slots: (0..capacity).map(|_| CallSlot::new()).collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            doze: Doze::new(),
            cross_shard_wakes: AtomicU64::new(0),
            abandon: AbandonBoard::new(capacity),
        }
    }

    /// The slot call `seq` lives in.
    #[inline]
    pub(super) fn slot(&self, seq: usize) -> &RingSlot<Req, Resp> {
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
    /// claim right now)?
    pub(super) fn front_submitted(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        pool::submitted_run(&self.slots, tail, 1) > 0
    }

    /// Was the ticket carrying `board` minted by this shard? A ticket is
    /// only a sequence number; redeeming it against another shard's (or
    /// another plane's) slots would hand out somebody else's response or
    /// wait on a slot that never completes. The ticket's clone of the
    /// abandon board is its proof of origin.
    fn check_issuer(&self, board: &Option<Arc<AbandonBoard>>) -> Result<()> {
        match board {
            Some(board) if Arc::ptr_eq(board, &self.abandon) => Ok(()),
            _ => Err(HotCallError::InvalidConfig(
                "ticket was issued by another plane or shard",
            )),
        }
    }
}

/// Per-responder statistics cell: the shared transport counters plus the
/// stealing counters. Only the owning responder writes any of it (plain
/// stores, no shared RMW on the hot path).
#[derive(Default)]
pub(super) struct ResponderCell {
    pub(super) base: StatCell,
    pub(super) home_polls: AtomicU64,
    pub(super) steals: AtomicU64,
    pub(super) steal_hits: AtomicU64,
}

pub(super) struct RingShared<Req, Resp> {
    pub(super) shards: Box<[Shard<Req, Resp>]>,
    /// The handler table, shared with every responder thread. Holding it
    /// here as well lets a *requester* dispatch inline on the fused
    /// run-to-completion path without any handoff.
    pub(super) table: CallTable<Req, Resp>,
    pub(super) shutdown: AtomicBool,
    /// `active_target` counts active *responders*; on the sharded shape
    /// (one responder per shard) that is also the active shard count. The
    /// park doze hosts the responders above it.
    pub(super) governor: GovernorState,
    /// Round-robin cursor pinning new requesters to home shards.
    next_home: AtomicUsize,
    /// Rotates the sibling a redirected wakeup lands on.
    wake_cursor: AtomicUsize,
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
    /// cell of their own, and the fused path only runs when the home shard
    /// is quiet, so contention on these lines is structurally rare.
    fused_runs: AtomicU64,
    fused_fallbacks: AtomicU64,
}

impl<Req, Resp> RingShared<Req, Resp> {
    /// Is any shard's ring front claimable right now? The sleep predicate
    /// of every responder: a stealer must not doze past work on a sibling
    /// shard it could reap.
    pub(super) fn any_front_submitted(&self) -> bool {
        self.shards.iter().any(Shard::front_submitted)
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

    /// One [`ShardStats`] row per shard, each summing the cells of that
    /// shard's home responders (`shard, shard + S, …`).
    fn ring_snapshot(&self) -> RingStats {
        let active = self.governor.active_target.load(Ordering::Relaxed);
        let n = self.shards.len();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut row = ShardStats {
                    shard: i,
                    cross_shard_wakes: shard.cross_shard_wakes.load(Ordering::Relaxed),
                    parked: i >= active,
                    occupancy: shard.occupancy_snapshot(),
                    ..ShardStats::default()
                };
                for cell in self.responders.iter().skip(i).step_by(n) {
                    row.serviced += cell.base.calls.load(Ordering::Relaxed);
                    row.home_polls += cell.home_polls.load(Ordering::Relaxed);
                    row.steals += cell.steals.load(Ordering::Relaxed);
                    row.steal_hits += cell.steal_hits.load(Ordering::Relaxed);
                }
                row
            })
            .collect();
        RingStats {
            totals: self.snapshot(),
            governor: self.governor_snapshot(),
            shards,
        }
    }

    /// The plane's full telemetry view: counters plus one lane of stage
    /// histograms per responder and the plane-wide reap histogram. Work a
    /// responder stole from a sibling shard is attributed to the
    /// *stealing* responder's lane, keeping each histogram cell
    /// single-writer.
    fn plane_telemetry(&self, name: &str, kind: &'static str) -> PlaneTelemetry {
        PlaneTelemetry {
            name: name.to_string(),
            kind,
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

    /// Are `shard`'s home responders all out of the way (parked by the
    /// governor or dozing on the shard's doze)? While this holds, no home
    /// responder core is spinning on the ring, so a requester executing
    /// inline steals nothing and saves the wake + cross-core transfer. A
    /// shard above the active target has no home responder at all; an
    /// active one counts once each of its `⌈(active − shard) / S⌉` active
    /// home responders dozes. Stealers may still visit either way. The
    /// check is a heuristic — the service-ownership CAS is what keeps the
    /// fused path correct when a responder wakes mid-decision.
    fn home_quiescent(&self, home: usize, shard: &Shard<Req, Resp>) -> bool {
        let active = self.governor.active_target.load(Ordering::Relaxed);
        let homes = active.saturating_sub(home).div_ceil(self.shards.len());
        shard.doze.sleepers.load(Ordering::Relaxed) >= homes
    }

    /// Wakes a responder for a submission just published on `shard`
    /// (shard index `home`).
    ///
    /// Order of preference: the home shard's own doze (the common,
    /// contention-free case); failing that — the home responder is awake,
    /// busy, or parked — a sibling's doze, but only when the home shard
    /// actually needs help (it has no active home responder, or backlog is
    /// building behind its busy one). Redirected wakes are counted as
    /// `cross_shard_wakes` on the home shard.
    fn wake_for(&self, home: usize, shard: &Shard<Req, Resp>) {
        let n = self.shards.len();
        if n == 1 {
            // No sibling to redirect to, so the redirect evidence below
            // (a SeqCst target load and a read of the responder-written
            // `tail` line) would be gathered for nothing — once per
            // pipelined submission.
            if shard.doze.wake() {
                self.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // One coherent snapshot per submission, taken *before* the home
        // wake attempt. `active` is loaded SeqCst so it is ordered with
        // the governor's demote/raise CASes; the park decision and the
        // backlog reading both come from this single snapshot. The old
        // code re-read `active` only after a failed home wake, racing
        // `try_demote`: the home responder could park between the wake
        // attempt and the re-read, and the redirect then concluded
        // "active, no backlog" for a shard that had just lost its
        // responder — stranding the submission until the next steal probe.
        let active = self.governor.active_target.load(Ordering::SeqCst);
        let parked_home = home >= active;
        // Tail before head (see `occupancy`). The caller has already
        // published its own submission, so `> 1` means work *beyond* this
        // call is queued behind a busy responder.
        let backlog = shard.occupancy_snapshot() > 1;
        if shard.doze.wake() {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !parked_home && !backlog {
            return;
        }
        let start = self.wake_cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let sibling = (start + i) % n;
            if sibling == home {
                continue;
            }
            if self.shards[sibling].doze.wake() {
                shard.cross_shard_wakes.fetch_add(1, Ordering::Relaxed);
                self.wakeups.fetch_add(1, Ordering::Relaxed);
                trace("wake_redirect", home as u64, sibling as u64);
                return;
            }
        }
    }
}

impl<Req, Resp> core::fmt::Debug for RingShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingShared")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.shards[0].slots.len())
            .field("responders", &self.responders.len())
            .field("governor", &self.governor)
            .finish()
    }
}

/// A running plane: a pool of responder threads draining one or more
/// multi-slot submission rings in batches, stealing across them, governed
/// by a [`ResponderPolicy`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::{HotCallConfig, ResponderPolicy};
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn(table, 8, HotCallConfig::default());
/// let requester = server.requester();
/// assert_eq!(requester.call(inc, 9).unwrap(), 10);
///
/// // The same type, two shards with one work-stealing responder each.
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server =
///     RingServer::spawn_sharded(table, 8, ResponderPolicy::fixed(2), HotCallConfig::patient())
///         .unwrap();
/// assert_eq!(server.requester().call(inc, 41).unwrap(), 42);
/// assert_eq!(server.shards(), 2);
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
        table: CallTable<Req, Resp>,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        Self::spawn_plane(table, capacity, 1, policy, GovernorTuning::DEFAULT, config)
    }

    /// Spawns the sharded shape: `policy.max` shards of
    /// `capacity_per_shard` slots each, one work-stealing responder thread
    /// per shard, requesters pinned to home shards by the router. The unit
    /// of elasticity is a whole shard: between `policy.min` and
    /// `policy.max` shards are active, and parking a shard's responder
    /// stops the router from assigning new requesters to it and leaves its
    /// residual submissions to the stealers.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_adaptive`].
    pub fn spawn_sharded(
        table: CallTable<Req, Resp>,
        capacity_per_shard: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        let tuning = GovernorTuning::DEFAULT;
        Self::spawn_plane(
            table,
            capacity_per_shard,
            policy.max,
            policy,
            tuning,
            config,
        )
    }

    /// Builds `n_shards` rings of `capacity` slots and spawns
    /// `policy.max ≥ n_shards` responder threads over them.
    fn spawn_plane(
        table: CallTable<Req, Resp>,
        capacity: usize,
        n_shards: usize,
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
            shards: (0..n_shards).map(|_| Shard::new(capacity)).collect(),
            table,
            shutdown: AtomicBool::new(false),
            governor: GovernorState::new(policy, tuning),
            next_home: AtomicUsize::new(0),
            wake_cursor: AtomicUsize::new(0),
            responders: (0..n_responders)
                .map(|_| CachePadded::new(ResponderCell::default()))
                .collect(),
            reaps: ReapCells::default(),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
            fused_fallbacks: AtomicU64::new(0),
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

    /// Creates a requester pinned to a router-chosen home shard:
    /// round-robin over the shards that currently have an active home
    /// responder (always shard 0 on a ring).
    pub fn requester(&self) -> RingRequester<Req, Resp> {
        let shared = &self.shared;
        let active = shared.governor.active_target.load(Ordering::Relaxed);
        // Only shards below the governor's active target are eligible —
        // the router never assigns to a parked shard.
        let eligible = active.clamp(1, shared.shards.len());
        let home = shared.next_home.fetch_add(1, Ordering::Relaxed) % eligible;
        RingRequester::new(Arc::clone(shared), self.config, home)
    }

    /// Creates a requester pinned to an explicit home shard — the
    /// affinity override for callers that partition work themselves. A
    /// ring has only shard 0.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `shard` is out of range.
    pub fn requester_on(&self, shard: usize) -> Result<RingRequester<Req, Resp>> {
        if shard >= self.shared.shards.len() {
            return Err(HotCallError::InvalidConfig(
                "shard affinity index out of range",
            ));
        }
        Ok(RingRequester::new(
            Arc::clone(&self.shared),
            self.config,
            shard,
        ))
    }

    /// Number of responder threads in the pool (active and parked).
    pub fn responders(&self) -> usize {
        self.shared.responders.len()
    }

    /// Number of shards in the plane (1 for a ring).
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
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
    /// poll: surplus ones park (on the sharded shape their shards'
    /// residual submissions drain via stealing), and a raise wakes the
    /// parked set. The requester-side backlog governor keeps running — it
    /// can still raise the target above what the sizer set if a ring backs
    /// up.
    pub fn set_active(&self, n: usize) -> usize {
        self.shared.governor.set_target(n)
    }

    /// The full per-shard snapshot: totals, governor, and one
    /// [`ShardStats`] row per shard (steals, steal hits, home polls,
    /// cross-shard wakes, occupancy). A ring reports one row with no
    /// steals.
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }

    /// This plane's full telemetry view right now: counters plus per-lane
    /// queue/service histograms and the plane-wide reap histogram. The
    /// plane kind is `"sharded"` with more than one shard, else `"pool"`
    /// with more than one responder, else `"single"`.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        self.shared.plane_telemetry(name, self.plane_kind())
    }

    /// A [`PlaneProvider`] for [`crate::telemetry::TelemetryRegistry`]:
    /// the registry polls it at snapshot time, so the snapshot is always
    /// current. The provider holds the plane's shared state alive.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        self.telemetry_provider_as(name, self.plane_kind())
    }

    /// [`RingServer::telemetry_provider`] under a caller-chosen kind tag
    /// (the byte and sg planes label their payload type).
    pub(super) fn telemetry_provider_as(
        &self,
        name: impl Into<String>,
        kind: &'static str,
    ) -> PlaneProvider {
        let shared = Arc::clone(&self.shared);
        let name = name.into();
        Box::new(move || shared.plane_telemetry(&name, kind))
    }

    fn plane_kind(&self) -> &'static str {
        if self.shards() > 1 {
            "sharded"
        } else if self.responders() > 1 {
            "pool"
        } else {
            "single"
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
        for shard in self.shared.shards.iter() {
            shard.doze.wake_all();
        }
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

/// A handle submitting calls into its home shard of a [`RingServer`].
/// Every submission goes to the home shard's ring, so two requesters on
/// different shards never contend on a head CAS; completions may still be
/// produced by *any* responder (home or stealer). On a ring every handle
/// homes on shard 0.
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
    home: usize,
    /// This handle's reap-stage cell; only this handle records into it.
    reap: Arc<AtomicHist>,
}

impl<Req, Resp> RingRequester<Req, Resp> {
    fn new(shared: Arc<RingShared<Req, Resp>>, config: HotCallConfig, home: usize) -> Self {
        RingRequester {
            reap: shared.reaps.register(),
            shared,
            config,
            home,
        }
    }
}

impl<Req, Resp> Clone for RingRequester<Req, Resp> {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.shared), self.config, self.home)
    }
}

/// An in-flight call: redeem with [`RingRequester::wait`] or
/// [`RingRequester::wait_any`].
///
/// A ticket redeems only through the requester that issued it or a clone
/// of it (same plane, same home shard); any other handle refuses it with
/// [`HotCallError::InvalidConfig`].
///
/// Dropping a ticket unredeemed *abandons* the call: the drop marks the
/// slot on the issuing shard's abandon board, and the next claimant
/// that laps onto the completed slot reaps the stale response. The
/// response value is discarded, but the slot is released — a dropped
/// ticket no longer wedges the ring.
#[derive(Debug)]
#[must_use = "redeem the response by waiting, or drop to abandon the call"]
pub struct Ticket {
    index: usize,
    /// The issuing shard's abandonment registry, which doubles as the
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
    calls: Vec<(u32, Req)>,
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

/// One attempt at the claim step of a submission on `shard`: `Some(seq)`
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
fn claim_slot<Req, Resp>(shard: &Shard<Req, Resp>, gov: &GovernorState) -> Option<usize> {
    let cap = shard.slots.len();
    // Tail before head: a tail snapshot taken first cannot exceed the head
    // snapshot, so the subtraction cannot underflow.
    let tail = shard.tail.load(Ordering::Acquire);
    // Acquire: pairs with the AcqRel head CAS of the previous claimant.
    let seq = shard.head.load(Ordering::Acquire);
    let occupancy = occupancy(seq, tail);
    // Backlog deeper than the policy threshold (or a full ring) means the
    // active responders are outpaced: admit another (on the sharded shape
    // that un-parks a whole shard, whose responder doubles as one more
    // stealer).
    if gov.adaptive() && occupancy > gov.tuning.target_occupancy {
        gov.try_raise();
    }
    if occupancy >= cap {
        return None;
    }
    let slot = shard.slot(seq);
    // Acquire (inside `state`): pairs with the Release `EMPTY` store of
    // the previous call's `redeem`.
    match slot.state() {
        EMPTY => {}
        // A completed call whose ticket was dropped unredeemed: reap it so
        // the lap proceeds instead of wedging. The occupant is exactly call
        // `seq - cap`, so the board's exact-sequence CAS can neither match
        // a live call nor hand the reap to two racing claimants.
        DONE if shard.abandon.try_take(seq.wrapping_sub(cap)) => {
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
    shard
        .head
        .compare_exchange(seq, next, Ordering::AcqRel, Ordering::Relaxed)
        .ok()
}

/// The reap pick of `wait_any`: the position in
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
fn oldest_done<Req, Resp>(slots: &[RingSlot<Req, Resp>], tickets: &[Ticket]) -> Option<usize> {
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
    /// The home shard this requester submits to (0 on a ring).
    pub fn home(&self) -> usize {
        self.home
    }

    /// The home shard, resolved once per operation: every slot, head and
    /// tail access of a call goes through this one reference.
    #[inline]
    fn shard(&self) -> &Shard<Req, Resp> {
        &self.shared.shards[self.home]
    }

    /// Is the fused run-to-completion path worth attempting right now?
    /// `occupancy` is the requester's latest coherent tail-before-head
    /// snapshot of its home shard: under `Auto`, the shard's backlog must
    /// be below the break-even threshold and the shard must look
    /// unattended. Never true after shutdown (the caller checks the flag
    /// first), so fused configs keep the pooled `ResponderGone`
    /// semantics.
    fn fused_eligible(&self, shard: &Shard<Req, Resp>, occupancy: usize) -> bool {
        match self.config.fused_mode {
            FusedMode::Off => false,
            FusedMode::Always => true,
            FusedMode::Auto => {
                occupancy < FUSED_BELOW_OCCUPANCY && self.shared.home_quiescent(self.home, shard)
            }
        }
    }

    /// Counts (and traces) a call that was fused-eligible in principle but
    /// rode the pooled path — the break-even gate said no, or the service
    /// race was lost to a responder.
    #[inline]
    fn note_fused_fallback(&self, seq: u64) {
        if self.config.fused_mode != FusedMode::Off {
            self.shared.fused_fallbacks.fetch_add(1, Ordering::Relaxed);
            trace("fused_fallback", seq, self.home as u64);
        }
    }

    /// Tries to service the just-published slot at `index` on *this*
    /// thread. Winning the tail CAS for exactly `[index, index + 1)` is
    /// the same service-ownership edge the responder drain uses, so the
    /// requester and any awake responder or stealer can race for the slot
    /// and exactly one of them executes it. Returns `true` if the slot was
    /// serviced inline (it is DONE, awaits its normal redeem, and no
    /// wakeup is needed).
    fn try_self_service(&self, shard: &Shard<Req, Resp>, index: usize) -> bool {
        let next = index.wrapping_add(1);
        if shard
            .tail
            .compare_exchange(index, next, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // Older submissions sit ahead of ours (or a responder already
            // claimed a run covering this slot): pipelining wins, hand
            // off.
            return false;
        }
        // SAFETY: the tail CAS granted exclusive service ownership of
        // exactly this slot (tail is monotonic, so success rules out any
        // concurrent home or stealing claim), and this requester published
        // it SUBMITTED (with Release) just above, so the Acquire side of
        // the CAS sees the payload — which is its own.
        let n = unsafe { pool::service_slot_inline(shard.slot(index), &self.shared.table) };
        self.shared.fused_runs.fetch_add(n, Ordering::Relaxed);
        trace("fused_run", index as u64, n);
        true
    }

    /// Claims a slot on the home shard and publishes `env` into it,
    /// returning the absolute slot sequence. On failure the envelope is
    /// handed back so the caller can recover the request payloads (the
    /// fallback path). With `allow_fuse` (and [`FusedMode::Always`]), the
    /// requester services its own submission inline instead of waking a
    /// responder.
    fn submit_envelope(
        &self,
        shard: &Shard<Req, Resp>,
        id: u32,
        env: ReqEnvelope<Req>,
        allow_fuse: bool,
    ) -> core::result::Result<usize, (HotCallError, ReqEnvelope<Req>)> {
        let shared = &*self.shared;
        let mut backoff = Backoff::new();
        for _retry in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Err((HotCallError::ResponderGone, env));
                }
                let Some(head) = claim_slot(shard, &shared.governor) else {
                    core::hint::spin_loop();
                    continue;
                };
                let slot = shard.slot(head);
                // Pipelined submissions fuse only under an explicit `Always`.
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
                    if self.try_self_service(shard, head) {
                        // Serviced on this core: no handoff, no wake. The
                        // slot is DONE and redeems through the normal
                        // wait path.
                        return Ok(head);
                    }
                    // Lost the service race — a responder or stealer beat
                    // us to the tail, or older submissions are queued
                    // ahead. The call rides the pooled path, which still
                    // needs its wakeup: skipping it can strand this
                    // submission if every responder dozes after draining
                    // past the front.
                    self.note_fused_fallback(head as u64);
                }
                // Wake a sleeping responder (after the SUBMITTED store).
                // One wake per submission — a bundle of N calls pays this
                // at most once.
                shared.wake_for(self.home, shard);
                return Ok(head);
            }
            backoff.snooze();
        }
        shared.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err((
            HotCallError::ResponderTimeout {
                retries: self.config.timeout_retries,
            },
            env,
        ))
    }

    /// Claims a home-shard slot and submits a request without waiting.
    /// Returns a [`Ticket`] to redeem the response — against this
    /// requester or a clone of it (the shard is implicit in the pinning).
    ///
    /// An un-redeemed ticket keeps its ring slot occupied, so a
    /// submission that laps the ring onto such a slot blocks until the
    /// ticket is redeemed (or, if the ticket was dropped, reaps the
    /// abandoned response itself). Pipelined callers should keep fewer
    /// than `capacity` calls in flight per shard and redeem a ticket whose
    /// sequence number is one full lap behind the submission count before
    /// submitting past it.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if no slot frees up within the
    /// retry budget; [`HotCallError::ResponderGone`] after shutdown.
    pub fn submit(&self, id: u32, req: Req) -> Result<Ticket> {
        let shard = self.shard();
        match self.submit_envelope(shard, id, ReqEnvelope::One(req), true) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&shard.abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// Spins until the home-shard slot behind `index` is DONE. While it
    /// ages, the governor is asked for another responder (on the sharded
    /// shape: one more stealer that can reach this shard). Returns `Err`
    /// only on shutdown-with-grace-expired.
    fn wait_done(&self, shard: &Shard<Req, Resp>, index: usize) -> Result<()> {
        let slot = shard.slot(index);
        let done = || (slot.state() == DONE).then_some(());
        poll_until(&self.shared.shutdown, &self.shared.governor, done)
    }

    /// Redeems the envelope sitting DONE at `index` on the home shard.
    /// The caller must be (or act for) the submitter and must have
    /// observed `DONE` with Acquire.
    fn redeem(&self, shard: &Shard<Req, Resp>, index: usize) -> Result<RespEnvelope<Resp>> {
        let slot = shard.slot(index);
        // Read the completion stamp before redeeming: redeem frees the
        // slot for re-claim, after which the stamp belongs to a new call.
        let completed_at = slot.completed_at();
        // SAFETY: this requester submitted the call at `index` on its home
        // shard (every ticket-taking caller checked the ticket's issuer)
        // and observed DONE with Acquire; only the submitter redeems a
        // slot, and the previous lap's DONE was redeemed before this slot
        // could be claimed again, so this DONE is ours.
        let result = unsafe { slot.redeem() };
        self.reap.record(now_cycles().saturating_sub(completed_at));
        result
    }

    /// [`RingRequester::redeem`] for a single-call submission.
    fn redeem_one(&self, shard: &Shard<Req, Resp>, index: usize) -> Result<Resp> {
        match self.redeem(shard, index)? {
            RespEnvelope::One(resp) => Ok(resp),
            RespEnvelope::Bundle(_) => {
                unreachable!("a Ticket is only minted for single-call submissions")
            }
        }
    }

    /// Wait + redeem by raw slot sequence: the synchronous call paths use
    /// this directly so they never mint a ticket (and never touch the
    /// abandonment board) at all.
    fn wait_index(&self, shard: &Shard<Req, Resp>, index: usize) -> Result<Resp> {
        self.wait_done(shard, index)?;
        self.redeem_one(shard, index)
    }

    /// Waits for a submitted call to complete and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, the
    /// handler's own error, or [`HotCallError::InvalidConfig`] for a
    /// ticket this requester's home shard did not issue (the call is then
    /// abandoned on the shard that did).
    pub fn wait(&self, mut ticket: Ticket) -> Result<Resp> {
        let shard = self.shard();
        shard.check_issuer(&ticket.board)?;
        self.wait_index(shard, ticket.defuse())
    }

    /// Waits until *any* of `tickets` (all issued by this requester's home
    /// shard) completes, removes it from the set, and returns its sequence
    /// number (see [`Ticket::seq`]) with the response. Completion order is
    /// whatever the responder pool produces — this is the batched-reap
    /// primitive that keeps a deep pipeline full.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on an empty set, or — with the set
    /// left untouched — on one holding a ticket another plane or shard
    /// issued; [`HotCallError::ResponderGone`] if the server shut down; a
    /// per-call failure (e.g. unknown id) is returned as-is (the offending
    /// ticket is consumed).
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        if tickets.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        }
        let shared = &*self.shared;
        let shard = self.shard();
        // Once per call, in the caller's own memory: a foreign ticket
        // would be matched against the wrong shard's slots below.
        tickets
            .iter()
            .try_for_each(|t| shard.check_issuer(&t.board))?;
        let pick = || oldest_done(&shard.slots, tickets);
        let i = poll_until(&shared.shutdown, &shared.governor, pick)?;
        let mut ticket = tickets.swap_remove(i);
        let seq = ticket.seq();
        self.redeem_one(shard, ticket.defuse())
            .map(|resp| (seq, resp))
    }

    /// Submit + wait in one step.
    ///
    /// On a quiet home shard with fusing enabled (see
    /// [`FusedMode`](crate::FusedMode)) the handler runs *inline on this
    /// thread* — no slot publish, no doze wake, no cross-core cache-line
    /// transfer — and falls back to the pooled submit/wait the moment
    /// responders are active.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] and [`RingRequester::wait`].
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        let shard = self.shard();
        // Synchronous calls can skip the ring entirely: nothing to
        // pipeline, no ticket to mint, so the fused path is a plain
        // dispatch on the requester's core.
        if self.config.fused_mode != FusedMode::Off && !self.shared.shutdown.load(Ordering::Acquire)
        {
            if self.fused_eligible(shard, shard.occupancy_snapshot()) {
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
        match self.submit_envelope(shard, id, ReqEnvelope::One(req), false) {
            Ok(index) => self.wait_index(shard, index),
            Err((e, _)) => Err(e),
        }
    }

    /// Packs `bundle` into one home-shard submission — one slot claim, one
    /// responder dispatch, at most one wakeup for all of its calls — and
    /// waits for one result per call, in submission order.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for an empty bundle, otherwise as
    /// [`RingRequester::call`]. Per-call failures stay *inside* the
    /// returned vector.
    pub fn call_bundle(&self, bundle: Bundle<Req>) -> Result<Vec<Result<Resp>>> {
        if bundle.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "a bundle must pack at least one call",
            ));
        }
        let shard = self.shard();
        trace("bundle_submit", bundle.len() as u64, self.home as u64);
        let env = ReqEnvelope::Bundle(bundle.calls);
        let index = self
            .submit_envelope(shard, 0, env, true)
            .map_err(|(e, _)| e)?;
        self.wait_done(shard, index)?;
        match self.redeem(shard, index)? {
            RespEnvelope::Bundle(results) => Ok(results),
            RespEnvelope::One(_) => unreachable!("a bundle submission completes as a bundle"),
        }
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
        let shard = self.shard();
        match self.submit_envelope(shard, id, ReqEnvelope::One(req), true) {
            Ok(index) => self.wait_index(shard, index),
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

    /// The full per-shard snapshot (see [`RingServer::ring_stats`]).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
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

    /// The plane shapes every shape-agnostic test runs over: a ring with
    /// one responder, a ring with a pool, and one responder per shard.
    const SHAPES: [(&str, Spawn); 3] = [
        ("1 shard x 1 responder", |t, cap, config| {
            RingServer::spawn(t, cap, config)
        }),
        ("1 shard x 4 responders", |t, cap, config| {
            RingServer::spawn_pool(t, cap, 4, config).unwrap()
        }),
        ("4 shards", |t, cap, config| {
            RingServer::spawn_sharded(t, cap, ResponderPolicy::fixed(4), config).unwrap()
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
        let dozing = || -> usize {
            let shards = server.shared.shards.iter();
            shards.map(|s| s.doze.sleepers.load(Ordering::SeqCst)).sum()
        };
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
            // Sequence numbers are the shard's ring indices 0..10 on a
            // fresh server, and each response is the square of its
            // submission payload.
            let got: Vec<(u64, u64)> = seen.into_iter().collect();
            let want: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i * i)).collect();
            assert_eq!(got, want, "{shape}");
        });
    }

    #[test]
    fn bundle_roundtrip_preserves_order_and_ids() {
        for (shape, spawn) in SHAPES {
            let mut t: CallTable<u64, u64> = CallTable::new();
            let inc = t.register(|x| x + 1);
            let dbl = t.register(|x| x * 2);
            let server = spawn(t, 4, generous());
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
            assert_eq!(values, [11, 20, 1, 0, 42], "{shape}");
            // Each bundled call counts as a call; the bundle is one slot.
            assert_eq!(server.stats().calls, 5, "{shape}");
        }
    }

    #[test]
    fn bundle_unknown_id_fails_only_that_call() {
        each_shape(4, generous(), |shape, server, sq| {
            let r = server.requester();
            let mut bundle = Bundle::new();
            bundle.push(sq, 3).push(999, 1).push(sq, 4);
            let results = r.call_bundle(bundle).unwrap();
            assert_eq!(results.len(), 3, "{shape}");
            assert_eq!(*results[0].as_ref().unwrap(), 9);
            assert!(matches!(results[1], Err(HotCallError::UnknownCallId(999))));
            assert_eq!(*results[2].as_ref().unwrap(), 16);
        });
    }

    #[test]
    fn empty_bundle_is_rejected() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        assert!(matches!(
            r.call_bundle(Bundle::new()),
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
            let results = r.call_bundle(bundle).unwrap();
            for (i, got) in results.into_iter().enumerate() {
                let x = round * 10 + i as u64;
                assert_eq!(got.unwrap(), x * x);
            }
            assert_eq!(r.wait(single).unwrap(), round * round);
        }
        assert_eq!(server.stats().calls, 250);
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
            // Capacity-1 shard: while the slow call is in flight the shard
            // is full, so a second call on the same shard times out and
            // falls back.
            let config = HotCallConfig {
                timeout_retries: 2,
                spins_per_retry: 4,
                ..HotCallConfig::default()
            };
            let server = spawn(t, 1, config);
            let r1 = server.requester_on(0).unwrap();
            let r2 = server.requester_on(0).unwrap();
            let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(50));
            let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
            assert_eq!(v, 105, "{shape}");
            assert!(r2.stats().fallbacks >= 1, "{shape}");
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
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let (t, _) = table();
        let _ = RingServer::spawn(t, 0, generous());
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let rejected = |server: Result<Server>| {
            assert!(matches!(server, Err(HotCallError::InvalidConfig(_))));
        };
        let t = || table().0;
        rejected(RingServer::spawn_pool(t(), 0, 2, generous()));
        rejected(RingServer::spawn_pool(t(), 8, 0, generous()));
        let inverted = ResponderPolicy::elastic(2, 1);
        rejected(RingServer::spawn_adaptive(t(), 8, inverted, generous()));
        let two = ResponderPolicy::fixed(2);
        rejected(RingServer::spawn_sharded(t(), 0, two, generous()));
        for (min, shards) in [(0, 2), (3, 2)] {
            let policy = ResponderPolicy::elastic(min, shards);
            rejected(RingServer::spawn_sharded(t(), 8, policy, generous()));
        }
    }

    #[test]
    fn one_shard_sharded_plane_is_a_one_responder_pool() {
        // The two constructors that both mean "one ring, one responder"
        // build the same plane: after the same call sequence every counter
        // that does not count empty polls, and the shape of every
        // snapshot, is identical.
        let drive = |server: Server, sq: u32| {
            let r = server.requester();
            for i in 0..100u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i);
            }
            let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
            while !tickets.is_empty() {
                r.wait_any(&mut tickets).unwrap();
            }
            let mut bundle = Bundle::new();
            bundle.push(sq, 1).push(sq, 2).push(999, 3);
            assert_eq!(r.call_bundle(bundle).unwrap().len(), 3);
            assert_eq!(server.stats(), server.ring_stats().totals);
            let t = server.telemetry("p");
            let mut rs = t.stats;
            rs.totals.idle_polls = 0;
            rs.shards[0].home_polls = 0;
            let shape = (server.shards(), server.responders(), r.home());
            (rs, t.kind, t.lanes.len(), t.reap.count(), shape)
        };
        let (t, sq) = table();
        let pool = drive(RingServer::spawn_pool(t, 8, 1, generous()).unwrap(), sq);
        let (t, sq) = table();
        let sharded = RingServer::spawn_sharded(t, 8, ResponderPolicy::fixed(1), generous());
        assert_eq!(drive(sharded.unwrap(), sq), pool);
        let (rs, kind, ..) = pool;
        assert_eq!((rs.totals.calls, rs.totals.busy_polls), (107, 105));
        assert_eq!((rs.shards.len(), rs.shards[0].serviced), (1, 107));
        assert_eq!(kind, "single");
    }

    /// Two shards of one plane and a second plane of the same payload
    /// type, each with one completed call whose ticket is still out. Every
    /// ticket comes paired with a handle that did *not* issue it; each of
    /// those handles has a DONE slot of its own at the ticket's sequence,
    /// so without the issuer check the ticket redeems somebody else's
    /// response instead of waiting forever.
    #[allow(clippy::type_complexity)]
    fn foreign_tickets() -> (Vec<Server>, u32, Vec<(RingRequester<u64, u64>, Ticket)>) {
        let (t, sq) = table();
        let sharded =
            RingServer::spawn_sharded(t, 4, ResponderPolicy::fixed(2), generous()).unwrap();
        let (t, _) = table();
        let other = RingServer::spawn(t, 4, generous());
        let mut handles = vec![
            sharded.requester_on(0).unwrap(),
            sharded.requester_on(1).unwrap(),
            other.requester(),
        ];
        let tickets: Vec<Ticket> = handles
            .iter()
            .map(|r| {
                let ticket = r.submit(sq, 3).unwrap();
                while r.shard().slot(ticket.index).state() != DONE {
                    std::thread::yield_now();
                }
                ticket
            })
            .collect();
        // Shard 0's ticket goes to shard 1's handle, shard 1's to the
        // other plane's, the other plane's to shard 0's.
        handles.rotate_left(1);
        let cases = handles.into_iter().zip(tickets).collect();
        (vec![sharded, other], sq, cases)
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
        // its own board: the issuing shards keep lapping their 4 slots.
        let sharded = &servers[0];
        let handles = [0, 1].map(|s| sharded.requester_on(s).unwrap());
        for r in handles.iter().chain([&servers[1].requester()]) {
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
        // Let both responders doze off, then prove a call still lands.
        await_all_dozing(&server);
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
        await_all_dozing(&server);
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
        let on_one_ring = RingServer::spawn_plane(t, 16, 1, policy, eager(64), config).unwrap();
        let (t, _) = table();
        let sharded = RingServer::spawn_plane(t, 8, 4, policy, eager(64), config).unwrap();
        for server in [on_one_ring, sharded] {
            assert_eq!(server.responders(), 4);
            let r = server.requester();
            assert_eq!(r.call(sq, 3).unwrap(), 9);
            // With no work, the three governable responders demote
            // themselves top-down and park.
            await_governor(&server, |g| g.active == 1 && g.parked == 3 && g.parks >= 3);
            // The router only assigns to the surviving active shard now,
            // and the remaining responder still serves calls.
            assert_eq!(server.requester().home(), 0);
            assert_eq!(r.call(sq, 5).unwrap(), 25);
        }
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
        let server = RingServer::spawn_plane(t, 32, 1, policy, tuning, generous()).unwrap();
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
    fn router_round_robins_over_active_shards() {
        let (t, _) = table();
        let server =
            RingServer::spawn_sharded(t, 4, ResponderPolicy::fixed(3), generous()).unwrap();
        let homes: Vec<usize> = (0..6).map(|_| server.requester().home()).collect();
        assert_eq!(homes, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn affinity_override_pins_and_validates() {
        let (t, sq) = table();
        let server =
            RingServer::spawn_sharded(t, 4, ResponderPolicy::fixed(2), generous()).unwrap();
        assert_eq!(server.shards(), 2);
        let r1 = server.requester_on(1).unwrap();
        assert_eq!(r1.home(), 1);
        assert_eq!(r1.call(sq, 6).unwrap(), 36);
        assert!(matches!(
            server.requester_on(2),
            Err(HotCallError::InvalidConfig(_))
        ));
        // The call landed on shard 1's ring.
        let rs = server.ring_stats();
        assert_eq!(rs.shards.len(), 2);
        let serviced: u64 = rs.shards.iter().map(|s| s.serviced).sum();
        assert_eq!(serviced, 1);
        // A ring has shard 0 and nothing else.
        let (t, _) = table();
        let ring = RingServer::spawn_pool(t, 4, 2, generous()).unwrap();
        assert_eq!(ring.requester_on(0).unwrap().home(), 0);
        assert!(ring.requester_on(1).is_err());
    }

    #[test]
    fn concurrent_requesters_lose_nothing() {
        // Four threads, one handle each: they share the one ring's head
        // word, or (router round-robin) get a shard each and share nothing.
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
    fn stealers_reap_a_skewed_shard() {
        // Every submission lands on shard 0 while shard 1's responder has
        // nothing of its own: the completions must still arrive, and the
        // plane must record the steals. One responder is held inside a
        // gated handler for the whole run, so a steal is forced whichever
        // of the two took the gated call: either shard 1's responder stole
        // it, or it steals everything queued behind the blocked home
        // responder. No scheduling luck involved.
        const GATED: u64 = u64::MAX;
        struct OpenOnDrop(Arc<AtomicBool>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let entered = Arc::new(AtomicBool::new(false));
        let open = Arc::new(AtomicBool::new(false));
        let (e, o) = (Arc::clone(&entered), Arc::clone(&open));
        let mut t: CallTable<u64, u64> = CallTable::new();
        let sq = t.register(move |x| {
            if x == GATED {
                e.store(true, Ordering::SeqCst);
                while !o.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                return 0;
            }
            x * x
        });
        // 512 slots: the gated call pins its slot until the gate opens, so
        // the 400 calls behind it must fit in one lap.
        let server =
            RingServer::spawn_sharded(t, 512, ResponderPolicy::fixed(2), generous()).unwrap();
        // Declared after the server, so dropped before it: a failed
        // assertion opens the gate instead of hanging the server's join.
        let gate = OpenOnDrop(open);
        let r = server.requester_on(0).unwrap();
        let gated = r.submit(sq, GATED).unwrap();
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for round in 0..50u64 {
            let tickets: Vec<Ticket> = (0..8u64)
                .map(|i| r.submit(sq, round * 10 + i).unwrap())
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let x = round * 10 + i as u64;
                assert_eq!(r.wait(ticket).unwrap(), x * x);
            }
        }
        // The free responder serviced all of it alone (call counts are
        // flushed before each DONE hand-off, so this is exact).
        let rs = server.ring_stats();
        let serviced: Vec<u64> = rs.shards.iter().map(|s| s.serviced).collect();
        assert!(serviced == [400, 0] || serviced == [0, 400], "{rs:?}");
        drop(gate);
        assert_eq!(r.wait(gated).unwrap(), 0);
        assert_eq!(server.stats().calls, 401);
        // Probe counters are flushed right *after* the hand-off of a win.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let rs = server.ring_stats();
            assert_eq!(rs.shards[0].shard, 0);
            if rs.shards[1].steal_hits > 0 && rs.shards[1].steals >= rs.shards[1].steal_hits {
                break;
            }
            assert!(Instant::now() < deadline, "no steal recorded: {rs:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_shard_residue_is_reaped_by_stealers() {
        let (t, sq) = table();
        let policy = ResponderPolicy::elastic(1, 3);
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let server = RingServer::spawn_plane(t, 8, 3, policy, eager(64), config).unwrap();
        // Pin to the top shard, then let the governor park it down to one
        // active shard.
        let r = server.requester_on(2).unwrap();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        await_governor(&server, |g| g.active == 1);
        // Shard 2 is parked; its home responder sleeps on the park doze.
        // A call submitted there must still complete — reaped by an
        // active stealer, woken through the cross-shard redirect.
        for i in 0..50u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let rs = server.ring_stats();
        assert!(rs.shards[2].parked, "{rs:?}");
        assert!(
            rs.steal_hits() > 0 || rs.shards[2].serviced > 0,
            "residue never reaped: {rs:?}"
        );
    }

    #[test]
    fn auto_policy_resolves_and_serves() {
        let (t, sq) = table();
        let server = RingServer::spawn_sharded(t, 4, ResponderPolicy::auto(), generous()).unwrap();
        assert!(server.shards() >= 1);
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
    }

    #[test]
    fn park_unpark_race_never_strands_a_submission() {
        // Regression for the wake_for park/unpark race: the redirect
        // decision must come from one coherent snapshot taken before the
        // home wake attempt, and a demoting responder must re-check its
        // shard front before going dark. Race a requester pinned to the
        // top shard against an aggressive governor; every call must
        // complete well inside the deadline.
        let (t, sq) = table();
        let policy = ResponderPolicy::elastic(1, 3);
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(32),
            ..generous()
        };
        let server = RingServer::spawn_plane(t, 4, 3, policy, eager(16), config).unwrap();
        let r = server.requester_on(2).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for i in 0..3_000u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
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

    fn fused_always() -> HotCallConfig {
        HotCallConfig {
            fused_mode: FusedMode::Always,
            ..HotCallConfig::patient()
        }
    }

    /// `Auto` fusing over responders that doze after `idle` empty polls
    /// (`None`: they spin forever).
    fn fused_auto(idle: Option<u64>) -> HotCallConfig {
        HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: idle,
            ..HotCallConfig::patient()
        }
    }

    #[test]
    fn fused_always_runs_calls_inline() {
        each_shape(4, fused_always(), |shape, server, sq| {
            let r = server.requester();
            for i in 0..100u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i, "{shape}");
            }
            let s = server.stats();
            assert_eq!(s.calls, 100, "{shape}");
            // `call` with Always never touches the ring at all.
            assert_eq!(s.fused_runs, 100, "{shape}: {s:?}");
        });
    }

    #[test]
    fn unknown_id_propagates_pooled_and_fused() {
        for config in [generous(), fused_always()] {
            each_shape(4, config, |shape, server, _| {
                let r = server.requester();
                assert!(
                    matches!(r.call(42, 1), Err(HotCallError::UnknownCallId(42))),
                    "{shape}"
                );
            });
        }
    }

    #[test]
    fn fused_submit_self_services_and_redeems() {
        each_shape(8, fused_always(), |shape, server, sq| {
            let r = server.requester();
            let ticket = r.submit(sq, 6).unwrap();
            assert_eq!(r.wait(ticket).unwrap(), 36, "{shape}");
            let s = server.stats();
            // The submission either self-serviced or lost the race to a
            // responder (counted as a fallback) — never both, never
            // neither.
            assert_eq!(s.fused_runs + s.fused_fallbacks, 1, "{shape}: {s:?}");
            let mut bundle = Bundle::new();
            bundle.push(sq, 2).push(sq, 3);
            let results = r.call_bundle(bundle).unwrap();
            let values: Vec<u64> = results.into_iter().map(|x| x.unwrap()).collect();
            assert_eq!(values, [4, 9], "{shape}");
            // Each envelope either self-serviced (its calls count as fused
            // runs) or lost its race (one counted fallback) — conservation
            // must be exact either way.
            let s = server.stats();
            assert_eq!(s.calls, 3, "{shape}: {s:?}");
        });
    }

    #[test]
    fn fused_pipelining_redeems_oldest_and_never_wedges_on_wrap() {
        // Regression: with instantly-completing fused submissions every
        // outstanding ticket is DONE at scan time, and a first-found
        // `wait_any` kept redeeming whichever ticket `swap_remove` had
        // rotated to the front — always the youngest — while older DONE
        // slots sat un-redeemed until the head lapped onto one and
        // `submit` spun forever on a slot only this very thread could
        // free. Oldest-first redemption keeps the lap ahead of the
        // in-flight window; this loop wraps the 8-slot ring dozens of
        // times.
        each_shape(8, fused_always(), |shape, server, sq| {
            let r = server.requester();
            let mut tickets: Vec<Ticket> = Vec::new();
            let mut submitted = 0u64;
            let mut redeemed = 0u64;
            while redeemed < 500 {
                while tickets.len() < 4 {
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
        });
    }

    #[test]
    fn fused_auto_uses_the_pool_when_responders_are_hot() {
        // Spinning responders (no doze) keep the home shard attended:
        // occupancy is low, but Auto must decline to fuse and count the
        // decline.
        each_shape(4, fused_auto(None), |shape, server, sq| {
            let r = server.requester();
            assert_eq!(r.call(sq, 9).unwrap(), 81, "{shape}");
            let s = server.stats();
            assert_eq!(s.calls, 1, "{shape}");
            assert_eq!(s.fused_runs, 0, "{shape}: {s:?}");
            assert_eq!(s.fused_fallbacks, 1, "{shape}: {s:?}");
        });
    }

    #[test]
    fn fused_auto_fuses_once_responders_doze() {
        each_shape(8, fused_auto(Some(64)), |shape, server, sq| {
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
    fn fused_auto_fuses_once_the_home_responder_dozes() {
        // Only the home shard has to look unattended: shard 1's responder
        // may still be spinning.
        let (t, sq) = table();
        let server =
            RingServer::spawn_sharded(t, 4, ResponderPolicy::fixed(2), fused_auto(Some(64)))
                .unwrap();
        let r = server.requester_on(0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "responder never dozed");
            std::thread::yield_now();
        }
        assert_eq!(r.call(sq, 12).unwrap(), 144);
        let s = server.stats();
        assert_eq!(s.fused_runs, 1, "{s:?}");
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        each_shape(8, fused_auto(Some(64)), |shape, server, sq| {
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
    fn fused_auto_submissions_ride_the_pool() {
        // Pipelined submissions never fuse under `Auto`, even with the
        // break-even gate wide open (dozing responders, empty ring): the
        // pipelined caller asked for overlap, and an inline completion would
        // keep occupancy at zero so the plane never hands a burst to the
        // pool at all.
        each_shape(8, fused_auto(Some(64)), |shape, server, sq| {
            let r = server.requester_on(0).unwrap();
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
