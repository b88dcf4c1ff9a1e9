//! The sharded data plane: N independent submission rings, a router
//! pinning each requester to a home shard, and work-stealing responders.
//!
//! The paper's Fig. 9 gives every call channel its own shared-memory
//! mailbox; [`super::RingServer`] collapsed that into one ring so several
//! requesters could share responders — at the cost of every requester
//! CASing the *same* head word. At scale that shared CAS becomes the new
//! 620-cycle-class bottleneck. [`ShardedServer`] splits the plane back
//! out: each shard is a full ring (slots, head, tail, doze line — all
//! cache-padded) with exactly one *home* responder, and the
//! [`ShardRouter`] pins each requester to a home shard, so uncontended
//! requesters never share a head CAS with anyone.
//!
//! **Work-stealing.** A responder drains its home shard first; only when
//! the home shard is empty does it probe sibling shards, in an order
//! rotated per pass so the probe load spreads instead of convoying on
//! shard 0. A burst on one shard is therefore absorbed by responders that
//! were already awake on quiet shards — no extra thread wakes for it.
//! `steals` counts sibling probes, `steal_hits` the probes that claimed
//! work.
//!
//! **Shard-aware governor.** The PR-3 [`GovernorState`] is reused with a
//! shard as the unit of elasticity: responders with index at or above the
//! active target park on the shared park doze, and the router stops
//! assigning new requesters to their shards. Residual submissions on a
//! parked shard are reaped by the stealing responders (every responder's
//! probe set covers *all* shards, parked included), and a submission whose
//! home responder is parked redirects its wakeup to an active sibling —
//! counted as `cross_shard_wakes` on the home shard.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{
    FusedMode, GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy, RingStats, ShardPolicy,
    ShardStats,
};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, trace, AtomicHist, LaneTelemetry, PlaneProvider, PlaneTelemetry,
};
use sgx_sim::{Placement, Topology};

use super::pool::{service_slot, service_slot_inline, submitted_run, WIN_CREDIT_POLLS};
use super::ring::{
    claim_slot, oldest_done, poll_until, Bundle, BundleTicket, GovernorState, ReqEnvelope,
    RespEnvelope, RingShared, RingSlot, Ticket,
};
use super::slot::{AbandonBoard, Backoff, CachePadded, CallSlot, Doze, ReapCells, StatCell, DONE};
use super::CallTable;

/// One shard: a full ring with its own head, tail and doze line, owned by
/// exactly one home responder (`shard index == responder index`).
struct Shard<Req, Resp> {
    /// Slots are 64-byte aligned; neighbouring slots never false-share.
    slots: Box<[RingSlot<Req, Resp>]>,
    /// Next slot a requester of *this shard* claims. Only this shard's
    /// requesters touch it — the whole point of sharding.
    head: CachePadded<AtomicUsize>,
    /// Next slot the responders service (home responder or a stealer).
    tail: CachePadded<AtomicUsize>,
    /// This shard's own doze line: per-call wakeups on one shard never
    /// disturb another shard's responder.
    doze: Doze,
    /// Submissions to this shard whose wakeup was redirected to a sibling
    /// responder (home responder parked or saturated).
    cross_shard_wakes: AtomicU64,
    /// Dropped-unredeemed tickets for this shard's slots (see
    /// [`AbandonBoard`]); one board per shard because slot sequences are
    /// per-shard.
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

    /// Occupancy from a tail-before-head snapshot (wrap-proof; see
    /// [`RingShared::occupancy`]).
    fn occupancy_snapshot(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        RingShared::<Req, Resp>::occupancy(head, tail)
    }

    /// Is the slot at the ring front submitted (work a responder could
    /// claim right now)?
    fn front_submitted(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        submitted_run(&self.slots, tail, 1) > 0
    }
}

/// Per-responder statistics cell: the shared transport counters plus the
/// stealing counters. Only the owning responder writes any of it.
#[derive(Default)]
struct ShardStatCell {
    base: StatCell,
    home_polls: AtomicU64,
    steals: AtomicU64,
    steal_hits: AtomicU64,
}

/// The responder's private stealing counters, flushed alongside its
/// [`super::slot::LocalStats`].
#[derive(Default)]
struct LocalShardStats {
    home_polls: u64,
    steals: u64,
    steal_hits: u64,
}

impl LocalShardStats {
    fn flush(&self, cell: &ShardStatCell) {
        cell.home_polls.store(self.home_polls, Ordering::Relaxed);
        cell.steals.store(self.steals, Ordering::Relaxed);
        cell.steal_hits.store(self.steal_hits, Ordering::Relaxed);
    }
}

/// Pins requesters to home shards: round-robin over the currently active
/// shards, with an explicit affinity override ([`ShardedServer::requester_on`]).
struct ShardRouter {
    next: AtomicUsize,
}

impl ShardRouter {
    /// Picks a home shard for a new requester. Only shards below the
    /// governor's active target are eligible — the router never assigns
    /// to a parked shard.
    fn assign(&self, active: usize, shards: usize) -> usize {
        let eligible = active.clamp(1, shards);
        self.next.fetch_add(1, Ordering::Relaxed) % eligible
    }

    /// Picks the *active* shard whose responder is cheapest to hand a
    /// cache line to from `from`, under the convention that shard `i`'s
    /// responder runs at `topology.place(i)`. Same-core beats same-node
    /// beats cross-node; cost ties rotate through the round-robin cursor
    /// so co-located requesters still spread over equivalent shards.
    fn assign_near(
        &self,
        from: Placement,
        active: usize,
        shards: usize,
        topology: &Topology,
    ) -> usize {
        let eligible = active.clamp(1, shards);
        let cost = |i: usize| topology.transfer_cost(from, topology.place(i));
        let best = (0..eligible).map(cost).min().expect("at least one shard");
        let ties = (0..eligible).filter(|&i| cost(i) == best).count();
        let mut skip = self.next.fetch_add(1, Ordering::Relaxed) % ties;
        (0..eligible)
            .find(|&i| {
                cost(i) == best && {
                    if skip == 0 {
                        true
                    } else {
                        skip -= 1;
                        false
                    }
                }
            })
            .expect("a tie below `ties` always exists")
    }
}

struct ShardedShared<Req, Resp> {
    shards: Box<[Shard<Req, Resp>]>,
    /// The handler table, shared with every responder thread. Holding it
    /// here as well lets a *requester* dispatch inline on the fused
    /// run-to-completion path.
    table: Arc<CallTable<Req, Resp>>,
    shutdown: AtomicBool,
    /// The shard governor: `active_target` counts active *shards*; the
    /// park doze hosts responders of parked shards.
    governor: GovernorState,
    router: ShardRouter,
    /// Rotates the sibling a redirected wakeup lands on.
    wake_cursor: AtomicUsize,
    /// One padded cell per responder (= per shard); each responder writes
    /// only its own.
    responders: Box<[CachePadded<ShardStatCell>]>,
    /// Completion → redeem latency (reap stage), one single-writer cell
    /// per requester handle.
    reaps: ReapCells,
    // Requester-side event counters; rare, so shared RMWs are fine.
    fallbacks: AtomicU64,
    wakeups: AtomicU64,
    /// Calls executed inline by requesters (fused run-to-completion).
    /// Shared `fetch_add` cells, as in [`RingShared`]: the fused path only
    /// runs when the home shard is quiet, so contention is structurally
    /// rare.
    fused_runs: AtomicU64,
    fused_fallbacks: AtomicU64,
}

impl<Req, Resp> ShardedShared<Req, Resp> {
    /// Is any shard's ring front claimable right now? The sleep predicate
    /// of every responder: a stealer must not doze past work on a sibling
    /// shard it could reap.
    fn any_front_submitted(&self) -> bool {
        self.shards.iter().any(Shard::front_submitted)
    }

    fn snapshot(&self) -> HotCallStats {
        let fused_runs = self.fused_runs.load(Ordering::Relaxed);
        let mut s = HotCallStats {
            // Fused calls never touch a responder cell; seed `calls` with
            // them so the total is exact on either path.
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

    fn ring_snapshot(&self) -> RingStats {
        let active = self.governor.active_target.load(Ordering::Relaxed);
        let shards = self
            .shards
            .iter()
            .zip(self.responders.iter())
            .enumerate()
            .map(|(i, (shard, cell))| ShardStats {
                shard: i,
                serviced: cell.base.calls.load(Ordering::Relaxed),
                home_polls: cell.home_polls.load(Ordering::Relaxed),
                steals: cell.steals.load(Ordering::Relaxed),
                steal_hits: cell.steal_hits.load(Ordering::Relaxed),
                cross_shard_wakes: shard.cross_shard_wakes.load(Ordering::Relaxed),
                parked: i >= active,
                occupancy: shard.occupancy_snapshot(),
            })
            .collect();
        RingStats {
            totals: self.snapshot(),
            governor: self.governor_snapshot(),
            shards,
        }
    }

    /// The plane's full telemetry view. Lane index == responder index ==
    /// shard index (one home responder per shard); work a responder stole
    /// from a sibling shard is attributed to the *stealing* responder's
    /// lane, keeping each histogram cell single-writer.
    fn plane_telemetry(&self, name: &str) -> PlaneTelemetry {
        PlaneTelemetry {
            name: name.to_string(),
            kind: "sharded",
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

    /// Wakes a responder for a submission just published on `home`.
    ///
    /// Order of preference: the home responder's own doze (the common,
    /// contention-free case); failing that — the home responder is awake,
    /// busy, or parked — a sibling's doze, but only when the home shard
    /// actually needs help (it is parked, or backlog is building behind
    /// its busy responder). Redirected wakes are counted as
    /// `cross_shard_wakes` on the home shard.
    fn wake_for(&self, home: usize) {
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
        // Tail before head (see RingShared::occupancy). The caller has
        // already published its own submission, so `> 1` means work
        // *beyond* this call is queued behind a busy responder.
        let backlog = self.shards[home].occupancy_snapshot() > 1;
        if self.shards[home].doze.wake() {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = self.shards.len();
        if n == 1 {
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
                self.shards[home]
                    .cross_shard_wakes
                    .fetch_add(1, Ordering::Relaxed);
                self.wakeups.fetch_add(1, Ordering::Relaxed);
                trace("wake_redirect", home as u64, sibling as u64);
                return;
            }
        }
    }
}

impl<Req, Resp> core::fmt::Debug for ShardedShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedShared")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.shards[0].slots.len())
            .field(
                "active",
                &self.governor.active_target.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// A running sharded data plane: N independent rings, one home responder
/// per shard, requesters pinned by the router, responders stealing across
/// shards, all governed by a [`ShardPolicy`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, ShardedServer};
/// use hotcalls::{HotCallConfig, ShardPolicy};
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server =
///     ShardedServer::spawn(table, 8, ShardPolicy::fixed(2), HotCallConfig::patient()).unwrap();
/// let r = server.requester();
/// assert_eq!(r.call(inc, 41).unwrap(), 42);
/// assert_eq!(server.shards(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedServer<Req, Resp> {
    shared: Arc<ShardedShared<Req, Resp>>,
    config: HotCallConfig,
    joins: Vec<JoinHandle<()>>,
}

impl<Req, Resp> ShardedServer<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Spawns the plane: `policy.resolved_shards()` shards of
    /// `capacity_per_shard` slots each, one responder thread per shard.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity_per_shard` is zero or
    /// the policy or config fail their [`ShardPolicy::validate`] /
    /// [`HotCallConfig::validate`] checks.
    pub fn spawn(
        table: CallTable<Req, Resp>,
        capacity_per_shard: usize,
        policy: ShardPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        if capacity_per_shard == 0 {
            return Err(HotCallError::InvalidConfig(
                "shard capacity must be positive",
            ));
        }
        policy.validate()?;
        config.validate()?;
        let n_shards = policy.resolved_shards();
        // The PR-3 governor, reused with a shard as the unit: active
        // responders are exactly the responders of active shards.
        let governor = GovernorState::new(ResponderPolicy {
            min: policy.min_active,
            max: n_shards,
            target_occupancy: policy.target_occupancy,
            park_after_idle_polls: policy.park_after_idle_polls,
        });
        let table = Arc::new(table);
        let shared = Arc::new(ShardedShared {
            shards: (0..n_shards)
                .map(|_| Shard::new(capacity_per_shard))
                .collect(),
            table: Arc::clone(&table),
            shutdown: AtomicBool::new(false),
            governor,
            router: ShardRouter {
                next: AtomicUsize::new(0),
            },
            wake_cursor: AtomicUsize::new(0),
            responders: (0..n_shards)
                .map(|_| CachePadded::new(ShardStatCell::default()))
                .collect(),
            reaps: ReapCells::default(),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
            fused_fallbacks: AtomicU64::new(0),
        });
        let joins = (0..n_shards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let table = Arc::clone(&table);
                std::thread::Builder::new()
                    .name(format!("hotcalls-shard-responder-{index}"))
                    .spawn(move || shard_responder_loop(shared, table, index, config))
                    .expect("spawn shard responder")
            })
            .collect();
        Ok(ShardedServer {
            shared,
            config,
            joins,
        })
    }

    /// Creates a requester pinned to a router-chosen home shard
    /// (round-robin over the currently active shards).
    pub fn requester(&self) -> ShardedRequester<Req, Resp> {
        let active = self.shared.governor.active_target.load(Ordering::Relaxed);
        let home = self.shared.router.assign(active, self.shared.shards.len());
        ShardedRequester::new(Arc::clone(&self.shared), self.config, home)
    }

    /// Creates a requester placed on logical core `core`: the home shard
    /// is the currently *active* shard whose responder costs the least to
    /// hand a cache line to under `topology`, with shard `i`'s responder
    /// modeled at `topology.place(i)` (responders are spawned in shard
    /// order, so pinning them to consecutive cores matches this
    /// convention). A requester sharing its responder's core gets the
    /// free same-core handoff — the placement the fused run-to-completion
    /// path turns into skipped handoffs outright; a requester on another
    /// socket at least stays on the near side of the interconnect when an
    /// on-node shard is active.
    pub fn requester_near(&self, core: usize, topology: &Topology) -> ShardedRequester<Req, Resp> {
        let active = self.shared.governor.active_target.load(Ordering::Relaxed);
        let home = self.shared.router.assign_near(
            topology.place(core),
            active,
            self.shared.shards.len(),
            topology,
        );
        ShardedRequester::new(Arc::clone(&self.shared), self.config, home)
    }

    /// Creates a requester pinned to an explicit home shard — the
    /// affinity override for callers that partition work themselves.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `shard` is out of range.
    pub fn requester_on(&self, shard: usize) -> Result<ShardedRequester<Req, Resp>> {
        if shard >= self.shared.shards.len() {
            return Err(HotCallError::InvalidConfig(
                "shard affinity index out of range",
            ));
        }
        Ok(ShardedRequester::new(
            Arc::clone(&self.shared),
            self.config,
            shard,
        ))
    }

    /// Number of shards (= responder threads) in the plane.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Pool-wide transport totals.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The shard governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }

    /// Sets the active-shard target directly (the `ctl` sizer's control
    /// surface), clamped into `[min_active, shards]`, and returns the
    /// value installed. Shard responders converge on their next poll —
    /// surplus shards park (their residual submissions drain via
    /// stealing), and a raise wakes the parked set. The requester-side
    /// backlog governor keeps running on top.
    pub fn set_active_shards(&self, n: usize) -> usize {
        self.shared.governor.set_target(n)
    }

    /// The full per-shard snapshot: totals, governor, and one
    /// [`ShardStats`] row per shard (steals, steal hits, home polls,
    /// cross-shard wakes, occupancy).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }

    /// This plane's full telemetry view right now (kind `"sharded"`):
    /// per-shard counters plus per-lane queue/service histograms and the
    /// plane-wide reap histogram.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        self.shared.plane_telemetry(name)
    }

    /// A [`PlaneProvider`] for [`crate::telemetry::TelemetryRegistry`];
    /// polled at snapshot time, holds the plane's shared state alive.
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

impl<Req, Resp> ShardedServer<Req, Resp> {
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

impl<Req, Resp> Drop for ShardedServer<Req, Resp> {
    fn drop(&mut self) {
        if !self.joins.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// The sharded responder loop for responder `index` (home shard `index`):
/// drain the home shard first; when it is empty, probe sibling shards in
/// an order rotated per pass; park when the governor shrinks the active
/// set below this shard.
fn shard_responder_loop<Req, Resp>(
    shared: Arc<ShardedShared<Req, Resp>>,
    table: Arc<CallTable<Req, Resp>>,
    index: usize,
    config: HotCallConfig,
) {
    let n = shared.shards.len();
    let cell = &shared.responders[index];
    let gov = &shared.governor;
    let mut local = super::slot::LocalStats::default();
    let mut steal_stats = LocalShardStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    // Useful-work deficit: +1 per empty full pass, -WIN_CREDIT_POLLS per
    // slot won. Never reset by doze wakeups or wins (see super::pool).
    let mut polls_since_work: u64 = 0;
    let mut parked = false;
    // Rotates the sibling probe order so stealers don't convoy on the
    // same victim shard.
    let mut rotation: usize = 0;
    loop {
        if gov.adaptive() && index >= gov.active_target.load(Ordering::Acquire) {
            // Close the demote-after-publish window before going dark: a
            // submission can land on this shard between the demote CAS and
            // this park (its `wake_for` redirect may have fired while the
            // lowered target was not yet visible to it). Pull the active
            // set back up so a stealer reaps it, rather than strand the
            // call behind everyone's probe cadence.
            if shared.shards[index].front_submitted() {
                gov.try_raise();
            }
            if !parked {
                parked = true;
                gov.parks.fetch_add(1, Ordering::Relaxed);
                gov.parked_now.fetch_add(1, Ordering::Relaxed);
                local.flush(&cell.base);
                steal_stats.flush(cell);
            }
            gov.park_doze.sleep_unless(|| {
                shared.shutdown.load(Ordering::Acquire)
                    || index < gov.active_target.load(Ordering::Acquire)
            });
            if shared.shutdown.load(Ordering::Acquire) {
                gov.parked_now.fetch_sub(1, Ordering::Relaxed);
                local.flush(&cell.base);
                steal_stats.flush(cell);
                return;
            }
            if index >= gov.active_target.load(Ordering::Acquire) {
                // A raise woke everyone; we were not the one admitted.
                continue;
            }
            parked = false;
            gov.parked_now.fetch_sub(1, Ordering::Relaxed);
            idle_streak = 0;
            polls_since_work = 0;
            backoff.reset();
        }
        // Home shard first: a busy neighbour can never starve home calls,
        // because stealing only happens when the home shard is empty.
        steal_stats.home_polls += 1;
        let mut won = drain_shard(&shared, &table, index, &mut local, cell, config);
        if won == 0 {
            // Home empty: probe the siblings, rotated per pass.
            rotation = rotation.wrapping_add(1);
            for i in 0..n.saturating_sub(1) {
                let victim = (index + rotation + i) % n;
                if victim == index {
                    continue;
                }
                steal_stats.steals += 1;
                let stolen = drain_shard(&shared, &table, victim, &mut local, cell, config);
                if stolen > 0 {
                    steal_stats.steal_hits += 1;
                    trace("steal_hit", index as u64, victim as u64);
                    won += stolen;
                    break;
                }
            }
        }
        if won > 0 {
            idle_streak = 0;
            polls_since_work = polls_since_work.saturating_sub(won as u64 * WIN_CREDIT_POLLS);
            backoff.reset();
            // Keep the stealing counters as fresh as the base counters:
            // `service_slot` flushed those before the DONE hand-off, so a
            // reader who saw the completion must also see the probe that
            // produced it.
            steal_stats.flush(cell);
            continue;
        }
        // A full pass (home + every sibling) found nothing.
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain-then-exit: the empty full pass doubles as the final
            // sweep — residual work on any shard, parked or not, was
            // reaped above before we got here.
            local.flush(&cell.base);
            steal_stats.flush(cell);
            return;
        }
        idle_streak += 1;
        polls_since_work += 1;
        local.idle_polls += 1;
        if local.idle_polls % 1024 == 0 {
            local.flush(&cell.base);
            steal_stats.flush(cell);
        }
        // Useful-work drought: the top active shard bows out. The park
        // branch above catches the lowered target next iteration.
        if gov.adaptive()
            && polls_since_work >= gov.policy.park_after_idle_polls
            && gov.try_demote(index)
        {
            continue;
        }
        if let Some(limit) = config.idle_polls_before_sleep {
            if idle_streak >= limit {
                local.flush(&cell.base);
                steal_stats.flush(cell);
                // Sleep on the *home* doze, but wake for work anywhere:
                // the predicate covers every shard so a stealable
                // submission published before we registered as a sleeper
                // is never slept past.
                shared.shards[index].doze.sleep_unless(|| {
                    shared.shutdown.load(Ordering::Acquire) || shared.any_front_submitted()
                });
                idle_streak = 0;
                backoff.reset();
                continue;
            }
        }
        backoff.snooze();
    }
}

/// Claims and services one batched run from `shard`'s ring front. Returns
/// the number of slots serviced (0 if the shard was empty or the tail CAS
/// was lost).
fn drain_shard<Req, Resp>(
    shared: &ShardedShared<Req, Resp>,
    table: &CallTable<Req, Resp>,
    shard_idx: usize,
    local: &mut super::slot::LocalStats,
    cell: &ShardStatCell,
    config: HotCallConfig,
) -> usize {
    let shard = &shared.shards[shard_idx];
    let cap = shard.slots.len();
    let batch = config.drain_batch_clamped().min(cap);
    let tail = shard.tail.load(Ordering::Acquire);
    let run = submitted_run(&shard.slots, tail, batch);
    if run == 0 {
        return 0;
    }
    if shard
        .tail
        .compare_exchange(
            tail,
            tail.wrapping_add(run),
            Ordering::AcqRel,
            Ordering::Relaxed,
        )
        .is_err()
    {
        // Another responder (home or stealer) claimed the run.
        core::hint::spin_loop();
        return 0;
    }
    for i in 0..run {
        let slot = &shard.slots[tail.wrapping_add(i) % cap];
        // SAFETY: the tail CAS above transferred exclusive service
        // ownership of slots [tail, tail+run) on this shard to this
        // thread (tail is monotonic, so CAS success rules out any
        // concurrent claim — home responder or stealer alike), and no
        // requester can recycle these slots before they are serviced and
        // redeemed. SUBMITTED was observed with Acquire.
        unsafe { service_slot(slot, table, local, &cell.base) };
    }
    run
}

/// A requester pinned to one home shard of a [`ShardedServer`]. Every
/// submission goes to the home shard's ring, so two requesters on
/// different shards never contend on a head CAS; completions may still be
/// produced by *any* responder (home or stealer).
///
/// Give each thread its own clone. The handle is `Sync` and every method
/// takes `&self`, so sharing one by reference works and loses no call, but
/// the handle's reap-latency cell is single-writer: threads redeeming
/// through the same handle at once may drop reap *samples* from
/// `telemetry().reap` (never a call, never another counter).
#[derive(Debug)]
pub struct ShardedRequester<Req, Resp> {
    shared: Arc<ShardedShared<Req, Resp>>,
    config: HotCallConfig,
    home: usize,
    /// This handle's reap-stage cell; only this handle records into it.
    reap: Arc<AtomicHist>,
}

impl<Req, Resp> Clone for ShardedRequester<Req, Resp> {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.shared), self.config, self.home)
    }
}

impl<Req, Resp> ShardedRequester<Req, Resp> {
    fn new(shared: Arc<ShardedShared<Req, Resp>>, config: HotCallConfig, home: usize) -> Self {
        ShardedRequester {
            reap: shared.reaps.register(),
            shared,
            config,
            home,
        }
    }

    /// The home shard this requester submits to.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Is the fused run-to-completion path worth attempting right now?
    /// Mirrors [`super::RingRequester`]'s gate with the home shard as the
    /// unit: under `Auto`, the shard's backlog must be below the
    /// break-even threshold and the shard must look unattended. The check
    /// is a heuristic — the tail CAS in `try_self_service` is the
    /// correctness edge.
    fn fused_eligible(&self, occupancy: usize) -> bool {
        match self.config.fused_mode {
            FusedMode::Off => false,
            FusedMode::Always => true,
            FusedMode::Auto => {
                occupancy < self.config.fused_below_occupancy && self.home_quiescent()
            }
        }
    }

    /// Does the home shard look unattended? A parked shard has no home
    /// responder at all; an active shard counts once its responder dozes.
    /// Stealers may still visit either way — the tail CAS arbitrates.
    fn home_quiescent(&self) -> bool {
        let active = self.shared.governor.active_target.load(Ordering::Relaxed);
        self.home >= active
            || self.shared.shards[self.home]
                .doze
                .sleepers
                .load(Ordering::Relaxed)
                > 0
    }

    /// Counts (and traces) a call that was fused-eligible in principle but
    /// rode the pooled path — the break-even gate said no, or the service
    /// race was lost to a responder.
    fn note_fused_fallback(&self, seq: u64) {
        if self.config.fused_mode != FusedMode::Off {
            self.shared.fused_fallbacks.fetch_add(1, Ordering::Relaxed);
            trace("fused_fallback", seq, self.home as u64);
        }
    }

    /// Tries to claim the just-published slot at `index` back from the
    /// responder set and service it on this thread. Returns `true` if the
    /// call ran inline (the slot is `DONE`, redeemable through the normal
    /// wait path, and no wakeup is needed).
    fn try_self_service(&self, index: usize) -> bool {
        let shard = &self.shared.shards[self.home];
        if shard
            .tail
            .compare_exchange(
                index,
                index.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return false;
        }
        let slot = &shard.slots[index % shard.slots.len()];
        // SAFETY: the tail CAS granted exclusive service ownership of
        // exactly this slot (tail is monotonic, so success rules out any
        // concurrent home or stealing claim), and this requester published
        // it SUBMITTED with Release just above, so the payload is its own.
        let n = unsafe { service_slot_inline(slot, &self.shared.table) };
        self.shared.fused_runs.fetch_add(n, Ordering::Relaxed);
        trace("fused_run", index as u64, n);
        true
    }

    /// Claims a slot on the home shard and publishes `env` into it. On
    /// failure the envelope is handed back so the caller can recover the
    /// request payloads (the fallback path). With `allow_fuse` (and
    /// [`FusedMode::Always`]), the submission is serviced inline by this
    /// thread right after publishing — no handoff, no wake. With `arm`,
    /// the slot's waker cell is armed before publish so the completing
    /// side fires the future's waker (the async submit paths).
    fn submit_envelope(
        &self,
        id: u32,
        env: ReqEnvelope<Req>,
        allow_fuse: bool,
        arm: bool,
    ) -> core::result::Result<usize, (HotCallError, ReqEnvelope<Req>)> {
        let shard = &self.shared.shards[self.home];
        let mut backoff = Backoff::new();
        for _retry in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err((HotCallError::ResponderGone, env));
                }
                // Under an adaptive policy a deep backlog un-parks another
                // whole shard (its responder doubles as one more stealer).
                let Some(head) = claim_slot(
                    &shard.slots,
                    &shard.head,
                    &shard.tail,
                    &shard.abandon,
                    &self.shared.governor,
                ) else {
                    core::hint::spin_loop();
                    continue;
                };
                let slot = &shard.slots[head % shard.slots.len()];
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
                        // Ran inline: the slot is DONE and redeems through
                        // the normal wait path; nobody needs waking.
                        return Ok(head);
                    }
                    // Lost the service race — a responder or stealer beat
                    // us to the tail, or older work sits ahead. The call
                    // rides the pooled path, which still needs its wakeup:
                    // skipping it can strand this submission if every
                    // responder dozes after draining past the front.
                    self.note_fused_fallback(head as u64);
                }
                self.shared.wake_for(self.home);
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

    /// Claims a home-shard slot and submits without waiting. The returned
    /// [`Ticket`] is redeemed against this same requester (the shard is
    /// implicit in the pinning). The in-flight discipline of
    /// [`super::RingRequester::submit`] applies per shard.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if no slot frees up within the
    /// retry budget; [`HotCallError::ResponderGone`] after shutdown.
    pub fn submit(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, false) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&self.shared.shards[self.home].abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// [`ShardedRequester::submit`] with the slot's waker cell armed: the
    /// completing side (home responder, stealer, fused-inline service or
    /// the shutdown sweep) fires a waker registered against the returned
    /// ticket — the `hotcalls::aio` completion hook on the sharded plane.
    pub(crate) fn submit_async(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, true) {
            Ok(index) => Ok(Ticket {
                index,
                board: Some(Arc::clone(&self.shared.shards[self.home].abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// The future-side poll: redeem if complete, otherwise register
    /// `cx`'s waker with the home-shard slot and stay pending. Takes the
    /// ticket out of `ticket` exactly when it returns `Ready`.
    pub(crate) fn poll_ticket(
        &self,
        ticket: &mut Option<Ticket>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Resp>> {
        let index = ticket
            .as_ref()
            .expect("future polled after completion")
            .index;
        let shard = &self.shared.shards[self.home];
        let slot = &shard.slots[index % shard.slots.len()];
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
            // A submission that raced the flag may never be serviced;
            // abandon the call (the drop marks the slot reapable) and
            // surface the shutdown.
            drop(ticket.take());
            return Poll::Ready(Err(HotCallError::ResponderGone));
        }
        Poll::Pending
    }

    /// Packs `bundle` into one home-shard submission (one claim, one
    /// dispatch, at most one wakeup).
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for an empty bundle, otherwise as
    /// [`ShardedRequester::submit`].
    pub fn submit_bundle(&self, bundle: Bundle<Req>) -> Result<BundleTicket> {
        if bundle.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "a bundle must pack at least one call",
            ));
        }
        let len = bundle.len();
        trace("bundle_submit", len as u64, self.home as u64);
        match self.submit_envelope(0, ReqEnvelope::Bundle(bundle.calls), true, false) {
            Ok(index) => Ok(BundleTicket {
                index,
                len,
                board: Some(Arc::clone(&self.shared.shards[self.home].abandon)),
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// Spins until the home-shard slot behind `index` is DONE. While it
    /// ages, the governor is asked to un-park another shard's responder —
    /// one more stealer that can reach this shard.
    fn wait_done(&self, index: usize) -> Result<()> {
        let shard = &self.shared.shards[self.home];
        let slot = &shard.slots[index % shard.slots.len()];
        let done = || (slot.state() == DONE).then_some(());
        poll_until(&self.shared.shutdown, &self.shared.governor, None, done).map(drop)
    }

    /// Redeems the single-call response sitting DONE at `index` on the
    /// home shard. The caller must be (or act for) the submitter and must
    /// have observed `DONE` with Acquire.
    fn redeem_one(&self, index: usize) -> Result<Resp> {
        let shard = &self.shared.shards[self.home];
        let slot = &shard.slots[index % shard.slots.len()];
        // Read the completion stamp before redeeming frees the slot.
        let completed_at = slot.completed_at();
        // SAFETY: this requester submitted the call at `index` on its
        // home shard and observed DONE with Acquire; only the submitter
        // redeems a slot.
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

    /// Waits for a submitted call and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, or
    /// the handler's own error.
    pub fn wait(&self, mut ticket: Ticket) -> Result<Resp> {
        self.wait_index(ticket.defuse())
    }

    /// Redeems the response if the call already completed, or hands the
    /// ticket back untouched.
    pub fn try_wait(&self, ticket: Ticket) -> core::result::Result<Result<Resp>, Ticket> {
        let shard = &self.shared.shards[self.home];
        let slot = &shard.slots[ticket.index % shard.slots.len()];
        if slot.state() != DONE {
            return Err(ticket);
        }
        let mut ticket = ticket;
        Ok(self.redeem_one(ticket.defuse()))
    }

    /// Waits until *any* of `tickets` (all from this requester) completes,
    /// removes it, and returns its sequence number with the response.
    ///
    /// # Errors
    ///
    /// As [`super::RingRequester::wait_any`].
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        if tickets.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        }
        let reaped = self.wait_any_inner(tickets, None)?;
        Ok(reaped.expect("a deadline-free wait_any only returns on a completion"))
    }

    /// [`ShardedRequester::wait_any`] bounded by a deadline: returns
    /// `Ok(None)` — with every ticket left in the set — if nothing
    /// completes by `deadline` (or the set is empty).
    ///
    /// # Errors
    ///
    /// As [`ShardedRequester::wait_any`], except that an empty set is
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

    /// [`ShardedRequester::wait_any_until`] with a relative timeout.
    ///
    /// # Errors
    ///
    /// As [`ShardedRequester::wait_any_until`].
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
        let pick = || oldest_done(&shared.shards[self.home].slots, tickets);
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
    /// As [`super::RingRequester::wait_bundle`].
    pub fn wait_bundle(&self, mut ticket: BundleTicket) -> Result<Vec<Result<Resp>>> {
        let index = ticket.defuse();
        self.wait_done(index)?;
        let shard = &self.shared.shards[self.home];
        let slot = &shard.slots[index % shard.slots.len()];
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
    /// With fusing enabled and the home shard quiescent, the handler runs
    /// directly on this thread — no slot, no handoff, no wake. There is no
    /// pipeline here and no ticket to mint, so the fused path is a plain
    /// table dispatch, exactly the run-to-completion shape.
    ///
    /// # Errors
    ///
    /// As [`ShardedRequester::submit`] and [`ShardedRequester::wait`].
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        if self.config.fused_mode != FusedMode::Off && !self.shared.shutdown.load(Ordering::Acquire)
        {
            let occupancy = self.shared.shards[self.home].occupancy_snapshot();
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
    /// As [`ShardedRequester::submit_bundle`] and
    /// [`ShardedRequester::wait_bundle`].
    pub fn call_bundle(&self, bundle: Bundle<Req>) -> Result<Vec<Result<Resp>>> {
        let t = self.submit_bundle(bundle)?;
        self.wait_bundle(t)
    }

    /// Issues a call, running `fallback` locally if the fast path times
    /// out — the paper's SDK-call fallback on the sharded plane.
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

    /// Pool-wide transport totals.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The shard governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }

    /// The full per-shard snapshot (see [`ShardedServer::ring_stats`]).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
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
    fn sharded_call_roundtrip() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(2), generous()).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 7).unwrap(), 49);
        assert_eq!(server.stats().calls, 1);
        assert_eq!(server.shards(), 2);
    }

    #[test]
    fn router_round_robins_over_active_shards() {
        let (t, _) = table();
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(3), generous()).unwrap();
        let homes: Vec<usize> = (0..6).map(|_| server.requester().home()).collect();
        assert_eq!(homes, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn affinity_override_pins_and_validates() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(2), generous()).unwrap();
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
    }

    #[test]
    fn requesters_on_distinct_shards_never_share_a_ring() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(2), generous()).unwrap();
        let mut handles = Vec::new();
        for shard in 0..2usize {
            let r = server.requester_on(shard).unwrap();
            handles.push(std::thread::spawn(move || {
                (0..500u64)
                    .map(|i| r.call(sq, shard as u64 * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..2u64)
            .flat_map(|s| (0..500u64).map(move |i| (s * 1_000 + i) * (s * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_000);
    }

    #[test]
    fn requester_near_prefers_the_same_core_shard() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(4), generous()).unwrap();
        let topo = Topology::default();
        // A requester sharing its core with shard 2's responder homes
        // there: the handoff is free.
        let r = server.requester_near(2, &topo);
        assert_eq!(r.home, 2);
        assert_eq!(r.call(sq, 6).unwrap(), 36);
        // Repeated placement on the same core is deterministic — no tie
        // to rotate through.
        assert_eq!(server.requester_near(2, &topo).home, 2);
    }

    #[test]
    fn requester_near_rotates_equidistant_shards() {
        let (t, _sq) = table();
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(4), generous()).unwrap();
        // Core 6 is on node 1; shards 0..4 all live on node 0, so every
        // active shard ties at the cross-node cost and the router spreads
        // the requesters round-robin instead of convoying on shard 0.
        let topo = Topology::default();
        let homes: std::collections::HashSet<usize> = (0..4)
            .map(|_| server.requester_near(6, &topo).home)
            .collect();
        assert_eq!(homes.len(), 4, "ties rotate over all equidistant shards");
    }

    #[test]
    fn requester_near_never_picks_a_parked_shard() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 8, ShardPolicy::elastic(1, 4), generous()).unwrap();
        let topo = Topology::default();
        // Force the governor down to one active shard: shard 3 may be the
        // requester's same-core neighbour, but it is parked, so the
        // router settles for the cheapest *active* shard.
        server
            .shared
            .governor
            .active_target
            .store(1, Ordering::SeqCst);
        let r = server.requester_near(3, &topo);
        assert_eq!(r.home, 0);
        assert_eq!(r.call(sq, 5).unwrap(), 25);
    }

    #[test]
    fn pipelined_sharded_submissions_reap_out_of_order() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 16, ShardPolicy::fixed(2), generous()).unwrap();
        let r = server.requester();
        let mut tickets: Vec<Ticket> = (0..10u64).map(|i| r.submit(sq, i).unwrap()).collect();
        let mut got = Vec::new();
        while !tickets.is_empty() {
            let (_, resp) = r.wait_any(&mut tickets).unwrap();
            got.push(resp);
        }
        got.sort_unstable();
        let mut want: Vec<u64> = (0..10u64).map(|i| i * i).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sharded_bundle_roundtrips() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let inc = t.register(|x| x + 1);
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(2), generous()).unwrap();
        let r = server.requester();
        let mut bundle = Bundle::with_capacity(3);
        bundle.push(inc, 1).push(inc, 10).push(inc, 41);
        let results = r.call_bundle(bundle).unwrap();
        let values: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, [2, 11, 42]);
        assert_eq!(server.stats().calls, 3);
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
        let server = ShardedServer::spawn(t, 512, ShardPolicy::fixed(2), generous()).unwrap();
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
        let policy = ShardPolicy {
            park_after_idle_polls: 64,
            ..ShardPolicy::elastic(1, 3)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let server = ShardedServer::spawn(t, 8, policy, config).unwrap();
        // Pin to the top shard, then let the governor park it down to one
        // active shard.
        let r = server.requester_on(2).unwrap();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let g = server.governor_stats();
            if g.active == 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never parked: {g:?}");
            std::thread::yield_now();
        }
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
    fn governor_parks_surplus_shards_when_idle() {
        let (t, sq) = table();
        let policy = ShardPolicy {
            park_after_idle_polls: 64,
            ..ShardPolicy::elastic(1, 4)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let server = ShardedServer::spawn(t, 8, policy, config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 5).unwrap(), 25);
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
        // The router only assigns to the surviving active shard now.
        assert_eq!(server.requester().home(), 0);
        assert_eq!(r.call(sq, 6).unwrap(), 36);
    }

    #[test]
    fn auto_policy_resolves_and_serves() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 4, ShardPolicy::auto(), generous()).unwrap();
        assert!(server.shards() >= 1);
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let (t, _) = table();
        assert!(matches!(
            ShardedServer::spawn(t, 0, ShardPolicy::fixed(2), generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
        let (t, _) = table();
        assert!(matches!(
            ShardedServer::spawn(t, 8, ShardPolicy::elastic(0, 2), generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
        let (t, _) = table();
        assert!(matches!(
            ShardedServer::spawn(t, 8, ShardPolicy::elastic(3, 2), generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shutdown_fails_future_calls_and_reports() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(2), generous()).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        server.shutdown();
        assert!(matches!(r.submit(sq, 1), Err(HotCallError::ResponderGone)));
    }

    #[test]
    fn sharded_wraps_many_times() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(t, 2, ShardPolicy::fixed(2), generous()).unwrap();
        let r = server.requester();
        for i in 0..5_000u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        assert_eq!(server.stats().calls, 5_000);
    }

    #[test]
    fn fused_always_runs_calls_inline() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(
            t,
            4,
            ShardPolicy::fixed(2),
            HotCallConfig::fused(FusedMode::Always),
        )
        .unwrap();
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
    fn fused_submit_self_services_and_redeems() {
        let (t, sq) = table();
        let server = ShardedServer::spawn(
            t,
            8,
            ShardPolicy::fixed(2),
            HotCallConfig::fused(FusedMode::Always),
        )
        .unwrap();
        let r = server.requester();
        let ticket = r.submit(sq, 6).unwrap();
        assert_eq!(r.wait(ticket).unwrap(), 36);
        let s = server.stats();
        // The submission either self-serviced or lost the race to a
        // responder (counted as a fallback) — never both, never neither.
        assert_eq!(s.fused_runs + s.fused_fallbacks, 1, "{s:?}");
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn fused_auto_uses_the_pool_when_responders_are_hot() {
        // Auto fusing on a plane whose responders never doze: occupancy is
        // low but the home shard is attended, so the call must ride the
        // pool and count as a fused fallback.
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: None,
            ..HotCallConfig::patient()
        };
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(2), config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 9).unwrap(), 81);
        let s = server.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.fused_runs, 0, "{s:?}");
        assert_eq!(s.fused_fallbacks, 1, "{s:?}");
    }

    #[test]
    fn fused_auto_fuses_once_the_home_responder_dozes() {
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = ShardedServer::spawn(t, 4, ShardPolicy::fixed(2), config).unwrap();
        let r = server.requester_on(0).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "responder never dozed"
            );
            std::thread::yield_now();
        }
        // Quiet plane, dozing home responder: the call runs inline and
        // nobody is woken for it.
        assert_eq!(r.call(sq, 12).unwrap(), 144);
        let s = server.stats();
        assert_eq!(s.fused_runs, 1, "{s:?}");
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(2), config).unwrap();
        let r = server.requester();
        // Alternate quiet single calls (fuse once responders doze) with
        // pipelined bursts (occupancy pushes past break-even → pooled).
        // Exact conservation across the mixed paths is the invariant.
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

    #[test]
    fn fused_auto_submissions_ride_the_pool() {
        // Pipelined submissions never fuse under `Auto`, even with the
        // break-even gate wide open (dozing responder, empty ring): the
        // async caller asked for overlap, and an inline completion would
        // keep occupancy at zero so the plane never hands a burst to the
        // pool at all.
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = ShardedServer::spawn(t, 8, ShardPolicy::fixed(2), config).unwrap();
        let r = server.requester_on(0).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "responder never dozed"
            );
            std::thread::yield_now();
        }
        let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.calls, 4);
        assert_eq!(s.fused_runs, 0, "{s:?}");
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
        // in-flight window; this loop wraps the 8-slot shard dozens of
        // times.
        let (t, sq) = table();
        let server = ShardedServer::spawn(
            t,
            8,
            ShardPolicy::fixed(1),
            HotCallConfig::fused(FusedMode::Always),
        )
        .unwrap();
        let r = server.requester_on(0).unwrap();
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut submitted = 0u64;
        let mut redeemed = 0u64;
        while redeemed < 500 {
            while tickets.len() < 4 {
                tickets.push(r.submit(sq, submitted).unwrap());
                submitted += 1;
            }
            let (_, resp) = r.wait_any(&mut tickets).unwrap();
            assert!(resp <= (submitted - 1) * (submitted - 1));
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
    fn park_unpark_race_never_strands_a_submission() {
        // Regression for the wake_for park/unpark race: the redirect
        // decision must come from one coherent snapshot taken before the
        // home wake attempt, and a demoting responder must re-check its
        // shard front before going dark. Race a requester pinned to the
        // top shard against an aggressive governor; every call must
        // complete well inside the deadline.
        let (t, sq) = table();
        let policy = ShardPolicy {
            park_after_idle_polls: 16,
            ..ShardPolicy::elastic(1, 3)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(32),
            ..generous()
        };
        let server = ShardedServer::spawn(t, 4, policy, config).unwrap();
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

    #[test]
    fn fallback_runs_locally_on_timeout() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            x
        });
        // Capacity-1 shard: while the slow call is in flight the shard is
        // full, so a second call on the same shard times out and falls
        // back.
        let config = HotCallConfig {
            timeout_retries: 2,
            spins_per_retry: 4,
            ..HotCallConfig::default()
        };
        let server = ShardedServer::spawn(t, 1, ShardPolicy::fixed(1), config).unwrap();
        let r1 = server.requester_on(0).unwrap();
        let r2 = server.requester_on(0).unwrap();
        let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
        assert_eq!(v, 105);
        assert!(r2.stats().fallbacks >= 1);
        assert_eq!(blocker.join().unwrap(), 7);
    }
}
