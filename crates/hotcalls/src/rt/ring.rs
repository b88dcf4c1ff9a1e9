//! The queued HotCalls plane: one multi-slot submission ring, one
//! responder that drains it in batches, and pipelined completions.
//!
//! The paper's single mailbox serializes requesters; §4.2 observes that
//! responder utilization "can potentially be improved by sharing the
//! responder thread with several requesters". [`RingServer`] realizes
//! that: a fixed ring of request slots lets several requesters have calls
//! in flight simultaneously while one responder drains them in order.
//! Each slot is its own little mailbox (CLAIM → SUBMIT → DONE) on its own
//! cache lines, so requesters never contend on a single word the way the
//! plain channel does, and payloads move through lock-free `UnsafeCell`s
//! guarded by the slot state machine (see [`super::slot`]).
//!
//! **One ring, one responder.** A plane is one ring — slots, head, tail,
//! doze line and abandon board, all cache-padded — drained by one
//! responder thread, spawned by [`RingServer::spawn_pool`] and draining
//! for the plane's life. Every requester shares the one head word; the
//! responder is the only writer of `tail` and services slots in sequence
//! order. A layout that wants independent channels — the paper's Fig. 9
//! gives each call channel its own mailbox — builds one plane per
//! channel. The payload is the server's type parameter: a typed plane is
//! `RingServer<Req, Resp>`, and the byte and scatter-gather planes are the
//! same server at `HotBuf` and `SgList` payloads ([`super::ByteRing`],
//! [`super::SgRing`]).
//!
//! Beyond the paper's synchronous protocol the plane *pipelines*
//! completions: [`RingRequester::submit`] returns a [`Ticket`]
//! immediately, and [`RingRequester::wait`] and
//! [`RingRequester::wait_any`] reap completions later, so one requester
//! keeps many slots in flight and overlaps its own work with the
//! responder's. One ticket is one call: a slot carries one request and one
//! response, as the paper's mailbox does.
//!
//! The doze (§4.2, "Conserving resources at idle times") is the plane's
//! only idle mechanism: a responder that finds no work for
//! [`HotCallConfig::idle_polls_before_sleep`] polls sleeps until a
//! submission wakes it, and while it dozes a synchronous
//! [`RingRequester::call`] runs its handler inline.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::{HotCallConfig, FUSED_BELOW_OCCUPANCY};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, trace, AtomicHist, GovernorStats, HotCallStats, PlaneProvider, PlaneTelemetry,
    RingStats,
};

use super::pool;
use super::slot::{
    AbandonBoard, Backoff, CachePadded, CallSlot, Doze, ReapCells, StatCell, DONE, EMPTY,
};
use super::CallTable;

/// Grace polls a waiter grants the shutdown sweep before giving up on a
/// slot that will never complete (its payload is freed by the slot Drop).
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

/// Slots currently between claim and service. `head` and `tail` are
/// monotonic with `head >= tail` at every instant, but two separate
/// loads can still see them "out of order" — the caller must load
/// `tail` *before* `head` (then the head snapshot can only be newer,
/// never older, than the tail snapshot) and this subtraction wraps
/// instead of panicking as a second line of defense.
fn occupancy(head: usize, tail: usize) -> usize {
    head.wrapping_sub(tail)
}

pub(super) struct RingShared<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[CallSlot<Req, Resp>]>,
    /// Next slot index a requester claims. Padded: requesters hammer this
    /// line; the responder must not.
    head: CachePadded<AtomicUsize>,
    /// Next slot index the responder services; only the responder writes
    /// it. Padded likewise.
    pub(super) tail: CachePadded<AtomicUsize>,
    /// Where the idle responder dozes; per-call wakeups land here.
    pub(super) doze: Doze,
    /// Dropped-unredeemed ticket registry (see [`AbandonBoard`]): tickets
    /// hold a clone, claimants lapping onto a marked slot reap it. Its
    /// address doubles as the ticket's proof of origin.
    abandon: Arc<AbandonBoard>,
    /// The handler table, shared with the responder thread. Holding it
    /// here lets a *requester* dispatch inline on the fused
    /// run-to-completion path without any handoff.
    pub(super) table: CallTable<Req, Resp>,
    pub(super) shutdown: AtomicBool,
    /// The responder's padded statistics cell; only it writes there.
    pub(super) responder: CachePadded<StatCell>,
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

    /// Is the slot at the ring front submitted (work the responder could
    /// take right now)? The sleep predicate of the dozing responder.
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
        let cell = &self.responder;
        // Fused calls never pass through the responder's cell, so the
        // plane-wide call count adds them.
        HotCallStats {
            calls: fused_runs + cell.calls.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            idle_polls: cell.idle_polls.load(Ordering::Relaxed),
            busy_polls: cell.busy_polls.load(Ordering::Relaxed),
            fused_runs,
        }
    }

    fn ring_snapshot(&self) -> RingStats {
        RingStats {
            totals: self.snapshot(),
            occupancy: self.occupancy_snapshot(),
        }
    }

    /// The plane's full telemetry view: counters plus the responder's
    /// stage histograms and the plane-wide reap histogram.
    fn plane_telemetry(&self, name: &str) -> PlaneTelemetry {
        let stages = &self.responder.stages;
        PlaneTelemetry {
            name: name.to_string(),
            stats: self.ring_snapshot(),
            queue: stages.queue.snapshot(),
            service: stages.service.snapshot(),
            reap: self.reaps.snapshot(),
        }
    }

    /// Is the responder out of the way, dozing on the ring's doze? While
    /// this holds, no responder core is spinning on the ring, so a
    /// requester executing inline steals nothing and saves the wake +
    /// cross-core transfer. The check is a heuristic: a fused call claims
    /// no slot, so a responder waking mid-decision costs the call its
    /// break-even, never its correctness.
    fn quiescent(&self) -> bool {
        self.doze.sleepers.load(Ordering::Relaxed) != 0
    }
}

impl<Req, Resp> core::fmt::Debug for RingShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingShared")
            .field("capacity", &self.slots.len())
            .finish()
    }
}

/// A running plane: one responder thread draining one multi-slot
/// submission ring in batches.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn_pool(table, 8, 1, HotCallConfig::default()).unwrap();
/// let requester = server.requester();
/// assert_eq!(requester.call(inc, 9).unwrap(), 10);
///
/// // Pipelined: two calls in flight, reaped oldest first.
/// let a = requester.submit(inc, 1).unwrap();
/// let b = requester.submit(inc, 2).unwrap();
/// let (seq, resp) = requester.wait_any(&mut vec![b, a]).unwrap();
/// assert_eq!((seq, resp), (1, 2));
/// ```
#[derive(Debug)]
pub struct RingServer<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    join: Option<JoinHandle<()>>,
}

impl<Req, Resp> RingServer<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Spawns the responder thread draining one shared ring of `capacity`
    /// slots for the plane's life. It takes a batch of contiguous
    /// submissions per `tail` advance and dozes when idle per
    /// [`HotCallConfig::idle_polls_before_sleep`]. `table` is a
    /// [`CallTable`] or a payload's own table ([`super::ByteCallTable`],
    /// [`super::SgCallTable`]). A plane has exactly one responder, so
    /// `n_responders` must be 1.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` is zero,
    /// `n_responders` is not 1, or the config fails
    /// [`HotCallConfig::validate`].
    pub fn spawn_pool(
        table: impl Into<CallTable<Req, Resp>>,
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(HotCallError::InvalidConfig(
                "ring capacity must be positive",
            ));
        }
        if n_responders != 1 {
            return Err(HotCallError::InvalidConfig(
                "a ring plane has one responder",
            ));
        }
        config.validate()?;
        let shared = Arc::new(RingShared {
            slots: (0..capacity).map(|_| CallSlot::new()).collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            doze: Doze::new(),
            abandon: AbandonBoard::new(capacity),
            table: table.into(),
            shutdown: AtomicBool::new(false),
            responder: CachePadded::default(),
            reaps: ReapCells::default(),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
        });
        let responder = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("hotcalls-ring-responder".to_string())
            .spawn(move || pool::responder_loop(&responder, config))
            .expect("spawn ring responder");
        Ok(RingServer {
            shared,
            config,
            join: Some(join),
        })
    }

    /// Creates a requester handle on the ring.
    pub fn requester(&self) -> RingRequester<Req, Resp> {
        RingRequester::new(Arc::clone(&self.shared), self.config)
    }

    /// Statistics so far: the responder's counters plus the calls
    /// requesters ran inline.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The responder in the [`GovernorStats`] form: one responder is
    /// active for the plane's life, so `active == min == max == 1` and
    /// the park/wake counters stay zero.
    pub fn governor_stats(&self) -> GovernorStats {
        GovernorStats {
            active: 1,
            min: 1,
            max: 1,
            ..GovernorStats::default()
        }
    }

    /// The full snapshot: totals and the ring's occupancy.
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }

    /// This plane's full telemetry view right now: counters plus the
    /// queue, service and reap histograms.
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

    /// Stops the responder and joins it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl<Req, Resp> RingServer<Req, Resp> {
    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.doze.wake_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl<Req, Resp> Drop for RingServer<Req, Resp> {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown_inner();
        }
    }
}

/// A handle submitting calls into a [`RingServer`]'s ring.
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
/// `seq - capacity`, i.e. after the responder took that call — which it
/// only does once the call was published. A claimed but still unpublished slot
/// (state `EMPTY`: rings have no `CLAIMED` mark) is therefore never lapped
/// onto. The `EMPTY` check below then waits out the rest of that call's
/// life (`SERVICING`, un-redeemed `DONE`).
///
/// **Happens-before.** The Acquire `tail` load pairs with the Release
/// `tail` store the responder made after reading slot `seq - capacity`
/// `SUBMITTED`; by coherence the state load below sees that `SUBMITTED` or
/// a later value, so an `EMPTY` read is the one `redeem` stored with
/// Release and the previous call's payload accesses are over before this
/// caller writes the cells.
fn claim_slot<Req, Resp>(ring: &RingShared<Req, Resp>) -> Option<usize> {
    let cap = ring.slots.len();
    // Tail before head: a tail snapshot taken first cannot exceed the head
    // snapshot, so the subtraction cannot underflow.
    let tail = ring.tail.load(Ordering::Acquire);
    // Acquire: pairs with the AcqRel head CAS of the previous claimant.
    let seq = ring.head.load(Ordering::Acquire);
    if occupancy(seq, tail) >= cap {
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

/// The wait loop shared by every blocking redeem path: polls `ready` until
/// it yields, or the plane shut down and the grace ran out.
fn poll_until<T>(shutdown: &AtomicBool, mut ready: impl FnMut() -> Option<T>) -> Result<T> {
    let mut backoff = Backoff::new();
    let mut grace: u32 = 0;
    loop {
        if let Some(hit) = ready() {
            return Ok(hit);
        }
        // The responder drains submitted work before exiting, but a submission
        // that raced the shutdown flag (or sits behind a neighbour stuck
        // mid-publish) may never be serviced; give up after a bounded
        // grace. The slot stays occupied and its payload is freed by Drop.
        if shutdown.load(Ordering::Acquire) {
            grace += 1;
            if grace > SHUTDOWN_GRACE_POLLS {
                return Err(HotCallError::ResponderGone);
            }
        }
        backoff.snooze();
    }
}

impl<Req, Resp> RingRequester<Req, Resp> {
    /// Is the fused run-to-completion path worth taking right now? The
    /// plane must be able to doze, its responder must doze and the ring's
    /// backlog must be below the break-even threshold. A plane that cannot
    /// doze stops at its own config; quiescence is read next: on a plane
    /// whose responder is awake it fails on one rarely written word, so an
    /// active plane never reads the responder-written `tail` line here. A
    /// plane shutting down takes the ring path, which reports
    /// `ResponderGone`.
    fn fused_eligible(&self) -> bool {
        let shared = &*self.shared;
        self.config.idle_polls_before_sleep.is_some()
            && shared.quiescent()
            && !shared.shutdown.load(Ordering::Acquire)
            && shared.occupancy_snapshot() < FUSED_BELOW_OCCUPANCY
    }

    /// Claims a slot, publishes `req` into it and wakes the responder,
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
                // Wake the sleeping responder (after the SUBMITTED store).
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

    /// Spins until the slot behind `index` is DONE. Returns `Err` only on
    /// shutdown-with-grace-expired.
    fn wait_done(&self, index: usize) -> Result<()> {
        let slot = self.shared.slot(index);
        let done = || (slot.state() == DONE).then_some(());
        poll_until(&self.shared.shutdown, done)
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

    /// Waits for the oldest of `tickets` (all issued by this plane) to
    /// complete, removes it from the set, and returns its sequence number
    /// (see [`Ticket::seq`]) with the response — the reap primitive that
    /// keeps a deep pipeline full.
    ///
    /// Redeeming oldest first keeps a window of up to `capacity - 1`
    /// tickets from lapping the ring onto a slot only this caller could
    /// free. It also costs no latency: the responder completes calls in
    /// submission order, so no younger ticket of the set is ever done
    /// while the oldest is still pending.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on an empty set, or — with the set
    /// left untouched — on one holding a ticket another plane issued;
    /// [`HotCallError::ResponderGone`] if the server shut down; a per-call
    /// failure (e.g. unknown id) is returned as-is (the offending ticket is
    /// consumed).
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        // In the caller's own memory: a foreign ticket would be matched
        // against the wrong plane's slots below.
        tickets
            .iter()
            .try_for_each(|t| self.shared.check_issuer(&t.board))?;
        let Some((oldest, _)) = tickets.iter().enumerate().min_by_key(|(_, t)| t.index) else {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        };
        self.wait_done(tickets[oldest].index)?;
        let mut ticket = tickets.swap_remove(oldest);
        let seq = ticket.seq();
        self.redeem(ticket.defuse()).map(|resp| (seq, resp))
    }

    /// Submit + wait in one step.
    ///
    /// On a plane whose responder can doze (`idle_polls_before_sleep` is
    /// set), once it has and the ring is near empty, the handler runs
    /// *inline on this thread* — no slot publish, no doze wake, no
    /// cross-core cache-line transfer. Any other time the call rides the
    /// ring. A plane that cannot doze never consults this gate.
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
    use crate::telemetry::TELEMETRY_ENABLED;
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

    /// A plane of `capacity` slots over a fresh squaring table.
    fn plane(capacity: usize, config: HotCallConfig) -> (Server, u32) {
        let (t, sq) = table();
        (RingServer::spawn_pool(t, capacity, 1, config).unwrap(), sq)
    }

    /// Blocks until the responder of `server` sleeps on its doze.
    fn await_dozing(server: &Server) {
        let dozing = || server.shared.doze.sleepers.load(Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while dozing() == 0 {
            assert!(Instant::now() < deadline, "the responder never slept");
            std::thread::yield_now();
        }
    }

    #[test]
    fn call_roundtrip() {
        let (server, sq) = plane(4, generous());
        let r = server.requester();
        assert_eq!(r.call(sq, 7).unwrap(), 49);
        assert_eq!(server.stats().calls, 1);
    }

    #[test]
    fn wait_any_reaps_every_ticket_oldest_first() {
        let (server, sq) = plane(16, generous());
        let r = server.requester();
        let mut tickets: Vec<Ticket> = (0..10u64).map(|i| r.submit(sq, i).unwrap()).collect();
        // Shuffle the set: the pick is by sequence, not by position.
        tickets.reverse();
        tickets.swap(2, 7);
        let mut got = Vec::new();
        while !tickets.is_empty() {
            got.push(r.wait_any(&mut tickets).unwrap());
        }
        // Sequence numbers are the ring indices 0..10 on a fresh server,
        // and each response is the square of its submission payload.
        let want: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i * i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pipelined_unknown_id_fails_only_its_ticket() {
        let (server, sq) = plane(4, generous());
        let r = server.requester();
        let tickets = [r.submit(sq, 3), r.submit(999, 1), r.submit(sq, 4)];
        let results = tickets.map(|t| r.wait(t.unwrap()));
        assert_eq!(*results[0].as_ref().unwrap(), 9);
        assert!(matches!(results[1], Err(HotCallError::UnknownCallId(999))));
        assert_eq!(*results[2].as_ref().unwrap(), 16);
    }

    #[test]
    fn wraps_many_times() {
        let (server, sq) = plane(2, generous());
        let r = server.requester();
        for i in 0..5_000u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        assert_eq!(server.stats().calls, 5_000);
    }

    #[test]
    fn fallback_runs_locally_on_timeout() {
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
        let server = RingServer::spawn_pool(t, 1, 1, config).unwrap();
        let r1 = server.requester();
        let r2 = server.requester();
        let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
        assert_eq!(v, 105);
        assert!(server.stats().fallbacks >= 1);
        assert_eq!(blocker.join().unwrap(), 7);
    }

    #[test]
    fn shutdown_fails_inflight_and_future_calls() {
        let (server, sq) = plane(2, generous());
        let r = server.requester();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        server.shutdown();
        assert!(matches!(r.submit(sq, 1), Err(HotCallError::ResponderGone)));
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let rejected = |server: Result<Server>| {
            assert!(matches!(server, Err(HotCallError::InvalidConfig(_))));
        };
        let t = || table().0;
        rejected(RingServer::spawn_pool(t(), 0, 1, generous()));
        rejected(RingServer::spawn_pool(t(), 8, 0, generous()));
        // A plane has exactly one responder.
        let two = RingServer::spawn_pool(t(), 8, 2, generous());
        assert!(matches!(
            two,
            Err(HotCallError::InvalidConfig(
                "a ring plane has one responder"
            ))
        ));
    }

    #[test]
    fn one_responder_snapshot_counts_every_call() {
        // After a fixed call sequence every counter that does not count
        // empty polls, and every stage histogram, is exact.
        let (server, sq) = plane(8, generous());
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
        assert_eq!(
            (rs.totals.calls - rs.totals.fused_runs, rs.occupancy),
            (105, 0)
        );
        if TELEMETRY_ENABLED {
            let counts = (t.queue.count(), t.service.count(), t.reap.count());
            assert_eq!(counts, (105, 105, 105));
        }
    }

    /// Two planes of the same payload type, each with one completed call
    /// whose ticket is still out. Each ticket comes paired with the other
    /// plane's handle, which has a DONE slot of its own at the ticket's
    /// sequence, so without the issuer check the ticket redeems somebody
    /// else's response instead of waiting forever.
    #[allow(clippy::type_complexity)]
    fn foreign_tickets() -> (Vec<Server>, u32, Vec<(RingRequester<u64, u64>, Ticket)>) {
        let (first, sq) = plane(4, generous());
        let (second, _) = plane(4, generous());
        let servers = vec![first, second];
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
        // Bursts as deep as the ring, drained a batch at a time, keep
        // exactly-once results.
        let (server, sq) = plane(8, generous());
        let r = server.requester();
        for _ in 0..50 {
            let tickets: Vec<Ticket> = (0..8u64).map(|i| r.submit(sq, i).unwrap()).collect();
            for (i, t) in tickets.into_iter().enumerate() {
                assert_eq!(r.wait(t).unwrap(), (i * i) as u64);
            }
        }
        assert_eq!(server.stats().calls, 400);
    }

    #[test]
    fn pool_idle_sleep_wakes_on_submit() {
        let (server, sq) = plane(8, dozing(Some(200)));
        let r = server.requester();
        assert_eq!(r.call(sq, 5).unwrap(), 25);
        // Let the responder doze off, then prove a submission still lands
        // (a synchronous call would now run inline and wake nobody).
        await_dozing(&server);
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
        // requesters, the responder constantly advancing tail. With the
        // old head-then-tail load order this underflowed in debug builds.
        let (server, sq) = plane(1, generous());
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
        let (server, sq) = plane(8, generous());
        let r = server.requester();
        for i in 0..500u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let g = server.governor_stats();
        assert_eq!((g.active, g.parked), (1, 0));
        assert_eq!((g.parks, g.wakes), (0, 0));
        assert_eq!((g.min, g.max), (1, 1));
    }

    #[test]
    fn concurrent_requesters_lose_nothing() {
        // Four threads, one handle each, sharing the one ring's head word.
        let (server, sq) = plane(8, generous());
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
        assert_eq!(total, (0..4).flat_map(squares).sum::<u64>());
        assert_eq!(server.stats().calls, 1_600);
    }

    #[test]
    fn doze_vs_submit_race_never_strands_a_submission() {
        // Race a requester against a responder that dozes after 32 empty
        // polls: a submission published while the responder is deciding
        // to sleep must still wake it (the doze predicate re-checks the
        // ring front), so every call completes well inside the deadline.
        // Submit + wait, not `call`: a synchronous call on the dozed
        // plane would run inline and publish nothing.
        let (server, sq) = plane(4, dozing(Some(32)));
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
                // Let the responder doze off between bursts so the
                // doze-vs-submit window is actually exercised.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert_eq!(server.stats().calls, 3_000);
    }

    /// A patient plane whose responder dozes after `idle` empty polls
    /// (`None`: it spins forever, so no call ever runs inline).
    fn dozing(idle: Option<u64>) -> HotCallConfig {
        HotCallConfig {
            idle_polls_before_sleep: idle,
            ..HotCallConfig::patient()
        }
    }

    #[test]
    fn unknown_id_propagates_pooled_and_fused() {
        for (config, fused) in [(generous(), 0), (dozing(Some(64)), 1)] {
            let (server, _) = plane(4, config);
            let r = server.requester();
            if fused == 1 {
                await_dozing(&server);
            }
            assert!(matches!(
                r.call(42, 1),
                Err(HotCallError::UnknownCallId(42))
            ));
            let s = server.stats();
            assert_eq!(s.fused_runs, fused, "{s:?}");
        }
    }

    #[test]
    fn wait_any_redeems_oldest_and_never_wedges_on_wrap() {
        // Regression: when the responder completes a window faster than
        // the caller redeems it, every outstanding ticket is DONE at scan
        // time, and a first-found `wait_any` kept redeeming whichever
        // ticket `swap_remove` had rotated to the front — always the
        // youngest — while older DONE slots sat un-redeemed until the head
        // lapped onto one and `submit` spun forever on a slot only this
        // very thread could free. This loop wraps the 8-slot ring dozens
        // of times.
        //
        // The loop keeps `submit`'s lap rule — a ticket a full lap behind
        // is redeemed by name before submitting past it — and counts how
        // often it fires: behind the one in-order responder, oldest-first
        // hands back the oldest ticket every time, so it never must,
        // while a first-found pick strands older DONE tickets until it
        // must.
        const CAPACITY: u64 = 8;
        let (server, sq) = plane(CAPACITY as usize, generous());
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
            assert!(resp <= (submitted - 1) * (submitted - 1));
            redeemed += 1;
        }
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
            redeemed += 1;
        }
        assert_eq!(redeemed, submitted);
        assert_eq!(server.stats().calls, submitted);
        assert_eq!(lapped, 0, "wait_any skipped the oldest");
    }

    #[test]
    fn a_plane_that_cannot_doze_uses_the_pool() {
        // A spinning responder (no doze) keeps the ring attended:
        // occupancy is low, but the call must not run inline — the
        // responder services it.
        let (server, sq) = plane(4, dozing(None));
        let r = server.requester();
        assert_eq!(r.call(sq, 9).unwrap(), 81);
        let s = server.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.fused_runs, 0, "{s:?}");
        let rs = server.ring_stats();
        assert_eq!(rs.totals.calls - rs.totals.fused_runs, 1, "{rs:?}");
    }

    #[test]
    fn calls_fuse_once_responders_doze() {
        let (server, sq) = plane(8, dozing(Some(64)));
        let r = server.requester();
        await_dozing(&server);
        let before_wakes = server.stats().wakeups;
        // Quiet plane, responder dozing: the call runs inline and pays no
        // wake.
        assert_eq!(r.call(sq, 12).unwrap(), 144);
        let s = server.stats();
        assert_eq!(s.fused_runs, 1, "{s:?}");
        assert_eq!(s.wakeups, before_wakes, "a fused call paid a wake");
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        let (server, sq) = plane(8, dozing(Some(64)));
        let r = server.requester();
        // Alternate quiet single calls (fuse once the responder dozes)
        // with pipelined bursts (occupancy pushes past break-even →
        // the ring). Exact conservation across the mixed paths is the
        // invariant.
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
    fn submissions_ride_the_pool_on_a_dozing_plane() {
        // Pipelined submissions never fuse, even with the break-even gate
        // wide open (dozing responder, empty ring): the pipelined caller
        // asked for overlap, and an inline completion would keep occupancy
        // at zero so the plane never hands a burst to the responder at
        // all.
        let (server, sq) = plane(8, dozing(Some(64)));
        let r = server.requester();
        await_dozing(&server);
        let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.calls, 4);
        assert_eq!(s.fused_runs, 0, "{s:?}");
    }
}
