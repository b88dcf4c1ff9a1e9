//! The queued HotCalls plane: one multi-slot submission ring, one
//! requester that pipelines calls into it, and one responder that drains
//! them in batches.
//!
//! The paper's single mailbox serializes its requesters through a spin
//! lock (Fig. 9); that plane is [`super::HotCallServer`], and it still
//! takes many. [`RingServer`] instead gives *one* requester many calls in
//! flight: a fixed ring of request slots lets it submit while the
//! responder drains in order. Each slot is its own little mailbox (SUBMIT
//! → DONE) on its own cache lines, and payloads move through lock-free
//! `UnsafeCell`s guarded by the slot state machine (see [`super::slot`]).
//!
//! **One ring, one requester, one responder.** A plane is one ring —
//! slots, head, tail, doze line and abandon board, all cache-padded —
//! with one writer per end. [`RingServer::requester`] hands out the one
//! [`RingRequester`] as a lease, and the handle is `Send` but not `Sync`,
//! so exactly one thread claims slots: it is the only writer of `head`.
//! The responder, spawned by [`RingServer::spawn_pool`] and draining for
//! the plane's life, is the only writer of `tail` and services slots in
//! sequence order. Concurrent requesters build one plane each — the
//! paper's Fig. 9 gives each call channel its own mailbox — or share the
//! mailbox. The payload is the server's type parameter: a typed plane is
//! `RingServer<Req, Resp>`, and the byte and scatter-gather planes are the
//! same server at `HotBuf` and `SgList` payloads ([`super::ByteRing`],
//! [`super::SgRing`]).
//!
//! Beyond the paper's synchronous protocol the plane *pipelines*
//! completions: [`RingRequester::submit`] returns a [`Ticket`]
//! immediately, and [`RingRequester::wait`] and
//! [`RingRequester::wait_any`] reap completions later, so the requester
//! keeps many slots in flight and overlaps its own work with the
//! responder's; a [`Window`] keeps such a pipeline without lapping the
//! ring onto a call it still holds. One ticket is one call: a slot carries
//! one request and one response, as the paper's mailbox does.
//!
//! This file is the ring's slot protocol (claim, lap and abandon rules,
//! tickets and their redeem) and its requester half; the retry budget,
//! the completion wait, the doze and the responder's lifecycle are the
//! plane core's (`plane.rs`), shared with the mailbox. While the
//! responder dozes (§4.2, "Conserving resources at idle times", after
//! [`HotCallConfig::idle_polls_before_sleep`] empty polls) a synchronous
//! [`RingRequester::call`] runs its handler inline.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::config::{HotCallConfig, FUSED_BELOW_OCCUPANCY};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, AtomicHist, GovernorStats, HotCallStats, PlaneProvider, PlaneTelemetry, RingStats,
};

use super::plane::{Core, ResponderThread};
use super::pool;
use super::slot::{AbandonBoard, CachePadded, CallSlot, DONE, EMPTY};
use super::CallTable;

/// Slots currently between claim and service. `head` and `tail` are
/// monotonic with `head >= tail` at every instant, but two separate
/// loads can still see them "out of order" — an observer must load
/// `tail` *before* `head` (then the head snapshot can only be newer,
/// never older, than the tail snapshot) and this subtraction wraps
/// instead of panicking as a second line of defense.
fn occupancy(head: usize, tail: usize) -> usize {
    head.wrapping_sub(tail)
}

/// What only the ring's requester writes, on a line the responder never
/// writes. The lease holder is the one writer of the other three words:
/// the handle is `!Sync`, and the lease's Release (drop) / Acquire
/// ([`RingServer::requester`]) pair orders one handle's writes before the
/// next handle's. So each is single-writer, like the responder's
/// `LocalStats`, and readers on other threads only load.
#[derive(Debug, Default)]
struct RequesterLine {
    /// A requester handle of this plane is alive.
    leased: AtomicBool,
    /// Next slot sequence the requester claims.
    head: AtomicUsize,
    /// Calls executed inline by the requester (fused run-to-completion).
    fused_runs: AtomicU64,
    /// Completion → redeem latency (reap stage).
    reap: AtomicHist,
}

pub(super) struct RingShared<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[CallSlot<Req, Resp>]>,
    /// The requester's words. Padded: the requester writes this line on
    /// every claim; the responder must not share it.
    requester: CachePadded<RequesterLine>,
    /// Next slot index the responder services; only the responder writes
    /// it. Padded likewise.
    pub(super) tail: CachePadded<AtomicUsize>,
    /// Shutdown flag, doze, the responder's stat cell and the requester's
    /// wakeup and fallback counters.
    pub(super) core: Core,
    /// Dropped-unredeemed ticket registry (see [`AbandonBoard`]): tickets
    /// hold a clone, and the requester lapping onto a marked slot reaps
    /// it. Its address doubles as the ticket's proof of origin.
    abandon: Arc<AbandonBoard>,
    /// The handler table, shared with the responder thread. Holding it
    /// here lets the *requester* dispatch inline on the fused
    /// run-to-completion path without any handoff.
    pub(super) table: CallTable<Req, Resp>,
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
        // Relaxed: `head` is stored before the `publish` Release that the
        // responder's `tail` Release follows, so after the Acquire above
        // this load reads a head at least as new as that tail.
        let head = self.requester.head.load(Ordering::Relaxed);
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
        self.core
            .snapshot(self.requester.fused_runs.load(Ordering::Relaxed))
    }

    fn ring_snapshot(&self) -> RingStats {
        RingStats {
            totals: self.snapshot(),
            occupancy: self.occupancy_snapshot(),
        }
    }

    /// The plane's full telemetry view: counters plus the responder's
    /// stage histograms and the requester's reap histogram.
    fn plane_telemetry(&self, name: &str) -> PlaneTelemetry {
        let stages = &self.core.stats.stages;
        PlaneTelemetry {
            name: name.to_string(),
            stats: self.ring_snapshot(),
            queue: stages.queue.snapshot(),
            service: stages.service.snapshot(),
            reap: self.requester.reap.snapshot(),
        }
    }

    /// Is the responder out of the way, dozing on the ring's doze? While
    /// this holds, no responder core is spinning on the ring, so the
    /// requester executing inline steals nothing and saves the wake +
    /// cross-core transfer. The check is a heuristic: a fused call claims
    /// no slot, so a responder waking mid-decision costs the call its
    /// break-even, never its correctness.
    fn quiescent(&self) -> bool {
        self.core.doze.sleepers.load(Ordering::Relaxed) != 0
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
    responder: ResponderThread,
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
    /// `HotCallConfig::validate`.
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
            requester: CachePadded::default(),
            tail: CachePadded::new(AtomicUsize::new(0)),
            core: Core::default(),
            abandon: AbandonBoard::new(capacity),
            table: table.into(),
        });
        let responder_shared = Arc::clone(&shared);
        let responder = ResponderThread::spawn("hotcalls-ring-responder", move || {
            pool::responder_loop(&responder_shared, config)
        });
        Ok(RingServer {
            shared,
            config,
            responder,
        })
    }

    /// Hands out the ring's one requester handle. The handle is a lease:
    /// dropping it — or the [`Window`], [`super::ByteCaller`] or
    /// [`super::StreamCaller`] that holds it — returns the lease, and
    /// tickets it issued still redeem through the next handle.
    ///
    /// # Panics
    ///
    /// If a handle of this plane is alive: a ring takes one requester.
    /// Concurrent requesters build one plane each, or share the mailbox
    /// ([`super::HotCallServer`]).
    pub fn requester(&self) -> RingRequester<Req, Resp> {
        // Acquire: pairs with the Release in the previous handle's drop,
        // so its writes to the requester line happen before this one's.
        let held = self.shared.requester.leased.swap(true, Ordering::Acquire);
        assert!(
            !held,
            "a ring plane takes one requester and its handle is alive: build one plane per requester"
        );
        RingRequester {
            shared: Arc::clone(&self.shared),
            config: self.config,
            not_sync: PhantomData,
        }
    }

    /// Statistics so far: the responder's counters plus the calls the
    /// requester ran inline.
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

    /// A [`PlaneProvider`]: a closure that reads this plane's telemetry
    /// whenever it is called. It holds the plane's shared state alive, so
    /// it still reads the final counters after the server shuts down.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        let shared = Arc::clone(&self.shared);
        let name = name.into();
        Box::new(move || shared.plane_telemetry(&name))
    }

    /// Stops the responder and joins it.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<Req, Resp> Drop for RingServer<Req, Resp> {
    fn drop(&mut self) {
        self.responder.stop(&self.shared.core);
    }
}

/// The one handle submitting calls into a [`RingServer`]'s ring (see
/// [`RingServer::requester`]).
///
/// The handle is `Send`, so it may move to the thread that calls, but not
/// `Sync`, so one thread at a time claims slots through it: the ring's
/// head, its inline-call count and its reap histogram each have one
/// writer (`tests/claim_protocol.rs` asserts both bounds at compile time).
#[derive(Debug)]
pub struct RingRequester<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    /// `Send + !Sync`.
    not_sync: PhantomData<Cell<()>>,
}

impl<Req, Resp> Drop for RingRequester<Req, Resp> {
    fn drop(&mut self) {
        // Release: the next handle's Acquire swap sees this handle's
        // writes to the requester line.
        self.shared.requester.leased.store(false, Ordering::Release);
    }
}

/// An in-flight call: redeem with [`RingRequester::wait`] or
/// [`RingRequester::wait_any`].
///
/// A ticket redeems only through a requester of the plane that issued it;
/// another plane's handle refuses it with [`HotCallError::InvalidConfig`].
///
/// Dropping a ticket unredeemed — on any thread — *abandons* the call:
/// the drop marks the slot on the issuing plane's abandon board, and the
/// requester reaps the stale response when it next laps onto the
/// completed slot. The response value is discarded, but the slot is
/// released — a dropped ticket no longer wedges the ring.
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
/// once the requester owns slot `seq % capacity` (state `EMPTY`, ready
/// for `publish`), `None` while the ring is full or the target slot is
/// still occupied — the caller retries.
///
/// **One claimant.** Only the lease holder calls this (see
/// [`RequesterLine`]), so `head` is single-writer: a plain load of the
/// requester's own last store and a plain store of the next sequence
/// claim the slot. Nothing else moves `head`, so the load is never stale,
/// and the store publishes nothing by itself: the payload travels with
/// `publish`'s Release store, which follows it.
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
    let head = &ring.requester.head;
    // Relaxed: single writer (see above).
    let seq = head.load(Ordering::Relaxed);
    let tail = ring.tail.load(Ordering::Acquire);
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
        // `seq - cap`, so the board's exact-sequence check cannot match a
        // live call.
        DONE if ring.abandon.try_take(seq.wrapping_sub(cap)) => {
            // SAFETY: the board handed this requester the dropped ticket's
            // redeem ownership; DONE was read with Acquire.
            drop(unsafe { slot.redeem() });
            return None;
        }
        // Mid-service, or a live un-redeemed response: wait for its owner.
        _ => return None,
    }
    // Relaxed: single writer; the slot is ours until `publish` hands it
    // over, since the full check keeps `head` a lap short of it until this
    // submission was published and taken.
    head.store(seq.wrapping_add(1), Ordering::Relaxed);
    Some(seq)
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
            && !shared.core.shutdown.load(Ordering::Acquire)
            && shared.occupancy_snapshot() < FUSED_BELOW_OCCUPANCY
    }

    /// Claims a slot within the retry budget, publishes `req` into it and
    /// wakes the responder, returning the absolute slot sequence.
    fn submit_request(&self, id: u32, req: Req) -> Result<usize> {
        let shared = &*self.shared;
        let head = shared.core.claim(&self.config, || claim_slot(shared))?;
        let slot = shared.slot(head);
        // SAFETY: `claim_slot` moved the single-writer `head` past this
        // slot, which grants exclusive claim ownership of it; publish once.
        unsafe { slot.publish(head, id, req) };
        // Wake the sleeping responder (after the SUBMITTED store).
        shared.core.wake();
        Ok(head)
    }

    /// Claims a slot and submits a request without waiting. Returns a
    /// [`Ticket`] to redeem the response against a requester of this
    /// plane.
    ///
    /// An un-redeemed ticket keeps its ring slot occupied, so a
    /// submission that laps the ring onto such a slot blocks until the
    /// ticket is redeemed (or, if the ticket was dropped, reaps the
    /// abandoned response itself). A pipelining caller keeps its tickets
    /// in a [`Window`] ([`RingRequester::window`]), which never submits
    /// past a ticket it still holds a full lap behind.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if no slot frees up within the
    /// retry budget; [`HotCallError::ResponderGone`] after shutdown.
    pub fn submit(&self, id: u32, req: Req) -> Result<Ticket> {
        let index = self.submit_request(id, req)?;
        Ok(Ticket {
            index,
            board: Some(Arc::clone(&self.shared.abandon)),
        })
    }

    /// Spins until the slot behind `index` is DONE. Returns `Err` only on
    /// shutdown-with-grace-expired.
    fn wait_done(&self, index: usize) -> Result<()> {
        let slot = self.shared.slot(index);
        let done = || (slot.state() == DONE).then_some(());
        self.shared.core.poll_until(done)
    }

    /// Redeems the response sitting DONE at `index`. The caller must be
    /// (or act for) the submitter and must have observed `DONE` with
    /// Acquire.
    fn redeem(&self, index: usize) -> Result<Resp> {
        let slot = self.shared.slot(index);
        // Read the completion stamp before redeeming: redeem frees the
        // slot for re-claim, after which the stamp belongs to a new call.
        let completed_at = slot.completed_at();
        // SAFETY: this plane's requester submitted the call at `index`
        // (every ticket-taking caller checked the ticket's issuer; the
        // submitting handle is this one or one before it, ordered by the
        // lease) and this thread observed DONE with Acquire; only the
        // requester redeems a slot, and the previous lap's DONE was
        // redeemed before this slot could be claimed again, so this DONE
        // is ours.
        let result = unsafe { slot.redeem() };
        let reap = &self.shared.requester.reap;
        reap.record(now_cycles().saturating_sub(completed_at));
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
    /// Redeeming oldest first keeps the requester from lapping the ring
    /// onto a slot only it could free: a set may be as deep as the ring.
    /// It also costs no latency: the responder completes calls in
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
            let result = self.shared.table.call(id, req);
            let fused = &self.shared.requester.fused_runs;
            // Relaxed load + store: single writer (see `RequesterLine`).
            fused.store(fused.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            return result;
        }
        let index = self.submit_request(id, req)?;
        self.wait_index(index)
    }

    /// This handle as a [`Window`] of up to `depth` calls in flight.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `depth` is 0 or exceeds the
    /// ring's capacity.
    pub fn window(self, depth: usize) -> Result<Window<Req, Resp>> {
        if depth == 0 || depth > self.capacity() {
            return Err(HotCallError::InvalidConfig(
                "a window holds 1 to capacity calls",
            ));
        }
        let inflight = VecDeque::with_capacity(depth);
        Ok(Window {
            requester: self,
            inflight,
            depth,
        })
    }

    pub(super) fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

/// Up to `depth` calls in flight on the ring's requester, redeemed oldest
/// first: the ring's lap rule in a type. A submission laps onto the slot
/// of the call `capacity` sequences before it; a window of
/// `depth ≤ capacity` has redeemed that call by then, and waiting on the
/// oldest costs nothing, since the one responder completes calls in
/// submission order. Dropping a window abandons its calls in flight (see
/// [`Ticket`]) and returns the requester's lease.
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn_pool(table, 4, 1, HotCallConfig::default()).unwrap();
/// let mut window = server.requester().window(4).unwrap();
/// // The fifth submission first redeems the oldest call.
/// let reaped: Vec<_> = (0..5).filter_map(|x| window.submit(inc, x).unwrap()).collect();
/// assert_eq!(reaped, [1]);
/// assert_eq!(window.drain(|resp| assert!(resp > 1)).unwrap(), 4);
/// ```
#[derive(Debug)]
pub struct Window<Req, Resp> {
    requester: RingRequester<Req, Resp>,
    /// Tickets in flight, oldest first.
    inflight: VecDeque<Ticket>,
    depth: usize,
}

impl<Req, Resp> Window<Req, Resp> {
    /// The handle the window submits through, for synchronous calls.
    pub fn requester(&self) -> &RingRequester<Req, Resp> {
        &self.requester
    }

    /// Calls in flight.
    pub(crate) fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Is nothing in flight?
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Submits a call without waiting. A full window first redeems its
    /// oldest call and returns that response.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait`] for the oldest call (`req` is then
    /// dropped unsubmitted), or as [`RingRequester::submit`].
    pub fn submit(&mut self, id: u32, req: Req) -> Result<Option<Resp>> {
        let full = self.inflight.len() == self.depth;
        let reaped = if full { self.reap().transpose()? } else { None };
        self.inflight.push_back(self.requester.submit(id, req)?);
        Ok(reaped)
    }

    /// Redeems the oldest call in flight; `None` when nothing is.
    pub(super) fn reap(&mut self) -> Option<Result<Resp>> {
        let ticket = self.inflight.pop_front()?;
        Some(self.requester.wait(ticket))
    }

    /// Redeems every call in flight, oldest first, passing each response
    /// to `f`; returns how many it passed.
    ///
    /// # Errors
    ///
    /// The first failed call's error, once every call is redeemed.
    pub fn drain(&mut self, mut f: impl FnMut(Resp)) -> Result<u64> {
        let (mut passed, mut failed) = (0, None);
        while let Some(result) = self.reap() {
            match result.map(&mut f) {
                Ok(()) => passed += 1,
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        failed.map_or(Ok(passed), Err)
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
        let dozing = || server.shared.core.doze.sleepers.load(Ordering::SeqCst);
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
        // A window holds 1 to capacity calls.
        let (server, _) = plane(4, generous());
        for (depth, ok) in [(0, false), (1, true), (4, true), (5, false)] {
            let window = server.requester().window(depth);
            assert_eq!(window.is_ok(), ok, "depth {depth}");
        }
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
        // Maximize head/tail snapshot races: a capacity-1 ring lapped by
        // its requester on another thread while this thread reads the
        // occupancy, the responder constantly advancing tail. With a
        // head-then-tail load order the snapshot underflows.
        let (server, sq) = plane(1, generous());
        let r = server.requester();
        let caller = std::thread::spawn(move || {
            for i in 0..1_200u64 {
                assert_eq!(r.call(sq, i % 50).unwrap(), (i % 50) * (i % 50));
            }
        });
        while !caller.is_finished() {
            let occupancy = server.ring_stats().occupancy;
            assert!(occupancy <= 1_200, "snapshot wrapped: {occupancy}");
        }
        caller.join().unwrap();
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
