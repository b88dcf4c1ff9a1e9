//! Lock-free building blocks shared by the mailbox and ring runtimes.
//!
//! The paper's protocol already serializes every payload handoff through an
//! atomic state machine; the mutexes the first implementation wrapped
//! around the request/response slots were pure overhead. This module keeps
//! the payloads in [`UnsafeCell`]s and makes the state machine the *only*
//! synchronization: each state transition's acquire/release edge publishes
//! the payload written before it.
//!
//! It also provides the layout and pacing primitives the data plane needs:
//! [`CachePadded`] (kill false sharing between slots and counters),
//! [`Backoff`] (adaptive spin → pause ladder → yield), [`Doze`]
//! (sleep/wake for idle responders) and [`StatCell`]/[`LocalStats`]
//! (responder-local statistics flushed with plain stores instead of
//! `fetch_add` on shared lines every poll).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;

use parking_lot::{Condvar, Mutex};

use crate::error::Result;
use crate::telemetry::{now_cycles, AtomicHist, CycleHist, TELEMETRY_ENABLED};

/// Pads and aligns a value to a cache line so neighbouring values never
/// share one (the classic crossbeam `CachePadded`). 64 bytes covers x86-64
/// and pre-Apple-silicon ARM; on 128-byte-line parts two values per line is
/// still far better than the unpadded worst case.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    pub(crate) const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> core::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Slot has no call in it and may be claimed by a requester.
pub(crate) const EMPTY: usize = 0;
/// A mailbox requester won the claim and is writing the request payload.
/// Ring slots never take this value: their claim is the head-counter CAS,
/// and they go straight from `EMPTY` to `SUBMITTED`.
pub(crate) const CLAIMED: usize = 1;
/// Request payload is published; a responder may take the slot.
pub(crate) const SUBMITTED: usize = 2;
/// A responder took the request and is executing the handler.
pub(crate) const SERVICING: usize = 3;
/// Response payload is published; the submitting requester may redeem it.
pub(crate) const DONE: usize = 4;

/// The state word keeps the phase (`EMPTY` … `DONE`) in its low bits. A
/// `SUBMITTED` word carries, above them, the ring sequence the request was
/// published for (0 on the mailbox): see [`CallSlot::submitted_as`].
const PHASE_BITS: u32 = 3;
const PHASE_MASK: usize = (1 << PHASE_BITS) - 1;

/// Waker-cell states for the async completion protocol (`wake_state`).
/// Sync calls never leave `W_IDLE`, so the only cost they pay is one
/// relaxed-ish load in [`CallSlot::finish`] and one in
/// [`CallSlot::redeem`].
///
/// Transitions (all RMWs on one atomic, hence totally ordered):
///
/// ```text
///   submit_async:            IDLE  -> ARMED          (plain store, pre-publish)
///   future poll (register):  ARMED -> BUSY -> SET    (CAS, write waker, store)
///   re-register:             SET   -> BUSY -> SET
///   completer (no waker):    ARMED -> FIRED          (CAS)
///   completer (waker set):   SET   -> BUSY -> FIRED  (CAS, take+wake, store)
///   redeem (clear):          FIRED -> IDLE           (after spinning for FIRED)
/// ```
///
/// `FIRED` is terminal for a call: the redeemer spins until the completer
/// reaches it before releasing the slot, so a descheduled completer can
/// never touch the *next* call's arming through a recycled slot.
const W_IDLE: u8 = 0;
/// An async submitter armed the slot; no waker stored yet.
const W_ARMED: u8 = 1;
/// One side holds exclusive access to the waker cell (short critical
/// section: a clone-store or a take).
const W_BUSY: u8 = 2;
/// A waker is stored and will be fired on completion.
const W_SET: u8 = 3;
/// Completion ran its half of the protocol; terminal until redeem.
const W_FIRED: u8 = 4;

/// One call slot: the state word on its own cache line, then the request
/// and response payload cells.
///
/// The payload cells carry no synchronization of their own. Exclusive
/// access is granted by state-machine transitions:
///
/// * The claim — the mailbox's `EMPTY → CLAIMED` CAS, or on a ring the
///   head-counter CAS, which leaves the word `EMPTY` — grants the winning
///   requester exclusive write access to `req`.
/// * `SUBMITTED` observed with `Acquire` *plus* service ownership (single
///   responder, or winning the ring's tail CAS) grants a responder
///   exclusive access to take `req` and write `resp`.
/// * `DONE` observed with `Acquire` by the submitting requester grants it
///   exclusive access to take `resp` and release the slot.
///
/// Each `unsafe fn` below names the edge that makes it sound.
pub(crate) struct CallSlot<Req, Resp> {
    /// Isolated on its own line: requesters and responders spin on this
    /// word, and sharing it with payload bytes would ping-pong the line on
    /// every payload write.
    state: CachePadded<AtomicUsize>,
    /// Cycle stamp taken in [`Self::publish`], read by the servicing
    /// responder to separate queueing delay from service time. Written
    /// under the claim's exclusivity, read under service ownership — the
    /// state machine orders both, so plain `Relaxed` accesses suffice.
    /// Always 0 under `telemetry-off`.
    t_submit: AtomicU64,
    /// Cycle stamp taken in [`Self::finish`], read by the redeeming
    /// requester to measure reap latency. Same ownership argument as
    /// `t_submit`.
    t_complete: AtomicU64,
    /// Async completion protocol state (`W_*` constants). Guards `waker`.
    wake_state: AtomicU8,
    /// The waker a pending future registered, fired exactly once by the
    /// completing side. Access is granted by holding `W_BUSY` (or by the
    /// terminal `W_FIRED`/`Drop` exclusivity).
    waker: UnsafeCell<Option<Waker>>,
    req: UnsafeCell<MaybeUninit<(u32, Req)>>,
    resp: UnsafeCell<MaybeUninit<Result<Resp>>>,
}

// SAFETY: the payload cells are only ever accessed by the single thread
// the state machine designates (see the struct docs); sending the payloads
// across threads is what the slot is for, hence `Req: Send`/`Resp: Send`.
unsafe impl<Req: Send, Resp: Send> Sync for CallSlot<Req, Resp> {}
unsafe impl<Req: Send, Resp: Send> Send for CallSlot<Req, Resp> {}

impl<Req, Resp> CallSlot<Req, Resp> {
    pub(crate) fn new() -> Self {
        CallSlot {
            state: CachePadded::new(AtomicUsize::new(EMPTY)),
            t_submit: AtomicU64::new(0),
            t_complete: AtomicU64::new(0),
            wake_state: AtomicU8::new(W_IDLE),
            waker: UnsafeCell::new(None),
            req: UnsafeCell::new(MaybeUninit::uninit()),
            resp: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// The submit-time cycle stamp of the call currently in the slot
    /// (0 under `telemetry-off`).
    #[inline]
    pub(crate) fn submitted_at(&self) -> u64 {
        self.t_submit.load(Ordering::Relaxed)
    }

    /// The completion-time cycle stamp of the call currently in the slot
    /// (0 under `telemetry-off`).
    #[inline]
    pub(crate) fn completed_at(&self) -> u64 {
        self.t_complete.load(Ordering::Relaxed)
    }

    /// Current phase (`Acquire`: pairs with the release transition that
    /// published it, so payload written before that transition is visible).
    #[inline]
    pub(crate) fn state(&self) -> usize {
        self.state.load(Ordering::Acquire) & PHASE_MASK
    }

    /// Is the request of ring sequence `seq` published here and not yet
    /// taken? This, not `state() == SUBMITTED`, is what a responder scans
    /// for: the winner of a tail CAS owns its slots *before* it moves them
    /// to `SERVICING`, and in that window a second scanner reaching the
    /// same physical slot one lap later (`seq + capacity`) would take the
    /// still-`SUBMITTED` word for a fresh submission, claim it as well,
    /// service the call twice and push `tail` past `head`. The sequence in
    /// the word tells the laps apart. `Acquire` as in [`Self::state`].
    #[inline]
    pub(crate) fn submitted_as(&self, seq: usize) -> bool {
        self.state.load(Ordering::Acquire) == (seq << PHASE_BITS | SUBMITTED)
    }

    /// Tries the `EMPTY → CLAIMED` edge (mailbox claim).
    #[inline]
    pub(crate) fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(EMPTY, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Publishes the request as ring sequence `seq` (0 on the mailbox):
    /// `CLAIMED → SUBMITTED` on the mailbox, `EMPTY → SUBMITTED` on a ring.
    /// A ring slot's state line is therefore written once per submission,
    /// and the line an idle responder spins on is not invalidated by an
    /// advisory mark first. Nothing needs the mark: a second claimant
    /// reaches this physical slot only one lap later, and the tail-based
    /// full check in `ring::claim_slot` refuses that lap until this very
    /// submission has been published and taken.
    ///
    /// # Safety
    ///
    /// Caller must hold the claim (won [`Self::try_claim`] or the ring's
    /// head CAS) and call this at most once per claim. That claim is
    /// exclusive, so no other thread reads or writes `req` until the
    /// Release store below hands the slot over.
    #[inline]
    pub(crate) unsafe fn publish(&self, seq: usize, id: u32, req: Req) {
        debug_assert!(self.state.load(Ordering::Relaxed) <= CLAIMED);
        (*self.req.get()).write((id, req));
        if TELEMETRY_ENABLED {
            // Stamp before the Release store so the responder's Acquire of
            // SUBMITTED makes the stamp visible along with the payload.
            self.t_submit.store(now_cycles(), Ordering::Relaxed);
        }
        self.state
            .store(seq << PHASE_BITS | SUBMITTED, Ordering::Release);
    }

    /// Takes the request out: `SUBMITTED → SERVICING`.
    ///
    /// # Safety
    ///
    /// Caller must own servicing of this slot: it observed `SUBMITTED`
    /// with `Acquire` (so the payload written by [`Self::publish`] is
    /// visible) *and* is the designated responder (the only responder, or
    /// the winner of the ring's tail CAS covering this slot). Ownership
    /// makes the payload read exclusive and unrepeatable.
    #[inline]
    pub(crate) unsafe fn take_request(&self) -> (u32, Req) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed) & PHASE_MASK, SUBMITTED);
        let payload = (*self.req.get()).assume_init_read();
        // Relaxed: only this thread advances the slot until `finish`, and
        // `Drop` (which keys payload cleanup on this word) holds `&mut`.
        self.state.store(SERVICING, Ordering::Relaxed);
        payload
    }

    /// Publishes the response: `SERVICING → DONE`.
    ///
    /// # Safety
    ///
    /// Caller must be the servicing responder (took [`Self::take_request`]
    /// for this call) and call this at most once per call; until the
    /// Release store below, no other thread touches `resp`.
    #[inline]
    pub(crate) unsafe fn finish(&self, resp: Result<Resp>) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), SERVICING);
        (*self.resp.get()).write(resp);
        if TELEMETRY_ENABLED {
            // Stamp before the Release store: the requester's Acquire of
            // DONE makes it visible for the reap-latency record.
            self.t_complete.store(now_cycles(), Ordering::Relaxed);
        }
        self.state.store(DONE, Ordering::Release);
        // Fire any waker an async submitter armed. This single hook covers
        // every completion path — pooled responder, fused inline service,
        // mailbox responder, and the shutdown sweep — because they all
        // publish through `finish`.
        self.wake_async();
    }

    /// Takes the response out and frees the slot: `DONE → EMPTY`.
    ///
    /// # Safety
    ///
    /// Caller must be the requester that submitted this call and must have
    /// observed `DONE` with `Acquire` (making the response visible). Being
    /// the submitter makes the read exclusive: nobody else redeems a slot
    /// they did not submit to.
    #[inline]
    pub(crate) unsafe fn redeem(&self) -> Result<Resp> {
        let payload = (*self.resp.get()).assume_init_read();
        // Quiesce the async protocol *before* releasing the slot: a
        // completer descheduled between its DONE store and its wake-state
        // transition must not be left able to fire the next call's arming.
        self.clear_async();
        // Release: the next claimant's Acquire (CAS or counter chain) must
        // see the payload as consumed before it rewrites the cells.
        self.state.store(EMPTY, Ordering::Release);
        payload
    }

    // ------------------------------------------------ async completion --

    /// Arms the waker cell for an async submission. Must be called while
    /// holding the claim, *before* [`Self::publish`]: the `SUBMITTED`
    /// Release store then carries the armed state to whichever thread
    /// completes the call, so its [`Self::wake_async`] cannot miss it.
    #[inline]
    pub(crate) fn arm_async(&self) {
        debug_assert!(self.state.load(Ordering::Relaxed) <= CLAIMED);
        self.wake_state.store(W_ARMED, Ordering::Relaxed);
    }

    /// Whether this slot's call was submitted with [`Self::arm_async`].
    #[inline]
    pub(crate) fn is_armed(&self) -> bool {
        self.wake_state.load(Ordering::Relaxed) != W_IDLE
    }

    /// Stores (or replaces) the waker a pending future should be woken
    /// with. Returns `true` when the completion already fired — the caller
    /// must not wait for a wake and should poll the slot state directly
    /// (the `Acquire` load of `W_FIRED` makes the `DONE` store visible).
    ///
    /// Only the submitting future's task calls this (one registrant); the
    /// only contender for `W_BUSY` is the completer taking `SET -> FIRED`.
    pub(crate) fn register_waker(&self, waker: &Waker) -> bool {
        debug_assert!(self.is_armed(), "register_waker on an unarmed slot");
        loop {
            match self.wake_state.load(Ordering::Acquire) {
                W_FIRED => return true,
                cur @ (W_ARMED | W_SET) => {
                    if self
                        .wake_state
                        .compare_exchange(cur, W_BUSY, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    // SAFETY: winning the CAS to W_BUSY grants exclusive
                    // access to the waker cell.
                    unsafe { *self.waker.get() = Some(waker.clone()) };
                    self.wake_state.store(W_SET, Ordering::Release);
                    return false;
                }
                // W_BUSY: the completer is mid-take; it finishes in a few
                // instructions and lands on W_FIRED.
                _ => core::hint::spin_loop(),
            }
        }
    }

    /// The completer's half of the protocol, run by [`Self::finish`] after
    /// the `DONE` Release store: fire the registered waker (if any) and
    /// land on the terminal `W_FIRED` so the redeemer can quiesce.
    #[inline]
    fn wake_async(&self) {
        // Sync fast path: one load, nothing armed.
        if self.wake_state.load(Ordering::Acquire) == W_IDLE {
            return;
        }
        let mut backoff = Backoff::new();
        loop {
            match self.wake_state.load(Ordering::Acquire) {
                W_ARMED => {
                    if self
                        .wake_state
                        .compare_exchange(W_ARMED, W_FIRED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                W_SET => {
                    if self
                        .wake_state
                        .compare_exchange(W_SET, W_BUSY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        // SAFETY: winning the CAS to W_BUSY grants
                        // exclusive access to the waker cell.
                        let w = unsafe { (*self.waker.get()).take() };
                        // FIRED before waking: the woken poll must observe
                        // the terminal state (and, through it, DONE).
                        self.wake_state.store(W_FIRED, Ordering::Release);
                        if let Some(w) = w {
                            w.wake();
                        }
                        return;
                    }
                }
                // W_BUSY: a registrant is mid-store; it reaches W_SET in a
                // few instructions.
                _ => backoff.snooze(),
            }
        }
    }

    /// The redeemer's half: wait for the completer to reach `W_FIRED`,
    /// then reset to `W_IDLE`. Called by [`Self::redeem`] before the
    /// `EMPTY` release so a recycled slot always starts quiesced.
    #[inline]
    fn clear_async(&self) {
        // Sync fast path: one load, nothing armed.
        if self.wake_state.load(Ordering::Acquire) == W_IDLE {
            return;
        }
        let mut backoff = Backoff::new();
        while self.wake_state.load(Ordering::Acquire) != W_FIRED {
            // The completer is between its DONE store and its wake-state
            // transition (or a registrant holds W_BUSY); both are bounded.
            backoff.snooze();
        }
        // SAFETY: W_FIRED is terminal — no other thread touches the cell
        // again this call, and `redeem`'s submitter-exclusivity covers us.
        unsafe { (*self.waker.get()).take() };
        self.wake_state.store(W_IDLE, Ordering::Release);
    }
}

impl<Req, Resp> Drop for CallSlot<Req, Resp> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent access. Which payload (if any) is
        // live is exactly what the state word records: a request that was
        // published but never serviced, or a response that was published
        // but never redeemed (both happen when shutdown strands a call).
        match *self.state.get_mut() & PHASE_MASK {
            // SAFETY: SUBMITTED means `publish` ran and `take_request`
            // did not; the request payload is initialized and unowned.
            SUBMITTED => unsafe {
                drop(self.req.get_mut().assume_init_read());
            },
            // SAFETY: DONE means `finish` ran and `redeem` did not; the
            // response payload is initialized and unowned.
            DONE => unsafe {
                drop(self.resp.get_mut().assume_init_read());
            },
            // EMPTY/CLAIMED: no payload written. SERVICING: the request
            // was already moved out and the response not yet written.
            _ => {}
        }
        // A waker registered for a call that never completed (shutdown
        // stranding an armed submission) must be released too.
        drop(self.waker.get_mut().take());
    }
}

impl<Req, Resp> core::fmt::Debug for CallSlot<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CallSlot")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// Dropped-unredeemed ticket registry, one cell per physical ring slot.
///
/// A ticket dropped without being waited used to wedge its slot forever:
/// the call completes to `DONE`, nobody redeems it, and every claimant
/// that laps onto the slot spins on the `EMPTY` check until shutdown. The
/// board makes abandonment explicit: [`Ticket::drop`] marks the cell with
/// the call's sequence number, and the claimant that next laps onto the
/// slot reaps the stale response itself.
///
/// The cell stores `seq + 1` (`0` = no abandonment). Reaping is an
/// exact-sequence CAS: the occupant of slot `head % cap` at claim
/// sequence `head` is exactly `head - cap`, so a mark from any *earlier*
/// lap can never falsely match, and at most one racing claimant wins the
/// CAS — the redeem ownership the dropper relinquished transfers to
/// exactly one thread.
#[derive(Debug)]
pub(crate) struct AbandonBoard {
    cells: Box<[AtomicUsize]>,
}

impl AbandonBoard {
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(AbandonBoard {
            cells: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// Records that the ticket for call `seq` was dropped unredeemed.
    #[inline]
    pub(crate) fn mark(&self, seq: usize) {
        self.cells[seq % self.cells.len()].store(seq.wrapping_add(1), Ordering::Release);
    }

    /// Claims the reap of abandoned call `seq`; `true` transfers the
    /// dropper's redeem ownership to the caller (exactly once).
    #[inline]
    pub(crate) fn try_take(&self, seq: usize) -> bool {
        self.cells[seq % self.cells.len()]
            .compare_exchange(seq.wrapping_add(1), 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// Upper bound of the pause ladder: 2^6 = 64 `PAUSE`s before escalating.
const SPIN_LIMIT: u32 = 6;

/// `true` when the host exposes a single hardware thread. Computed once:
/// `available_parallelism` is a syscall, far too slow for a wait loop.
fn single_core() -> bool {
    static CORES: AtomicUsize = AtomicUsize::new(0);
    let mut n = CORES.load(Ordering::Relaxed);
    if n == 0 {
        n = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        CORES.store(n, Ordering::Relaxed);
    }
    n == 1
}

/// Adaptive waiting: a geometric `PAUSE` ladder that escalates to
/// `yield_now` once spinning has demonstrably not helped (the fix for the
/// old fixed `spins % 64 == 0` yield, which both yielded too late under a
/// descheduled peer and too eagerly under a fast one).
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    #[inline]
    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Progress was made; start the ladder over.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits a little longer than last time: 1, 2, 4, … 64 `PAUSE`s, then
    /// a scheduler yield per call.
    ///
    /// On a single-core host the ladder is skipped entirely: the peer we
    /// are waiting on cannot run until we give up the core, so every
    /// `PAUSE` before the yield is pure added latency (measured ~2.5x on
    /// the round-trip benchmark).
    #[inline]
    pub(crate) fn snooze(&mut self) {
        if single_core() {
            std::thread::yield_now();
        } else if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                core::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// `true` once [`Backoff::snooze`] has escalated past the `PAUSE`
    /// ladder and each call costs a scheduler yield. Wait loops that
    /// amortize an expensive check (e.g. a deadline read) over a poll
    /// stride use this to drop the stride once polls stop being cheap —
    /// 64 yields between deadline reads overshoots a small timeout by
    /// scheduler quanta, not nanoseconds.
    #[inline]
    pub(crate) fn yields(&self) -> bool {
        single_core() || self.step > SPIN_LIMIT
    }
}

/// Sleep/wake rendezvous for idle responders (paper §4.2, "Conserving
/// resources at idle times"), shared by the mailbox and the ring pool.
#[derive(Debug)]
pub(crate) struct Doze {
    /// How many responders are in (or entering) the sleep protocol.
    /// Requesters read it to skip the mutex on the hot path.
    pub(crate) sleepers: AtomicUsize,
    /// The wake flag; `true` means "a wake was posted, re-check for work".
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Doze {
    pub(crate) fn new() -> Self {
        Doze {
            sleepers: AtomicUsize::new(0),
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Parks the calling responder until a wake is posted or `work`
    /// reports something to do.
    ///
    /// Lost-wakeup freedom is the flag-flag (Dekker) argument: the
    /// responder registers in `sleepers` with a SeqCst RMW *before*
    /// re-checking `work`, and [`Doze::wake`] publishes its work with a
    /// SeqCst fence *before* reading `sleepers` — in any interleaving at
    /// least one side sees the other.
    pub(crate) fn sleep_unless(&self, work: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if work() {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let mut flag = self.flag.lock();
        while !*flag && !work() {
            self.cv.wait(&mut flag);
        }
        *flag = false;
        drop(flag);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Posts a wake if any responder sleeps. Returns whether one was
    /// posted (the caller counts it as a `wakeups` statistic).
    ///
    /// Must be called *after* the Release store that published the work
    /// being signalled (see [`Doze::sleep_unless`] for the pairing).
    pub(crate) fn wake(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut flag = self.flag.lock();
        *flag = true;
        self.cv.notify_one();
        true
    }

    /// Posts a wake to every sleeping responder (shutdown path).
    pub(crate) fn wake_all(&self) {
        let mut flag = self.flag.lock();
        *flag = true;
        self.cv.notify_all();
    }
}

/// The stage histogram cells one responder records into: queueing delay
/// (submit stamp → responder pickup) and service time (pickup →
/// completion). Same single-writer discipline as the counters — stolen
/// work is attributed to the *stealing* responder's cell. Bucket-free
/// under `telemetry-off`.
#[derive(Debug, Default)]
pub(crate) struct StageCells {
    pub(crate) queue: AtomicHist,
    pub(crate) service: AtomicHist,
}

/// The reap-stage histogram (completion → redeem) of one plane: one cell
/// per requester handle, recorded **single-writer** by that handle exactly
/// like the responders' [`StageCells`], so redeeming a call does no shared
/// read-modify-write. [`ReapCells::snapshot`] merges the cells.
#[derive(Debug, Default)]
pub(crate) struct ReapCells {
    /// `.0` holds the samples of handles that are gone, `.1` the cells of
    /// the live ones. Locked only when a handle is minted or a snapshot
    /// is taken — never on the call path.
    cells: Mutex<(CycleHist, Vec<Arc<AtomicHist>>)>,
}

impl ReapCells {
    /// Mints the cell of a new requester handle. Cells whose handle was
    /// dropped are folded into the retired histogram here, so the registry
    /// stays as large as the set of live handles. `Arc::get_mut` is the
    /// uniqueness test because it acquires the dropped handle's last
    /// (Relaxed) records along with the reference count.
    pub(crate) fn register(&self) -> Arc<AtomicHist> {
        let mut cells = self.cells.lock();
        let (retired, live) = &mut *cells;
        live.retain_mut(|cell| match Arc::get_mut(cell) {
            Some(orphan) => {
                retired.merge(&orphan.snapshot());
                false
            }
            None => true,
        });
        let cell = Arc::new(AtomicHist::new());
        live.push(Arc::clone(&cell));
        cell
    }

    /// Every reap recorded on the plane so far, over all handles.
    pub(crate) fn snapshot(&self) -> CycleHist {
        let cells = self.cells.lock();
        let mut merged = cells.0.clone();
        for cell in &cells.1 {
            merged.merge(&cell.snapshot());
        }
        merged
    }
}

/// A responder-owned statistics cell. Only its responder writes it (plain
/// stores of running totals), anyone may read it; padded wherever it is
/// embedded so readers never dirty the responder's line.
#[derive(Debug, Default)]
pub(crate) struct StatCell {
    pub(crate) calls: AtomicU64,
    pub(crate) busy_polls: AtomicU64,
    pub(crate) idle_polls: AtomicU64,
    /// Per-responder queue/service histograms (telemetry plane).
    pub(crate) stages: StageCells,
}

/// The responder's private (non-atomic) counters, flushed to its
/// [`StatCell`]: before every `DONE` hand-off (so `stats().calls` is exact
/// the moment a call returns), every 1024 idle polls, before sleeping, and
/// at exit.
#[derive(Debug, Default)]
pub(crate) struct LocalStats {
    pub(crate) calls: u64,
    pub(crate) busy_polls: u64,
    pub(crate) idle_polls: u64,
}

impl LocalStats {
    /// Publishes the running totals. Plain Relaxed stores: the cell is
    /// this responder's alone, and exactness-on-return is ordered by the
    /// `DONE` Release store that follows the flush.
    #[inline]
    pub(crate) fn flush(&self, cell: &StatCell) {
        cell.calls.store(self.calls, Ordering::Relaxed);
        cell.busy_polls.store(self.busy_polls, Ordering::Relaxed);
        cell.idle_polls.store(self.idle_polls, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padding_isolates_lines() {
        assert_eq!(core::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert!(core::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        // The slot's state word starts a line; payloads follow it.
        assert_eq!(core::mem::align_of::<CallSlot<u64, u64>>(), 64);
    }

    #[test]
    fn slot_roundtrip_moves_payloads() {
        let slot: CallSlot<String, String> = CallSlot::new();
        assert!(slot.try_claim());
        assert!(!slot.try_claim(), "claim is exclusive");
        // SAFETY: we hold the claim won above.
        unsafe { slot.publish(0, 7, "ping".to_string()) };
        assert_eq!(slot.state(), SUBMITTED);
        // SAFETY: single thread; SUBMITTED observed; sole responder.
        let (id, req) = unsafe { slot.take_request() };
        assert_eq!((id, req.as_str()), (7, "ping"));
        // SAFETY: we took the request above.
        unsafe { slot.finish(Ok("pong".to_string())) };
        assert_eq!(slot.state(), DONE);
        // SAFETY: we are the submitter and observed DONE.
        let resp = unsafe { slot.redeem() };
        assert_eq!(resp.unwrap(), "pong");
        assert_eq!(slot.state(), EMPTY);
    }

    #[test]
    fn drop_frees_stranded_payloads() {
        use std::sync::Arc;
        // A submitted-but-never-serviced request must be dropped.
        let marker = Arc::new(());
        {
            let slot: CallSlot<Arc<()>, Arc<()>> = CallSlot::new();
            assert!(slot.try_claim());
            // SAFETY: claim held.
            unsafe { slot.publish(0, 0, Arc::clone(&marker)) };
        }
        assert_eq!(Arc::strong_count(&marker), 1, "request payload leaked");
        // A finished-but-never-redeemed response must be dropped.
        {
            let slot: CallSlot<Arc<()>, Arc<()>> = CallSlot::new();
            assert!(slot.try_claim());
            // SAFETY: claim held.
            unsafe { slot.publish(0, 0, Arc::clone(&marker)) };
            // SAFETY: single thread, SUBMITTED observed.
            let _ = unsafe { slot.take_request() };
            // SAFETY: request taken above.
            unsafe { slot.finish(Ok(Arc::clone(&marker))) };
        }
        assert_eq!(Arc::strong_count(&marker), 1, "response payload leaked");
    }

    #[test]
    fn armed_slot_fires_registered_waker() {
        use std::sync::atomic::AtomicUsize;
        use std::task::Wake;
        struct Counter(AtomicUsize);
        impl Wake for Counter {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));

        // Waker registered before completion: fired exactly once.
        let slot: CallSlot<u64, u64> = CallSlot::new();
        assert!(slot.try_claim());
        slot.arm_async();
        // SAFETY: claim held.
        unsafe { slot.publish(0, 0, 1) };
        assert!(!slot.register_waker(&waker), "not complete yet");
        // SAFETY: single thread; SUBMITTED observed; sole responder.
        let (_, req) = unsafe { slot.take_request() };
        // SAFETY: request taken above.
        unsafe { slot.finish(Ok(req + 1)) };
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "waker fired once");
        // Registration after the fire reports completion.
        assert!(slot.register_waker(&waker));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        // SAFETY: submitter observed DONE.
        assert_eq!(unsafe { slot.redeem() }.unwrap(), 2);
        assert!(!slot.is_armed(), "redeem quiesces the waker cell");

        // Completion before any registration: no wake, FIRED reported.
        assert!(slot.try_claim());
        slot.arm_async();
        // SAFETY: claim held.
        unsafe { slot.publish(0, 0, 5) };
        // SAFETY: as above — single thread walks the whole state machine.
        let (_, req) = unsafe { slot.take_request() };
        unsafe { slot.finish(Ok(req + 1)) };
        assert!(slot.register_waker(&waker), "already fired");
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "no spurious wake");
        // SAFETY: submitter observed DONE.
        assert_eq!(unsafe { slot.redeem() }.unwrap(), 6);
    }

    #[test]
    fn abandon_board_matches_exact_sequence_only() {
        let board = AbandonBoard::new(4);
        board.mark(6); // occupies cell 6 % 4 == 2
        assert!(!board.try_take(2), "two-laps-stale seq must not match");
        assert!(board.try_take(6), "exact seq reaps");
        assert!(!board.try_take(6), "reap is exactly-once");
    }

    #[test]
    fn backoff_escalates_without_panicking() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT + 10 {
            b.snooze();
        }
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn backoff_reports_yield_phase() {
        let mut b = Backoff::new();
        if single_core() {
            assert!(b.yields(), "single-core yields from the first snooze");
            return;
        }
        // The full PAUSE ladder (steps 0..=SPIN_LIMIT) is still cheap.
        for _ in 0..=SPIN_LIMIT {
            assert!(!b.yields(), "ladder step {} must not report yield", b.step);
            b.snooze();
        }
        assert!(b.yields(), "past the ladder every snooze is a yield");
        b.reset();
        assert!(!b.yields(), "reset re-arms the ladder");
    }

    #[test]
    fn doze_wakes_a_sleeper() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let doze = Arc::new(Doze::new());
        let go = Arc::new(AtomicBool::new(false));
        let (d, g) = (Arc::clone(&doze), Arc::clone(&go));
        let t = std::thread::spawn(move || d.sleep_unless(|| g.load(Ordering::SeqCst)));
        while doze.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        go.store(true, Ordering::SeqCst);
        doze.wake();
        t.join().unwrap();
        assert_eq!(doze.sleepers.load(Ordering::SeqCst), 0);
    }
}
