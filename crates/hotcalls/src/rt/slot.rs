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
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::Result;
use crate::telemetry::{now_cycles, AtomicHist, TELEMETRY_ENABLED};

/// Pads and aligns a value to a cache line so neighbouring values never
/// share one (the classic crossbeam `CachePadded`). 64 bytes covers x86-64
/// and pre-Apple-silicon ARM; on 128-byte-line parts two values per line is
/// still far better than the unpadded worst case.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

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
/// Request payload is published; a responder may take the slot.
pub(crate) const SUBMITTED: usize = 2;
/// A responder took the request and is executing the handler.
pub(crate) const SERVICING: usize = 3;
/// Response payload is published; the submitting requester may redeem it.
pub(crate) const DONE: usize = 4;
/// Mailbox response word only: the responder took the request of this
/// sequence and its handler unwound, so no response will be published and
/// the request payload is already gone (see [`Servicing`]).
const TAKEN: usize = 5;

/// A state word keeps the phase (`EMPTY` … `TAKEN`) in its low bits and,
/// above them, the sequence of the call it speaks for: a ring's
/// `SUBMITTED` word (see [`CallSlot::submitted_as`]) and every word of a
/// [`MailSlot`] half.
const PHASE_BITS: u32 = 3;
const PHASE_MASK: usize = (1 << PHASE_BITS) - 1;

#[inline]
const fn word(seq: usize, phase: usize) -> usize {
    seq << PHASE_BITS | phase
}

/// One ring slot: the state word on its own cache line, then the request
/// and response payload cells.
///
/// The payload cells carry no synchronization of their own. Exclusive
/// access is granted by state-machine transitions:
///
/// * The claim — the ring's one requester moving its single-writer head
///   counter past the slot, which leaves the word `EMPTY` — grants it
///   exclusive write access to `req`.
/// * `SUBMITTED` observed with `Acquire` by the ring's one responder
///   grants it exclusive access to take `req` and write `resp`.
/// * `DONE` observed with `Acquire` by the submitting requester grants it
///   exclusive access to take `resp` and release the slot.
///
/// Each `unsafe fn` below names the edge that makes it sound.
pub(crate) struct CallSlot<Req, Resp> {
    /// Isolated on its own line: the requester and the responder spin on
    /// this word, and sharing it with payload bytes would ping-pong the
    /// line on every payload write.
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
    req: UnsafeCell<MaybeUninit<(u32, Req)>>,
    resp: UnsafeCell<MaybeUninit<Result<Resp>>>,
}

// SAFETY: the payload cells are only ever accessed by the single thread
// the state machine designates (see the struct docs); sending the payloads
// across threads is what the slot is for, hence `Req: Send`/`Resp: Send`.
unsafe impl<Req: Send, Resp: Send> Sync for CallSlot<Req, Resp> {}
// SAFETY: moving a slot to another thread moves the request and response
// its cells may hold and nothing else (its other fields are atomics), so
// the slot is `Send` whenever those payloads are.
unsafe impl<Req: Send, Resp: Send> Send for CallSlot<Req, Resp> {}

impl<Req, Resp> CallSlot<Req, Resp> {
    pub(crate) fn new() -> Self {
        CallSlot {
            state: CachePadded::new(AtomicUsize::new(EMPTY)),
            t_submit: AtomicU64::new(0),
            t_complete: AtomicU64::new(0),
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
    /// taken? This, not `state() == SUBMITTED`, is what the responder
    /// scans for: the sequence in the word tells the laps of one physical
    /// slot apart, so a word left from an earlier lap can never read as a
    /// fresh submission. Behind one in-order responder none is left (it
    /// moves a slot to `SERVICING` before it scans past it); the tag makes
    /// that an invariant the scan checks rather than assumes. `Acquire` as
    /// in [`Self::state`].
    #[inline]
    pub(crate) fn submitted_as(&self, seq: usize) -> bool {
        self.state.load(Ordering::Acquire) == word(seq, SUBMITTED)
    }

    /// Publishes the request as ring sequence `seq`: `EMPTY → SUBMITTED`.
    /// A ring slot's state line is therefore written once per submission,
    /// and the line an idle responder spins on is not invalidated by an
    /// advisory mark first. Nothing needs the mark: the requester reaches
    /// this physical slot again only one lap later, and the tail-based
    /// full check in `ring::claim_slot` refuses that lap until this very
    /// submission has been published and taken.
    ///
    /// # Safety
    ///
    /// Caller must hold the claim (the ring's requester moved its head
    /// past this slot) and call this at most once per claim. That claim is
    /// exclusive, so no other thread reads or writes `req` until the
    /// Release store below hands the slot over.
    #[inline]
    pub(crate) unsafe fn publish(&self, seq: usize, id: u32, req: Req) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), EMPTY);
        (*self.req.get()).write((id, req));
        if TELEMETRY_ENABLED {
            // Stamp before the Release store so the responder's Acquire of
            // SUBMITTED makes the stamp visible along with the payload.
            self.t_submit.store(now_cycles(), Ordering::Relaxed);
        }
        self.state.store(word(seq, SUBMITTED), Ordering::Release);
    }

    /// Takes the request out: `SUBMITTED → SERVICING`.
    ///
    /// # Safety
    ///
    /// Caller must own servicing of this slot: it observed `SUBMITTED`
    /// with `Acquire` (so the payload written by [`Self::publish`] is
    /// visible) *and* is the ring's one responder, the only writer of its
    /// `tail`. Ownership makes the payload read exclusive and
    /// unrepeatable.
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
        // Release: the next claimant's Acquire (counter chain) must see the
        // payload as consumed before it rewrites the cells.
        self.state.store(EMPTY, Ordering::Release);
        payload
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
            // EMPTY: no payload written (a claimed slot stays EMPTY until
            // published). SERVICING: the request was already moved out and
            // the response not yet written.
            _ => {}
        }
    }
}

impl<Req, Resp> core::fmt::Debug for CallSlot<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CallSlot")
            .field("state", &self.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// A state word and the payload cell it publishes, on lines of their own:
/// one half of a [`MailSlot`].
struct Half<T> {
    state: AtomicUsize,
    payload: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Half<T> {
    fn new() -> Self {
        Half {
            state: AtomicUsize::new(word(0, EMPTY)),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// The mailbox's slot: one call at a time, split so that every cache line
/// it spans has exactly one writer.
///
/// A [`CallSlot`] moves its one state word through five stores per call,
/// from both sides, so the line each side spins on is taken from it
/// several times per call. Here each side writes only its own words:
///
/// * **claim** (`last_seq << 1 | HELD`, one line) — requesters only: the
///   claim CAS, and the plain Release store of [`Self::redeem`] that frees
///   it. The responder never reads it. Winning the claim for `seq` grants
///   exclusive write access to the request half.
/// * **request** (`word(seq, SUBMITTED)` + the `(id, Req)` cell) — the
///   claim holder only. Redeem does not reset it: the responder keeps the
///   next sequence it expects in a local, so the word of a call it already
///   serviced never reads as a new one. `SUBMITTED(seq)` read with Acquire
///   by the (single) responder grants it the request payload.
/// * **response** (`word(seq, DONE)` + the `Result<Resp>` cell) — the
///   responder only. `DONE(seq)` read with Acquire by the claim holder
///   grants it the response payload.
///
/// Nothing on the mailbox reads submit/complete cycle stamps, so the slot
/// carries none. Each `unsafe fn` below names the edge that makes it sound.
pub(crate) struct MailSlot<Req, Resp> {
    claim: CachePadded<AtomicUsize>,
    request: CachePadded<Half<(u32, Req)>>,
    response: CachePadded<Half<Result<Resp>>>,
}

/// Low bit of the mailbox claim word: a requester holds the mailbox.
const HELD: usize = 1;

// SAFETY: each payload cell is only ever accessed by the single thread the
// three words designate (see the struct docs): `request` by the claim
// holder until `SUBMITTED(seq)`, then by the responder; `response` by the
// responder until `DONE(seq)`, then by the claim holder. Sending payloads
// across threads is what the slot is for, hence `Req: Send`/`Resp: Send`.
unsafe impl<Req: Send, Resp: Send> Sync for MailSlot<Req, Resp> {}
// SAFETY: as for `Sync`; the slot owns at most one live payload of each
// type, and dropping it on another thread needs only `Send`.
unsafe impl<Req: Send, Resp: Send> Send for MailSlot<Req, Resp> {}

impl<Req, Resp> MailSlot<Req, Resp> {
    /// The sequence of the first call ever claimed; the responder starts
    /// expecting it.
    pub(crate) const FIRST_SEQ: usize = 1;

    pub(crate) fn new() -> Self {
        MailSlot {
            claim: CachePadded::new(AtomicUsize::new((Self::FIRST_SEQ - 1) << 1)),
            request: CachePadded::new(Half::new()),
            response: CachePadded::new(Half::new()),
        }
    }

    /// Tries to claim the mailbox; `Some(seq)` names the claimed call.
    /// Acquire pairs with the previous holder's [`Self::redeem`], which
    /// orders that call's payload reads before this holder rewrites the
    /// cells.
    pub(crate) fn try_claim(&self) -> Option<usize> {
        let claim = self.claim.load(Ordering::Relaxed);
        if claim & HELD != 0 {
            return None;
        }
        let seq = (claim >> 1) + 1;
        self.claim
            .compare_exchange(claim, seq << 1 | HELD, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| seq)
    }

    /// Publishes the request of call `seq`: `SUBMITTED(seq)`.
    ///
    /// # Safety
    ///
    /// Caller must hold the claim [`Self::try_claim`] returned `seq` for,
    /// and call this at most once per claim. The claim is exclusive, so no
    /// other thread touches the request half until the Release store below
    /// hands the payload to the responder.
    pub(crate) unsafe fn publish(&self, seq: usize, id: u32, req: Req) {
        (*self.request.payload.get()).write((id, req));
        self.request
            .state
            .store(word(seq, SUBMITTED), Ordering::Release);
    }

    /// Is the request of call `seq` published? The responder polls for the
    /// sequence it expects next, never for the phase alone. Acquire pairs
    /// with [`Self::publish`]'s Release.
    pub(crate) fn submitted_as(&self, seq: usize) -> bool {
        self.request.state.load(Ordering::Acquire) == word(seq, SUBMITTED)
    }

    /// Takes the request of call `seq` out for servicing. The returned
    /// guard publishes the response ([`Servicing::finish`]); dropped
    /// instead — the handler unwound — it marks the call `TAKEN(seq)`.
    ///
    /// # Safety
    ///
    /// Caller must be the mailbox's only responder, must have observed
    /// [`Self::submitted_as`]`(seq)` (Acquire: the payload is visible) and
    /// must not have taken `seq` before.
    pub(crate) unsafe fn take_request(&self, seq: usize) -> (Servicing<'_, Req, Resp>, (u32, Req)) {
        let payload = (*self.request.payload.get()).assume_init_read();
        (Servicing { slot: self, seq }, payload)
    }

    /// Is the response of call `seq` published? Acquire pairs with
    /// [`Servicing::finish`]'s Release.
    pub(crate) fn done_as(&self, seq: usize) -> bool {
        self.response.state.load(Ordering::Acquire) == word(seq, DONE)
    }

    /// Takes the response of call `seq` out and frees the claim.
    ///
    /// # Safety
    ///
    /// Caller must hold the claim for `seq` and have observed
    /// [`Self::done_as`]`(seq)` with Acquire (the response is visible, and
    /// the responder is done with both cells).
    pub(crate) unsafe fn redeem(&self, seq: usize) -> Result<Resp> {
        let payload = (*self.response.payload.get()).assume_init_read();
        // Release: the next claimant's Acquire CAS must see both cells as
        // consumed before it rewrites them.
        self.claim.store(seq << 1, Ordering::Release);
        payload
    }
}

/// Service ownership of one mailbox call, from
/// [`MailSlot::take_request`] to [`Servicing::finish`].
///
/// If the handler unwinds, the guard is dropped unfinished and stores
/// `TAKEN(seq)` into the response word: the request payload went down
/// with the handler, and `MailSlot`'s `Drop` must not free it again.
#[must_use = "dropping the guard marks the call as never answered"]
pub(crate) struct Servicing<'a, Req, Resp> {
    slot: &'a MailSlot<Req, Resp>,
    seq: usize,
}

impl<Req, Resp> Servicing<'_, Req, Resp> {
    /// Publishes the call's response: `DONE(seq)`.
    pub(crate) fn finish(self, resp: Result<Resp>) {
        let response = &self.slot.response;
        // SAFETY: the guard exists only because the responder read
        // SUBMITTED(seq) with Acquire and took the request; the claim
        // holder reads the response cell only after the DONE(seq) Release
        // below, and the previous response was redeemed before `seq` could
        // be claimed. So this thread is the cell's only user.
        unsafe { (*response.payload.get()).write(resp) };
        response
            .state
            .store(word(self.seq, DONE), Ordering::Release);
        core::mem::forget(self);
    }
}

impl<Req, Resp> Drop for Servicing<'_, Req, Resp> {
    fn drop(&mut self) {
        // Reached only on unwind: `finish` forgets the guard.
        self.slot
            .response
            .state
            .store(word(self.seq, TAKEN), Ordering::Release);
    }
}

impl<Req, Resp> Drop for MailSlot<Req, Resp> {
    fn drop(&mut self) {
        // `&mut self`: requesters and responder are gone. A payload can be
        // live only under a claim that was never redeemed (shutdown
        // stranded the call); the three words say which one.
        let claim = *self.claim.get_mut();
        if claim & HELD == 0 {
            return;
        }
        let seq = claim >> 1;
        if *self.request.state.get_mut() != word(seq, SUBMITTED) {
            return; // claimed, never published
        }
        match *self.response.state.get_mut() {
            // SAFETY: DONE(seq) under a held claim: `finish` ran for this
            // call and `redeem` did not, so the response is initialized
            // and unowned.
            r if r == word(seq, DONE) => unsafe {
                self.response.payload.get_mut().assume_init_drop();
            },
            // The handler unwound with the request: nothing is live.
            r if r == word(seq, TAKEN) => {}
            // SAFETY: SUBMITTED(seq) and the response word still names an
            // earlier call: published, never taken, so the request is
            // initialized and unowned.
            _ => unsafe {
                self.request.payload.get_mut().assume_init_drop();
            },
        }
    }
}

impl<Req, Resp> core::fmt::Debug for MailSlot<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MailSlot")
            .field("claim", &self.claim.load(Ordering::Relaxed))
            .field("request", &self.request.state.load(Ordering::Relaxed))
            .field("response", &self.response.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// Dropped-unredeemed ticket registry, one cell per physical ring slot.
///
/// A ticket dropped without being waited used to wedge its slot forever:
/// the call completes to `DONE`, nobody redeems it, and the requester
/// lapping onto the slot spins on the `EMPTY` check until shutdown. The
/// board makes abandonment explicit: dropping a `Ticket` (on any thread)
/// marks the cell with the call's sequence number, and the ring's one
/// claimant, its requester, reaps the stale response itself when it next
/// laps onto the slot.
///
/// The cell stores `seq + 1` (`0` = no abandonment). Reaping checks the
/// exact sequence: the occupant of slot `head % cap` at claim sequence
/// `head` is exactly `head - cap`, so a mark from any *earlier* lap can
/// never falsely match. Each cell has one marking drop and one reaping
/// claimant per lap, so the clear needs no read-modify-write.
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
    /// dropper's redeem ownership to the caller, the ring's one claimant
    /// (exactly once: the cell is cleared).
    #[inline]
    pub(crate) fn try_take(&self, seq: usize) -> bool {
        let cell = &self.cells[seq % self.cells.len()];
        // Acquire: pairs with `mark`'s Release, so the drop is over.
        let marked = cell.load(Ordering::Acquire) == seq.wrapping_add(1);
        if marked {
            // Relaxed: the cell's next mark is for call `seq + cap`, whose
            // ticket the claimant mints after this store.
            cell.store(0, Ordering::Relaxed);
        }
        marked
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
}

/// Sleep/wake rendezvous for idle responders (paper §4.2, "Conserving
/// resources at idle times"), shared by the mailbox and the ring pool.
#[derive(Debug, Default)]
pub(crate) struct Doze {
    /// How many responders are in (or entering) the sleep protocol.
    /// Requesters read it to skip the mutex on the hot path.
    pub(crate) sleepers: AtomicUsize,
    /// The wake flag; `true` means "a wake was posted, re-check for work".
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Doze {
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
/// completion). Same single-writer discipline as the counters — a call is
/// recorded by the responder that serviced it. Bucket-free under
/// `telemetry-off`.
#[derive(Debug, Default)]
pub(crate) struct StageCells {
    pub(crate) queue: AtomicHist,
    pub(crate) service: AtomicHist,
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

    /// Counts one serviced call (one busy poll) and flushes. Called before
    /// the call's `DONE` hand-off: the Release there orders these stores,
    /// so `stats().calls` is exact the moment the call returns.
    #[inline]
    pub(crate) fn serviced(&mut self, cell: &StatCell) {
        self.calls += 1;
        self.busy_polls += 1;
        self.flush(cell);
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
    fn slot_sizes_are_pinned() {
        use crate::rt::HotBuf;
        // Whole lines per slot: the state line, then stamps and payload
        // cells (a `HotBuf` ring slot: 16 B of stamps, an 80 B request and
        // a 72 B response cell). A layout change that moves a call onto a
        // different number of lines must edit this test on purpose.
        assert_eq!(core::mem::size_of::<CallSlot<u64, u64>>(), 192);
        assert_eq!(core::mem::size_of::<CallSlot<HotBuf, HotBuf>>(), 256);
        // The mailbox slot in `rt_call`'s shape: a claim line, a request
        // half of two lines (word + a 68 B `(u32, [u8; 64])` cell) and a
        // response half of one (word + a 48 B `Result<u64>` cell).
        type Shape = MailSlot<[u8; 64], u64>;
        assert_eq!(core::mem::size_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(
            core::mem::size_of::<CachePadded<Half<(u32, [u8; 64])>>>(),
            128
        );
        assert_eq!(core::mem::size_of::<CachePadded<Half<Result<u64>>>>(), 64);
        assert_eq!(core::mem::size_of::<Shape>(), 256);
    }

    #[test]
    fn slot_roundtrip_moves_payloads() {
        let slot: CallSlot<String, String> = CallSlot::new();
        // SAFETY: single thread: the (implicit) claim is ours.
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

        let mail: MailSlot<String, String> = MailSlot::new();
        for round in 0..2 {
            let seq = mail.try_claim().expect("mailbox is free");
            assert_eq!(seq, MailSlot::<String, String>::FIRST_SEQ + round);
            assert_eq!(mail.try_claim(), None, "claim is exclusive");
            assert!(!mail.submitted_as(seq));
            // SAFETY: we hold the claim for `seq`.
            unsafe { mail.publish(seq, 7, "ping".to_string()) };
            assert!(mail.submitted_as(seq) && !mail.done_as(seq));
            // SAFETY: single thread; SUBMITTED(seq) observed; sole responder.
            let (servicing, (id, req)) = unsafe { mail.take_request(seq) };
            assert_eq!((id, req.as_str()), (7, "ping"));
            servicing.finish(Ok("pong".to_string()));
            assert!(mail.done_as(seq));
            // SAFETY: we hold the claim and observed DONE(seq).
            let resp = unsafe { mail.redeem(seq) };
            assert_eq!(resp.unwrap(), "pong");
            // Redeem leaves the request word alone: the responder's next
            // sequence, not the word, tells the serviced call from a new one.
            assert!(mail.submitted_as(seq) && !mail.submitted_as(seq + 1));
        }
    }

    #[test]
    fn drop_frees_stranded_payloads() {
        use std::sync::Arc;
        // A submitted-but-never-serviced request must be dropped.
        let marker = Arc::new(());
        {
            let slot: CallSlot<Arc<()>, Arc<()>> = CallSlot::new();
            // SAFETY: single thread: the claim is ours.
            unsafe { slot.publish(0, 0, Arc::clone(&marker)) };
        }
        assert_eq!(Arc::strong_count(&marker), 1, "request payload leaked");
        // A finished-but-never-redeemed response must be dropped.
        {
            let slot: CallSlot<Arc<()>, Arc<()>> = CallSlot::new();
            // SAFETY: single thread: the claim is ours.
            unsafe { slot.publish(0, 0, Arc::clone(&marker)) };
            // SAFETY: single thread, SUBMITTED observed.
            let _ = unsafe { slot.take_request() };
            // SAFETY: request taken above.
            unsafe { slot.finish(Ok(Arc::clone(&marker))) };
        }
        assert_eq!(Arc::strong_count(&marker), 1, "response payload leaked");
    }

    #[test]
    fn mail_slot_drop_frees_each_payload_exactly_once() {
        use std::sync::Arc;
        type Mail = MailSlot<Arc<()>, Arc<()>>;
        type Strand = fn(&Mail, &Arc<()>) -> usize;
        let marker = Arc::new(());
        // Each case leaves the slot where shutdown can strand a call, with
        // one completed call before it (so a stale request word is in
        // place), and returns how many references the slot should hold.
        let cases: [(&str, Strand); 5] = [
            ("redeemed", |_, _| 0),
            ("claimed, unpublished", |mail, _| {
                mail.try_claim().expect("free");
                0
            }),
            ("published, untaken", |mail, m| {
                let seq = mail.try_claim().expect("free");
                // SAFETY: claim for `seq` held.
                unsafe { mail.publish(seq, 0, Arc::clone(m)) };
                1
            }),
            ("taken, handler unwound", |mail, m| {
                let seq = mail.try_claim().expect("free");
                // SAFETY: claim for `seq` held.
                unsafe { mail.publish(seq, 0, Arc::clone(m)) };
                // SAFETY: single thread; SUBMITTED(seq) observed.
                let (servicing, (_, req)) = unsafe { mail.take_request(seq) };
                // What an unwinding handler does: the request goes down
                // with it, then the guard drops unfinished.
                drop(req);
                drop(servicing);
                0
            }),
            ("done, unredeemed", |mail, m| {
                let seq = mail.try_claim().expect("free");
                // SAFETY: claim for `seq` held.
                unsafe { mail.publish(seq, 0, Arc::clone(m)) };
                // SAFETY: single thread; SUBMITTED(seq) observed.
                let (servicing, _) = unsafe { mail.take_request(seq) };
                servicing.finish(Ok(Arc::clone(m)));
                1
            }),
        ];
        for (name, strand) in cases {
            let mail = Mail::new();
            let seq = mail.try_claim().expect("free");
            // SAFETY: claim for `seq` held; then single thread throughout.
            unsafe { mail.publish(seq, 0, Arc::clone(&marker)) };
            // SAFETY: single thread; SUBMITTED(seq) observed.
            let (servicing, _) = unsafe { mail.take_request(seq) };
            servicing.finish(Ok(Arc::clone(&marker)));
            // SAFETY: claim held, DONE(seq) observed.
            drop(unsafe { mail.redeem(seq) });
            let held = strand(&mail, &marker);
            assert_eq!(Arc::strong_count(&marker), 1 + held, "{name}: before drop");
            drop(mail);
            assert_eq!(Arc::strong_count(&marker), 1, "{name}: after drop");
        }
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
    fn doze_wakes_a_sleeper() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let doze = Arc::new(Doze::default());
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
