//! The plane's responder pool: batched drain of the one ring with one tail
//! CAS per batch.
//!
//! Every responder runs [`responder_loop`]: scan up to `drain_batch`
//! contiguous `SUBMITTED` slots starting at the ring's `tail`, claim the
//! whole run with a single CAS on `tail`, then service the claimed slots
//! privately. Responders are the only writers of `tail` (a requester's
//! fused call claims no slot), and the CAS is the ownership transfer —
//! winning it while `tail` is unchanged proves no other responder touched
//! those slots (`tail` is monotonic, so there is no ABA), and requesters
//! cannot recycle a slot until it is serviced *and* redeemed, which itself
//! requires `tail` to advance. The scan accepts a slot only if its `SUBMITTED` word names the
//! sequence scanned for ([`submitted_run`]): a slot a sibling has claimed
//! but not yet taken still reads `SUBMITTED`, one lap behind. Batching
//! amortizes both the CAS and the wake/schedule cost of the drain, which
//! is where switchless designs win under IO-heavy load.
//!
//! The pool is fixed: every responder drains for the plane's life. Its
//! one idle mechanism is the doze — after
//! [`HotCallConfig::idle_polls_before_sleep`] empty polls in a row a
//! responder sleeps on the ring's doze until a submission wakes it.

use std::sync::atomic::Ordering;

use crate::config::HotCallConfig;
use crate::error::HotCallError;
use crate::telemetry::{now_cycles, TELEMETRY_ENABLED};

use super::ring::{ResponderCell, RingShared};
use super::slot::{Backoff, CallSlot, LocalStats};
use super::CallTable;

/// Services one claimed slot on a responder thread: take the request,
/// dispatch it, publish the response.
///
/// Stats are flushed to the responder's cell *before* the `DONE` hand-off so
/// `stats().calls` is exact the moment the waiting requester's Acquire
/// sees the completion.
///
/// # Safety
///
/// The caller must own servicing of `slot`: it observed `SUBMITTED` with
/// `Acquire` and won the tail CAS covering this slot, and calls this at
/// most once per claim.
unsafe fn service_slot<Req, Resp>(
    slot: &CallSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
    tally: &mut Tally<'_>,
) {
    let (local, cell) = (&mut tally.local, &tally.cell.base);
    // Dispatch-stage edge: the time between the requester's submit stamp
    // and this pickup is the call's queueing delay. Recorded into this
    // responder's single-writer cell.
    let t_dispatch = if TELEMETRY_ENABLED {
        let t = now_cycles();
        cell.stages
            .queue
            .record(t.saturating_sub(slot.submitted_at()));
        t
    } else {
        0
    };
    // SAFETY: forwarded from the caller's contract — exclusive service
    // ownership of this slot, SUBMITTED observed with Acquire.
    let (id, req) = unsafe { slot.take_request() };
    let result = table
        .dispatch(id, req)
        .ok_or(HotCallError::UnknownCallId(id));
    local.calls += 1;
    local.busy_polls += 1;
    if TELEMETRY_ENABLED {
        // Complete-stage edge: dispatch → now is the service time.
        cell.stages
            .service
            .record(now_cycles().saturating_sub(t_dispatch));
    }
    local.flush(cell);
    // SAFETY: this thread took the request for this slot above.
    unsafe { slot.finish(result) };
}

/// Length (at most `batch`) of the contiguous run of published, untaken
/// submissions at the ring front `tail`, for the single tail CAS that
/// claims it. Each slot must hold the submission of *its own* sequence
/// (see [`CallSlot::submitted_as`]); Acquire on each, so a
/// claimed run's payloads are visible.
pub(super) fn submitted_run<Req, Resp>(
    slots: &[CallSlot<Req, Resp>],
    tail: usize,
    batch: usize,
) -> usize {
    let at = |seq: usize| slots[seq % slots.len()].submitted_as(seq);
    (0..batch).take_while(|&i| at(tail.wrapping_add(i))).count()
}

/// One responder's private (non-atomic) counters — the transport totals
/// plus the poll count — and the cell they publish into.
struct Tally<'a> {
    local: LocalStats,
    polls: u64,
    cell: &'a ResponderCell,
}

impl Tally<'_> {
    fn flush(&self) {
        let cell = self.cell;
        self.local.flush(&cell.base);
        cell.polls.store(self.polls, Ordering::Relaxed);
    }
}

/// The loop of responder `index`: drain the ring, dozing when idle.
pub(super) fn responder_loop<Req, Resp>(
    shared: &RingShared<Req, Resp>,
    index: usize,
    config: HotCallConfig,
) {
    // A batch longer than the ring would scan the same slot twice.
    let batch = (config.drain_batch as usize).min(shared.slots.len());
    let mut tally = Tally {
        local: LocalStats::default(),
        polls: 0,
        cell: &shared.responders[index],
    };
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    loop {
        tally.polls += 1;
        let won = drain(shared, batch, &mut tally);
        if won > 0 {
            idle_streak = 0;
            backoff.reset();
            // Keep the poll count as fresh as the base counters:
            // `service_slot` flushed those before the DONE hand-off.
            tally.flush();
            continue;
        }
        // An empty pass.
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain-then-exit: responders keep servicing submitted work
            // after the shutdown flag rises, and the empty pass doubles as
            // the final sweep. Stragglers stuck mid-publish are failed by
            // the waiter's shutdown grace instead.
            tally.flush();
            return;
        }
        idle_streak += 1;
        tally.local.idle_polls += 1;
        if tally.local.idle_polls.is_multiple_of(1024) {
            tally.flush();
        }
        if let Some(limit) = config.idle_polls_before_sleep {
            if idle_streak >= limit {
                tally.flush();
                // The predicate re-checks the ring front, so a submission
                // published before we registered as a sleeper is never
                // slept past.
                shared.doze.sleep_unless(|| {
                    shared.shutdown.load(Ordering::Acquire) || shared.front_submitted()
                });
                // We just slept: spin a full streak before sleeping again.
                idle_streak = 0;
                backoff.reset();
                continue;
            }
        }
        backoff.snooze();
    }
}

/// Claims and services one batched run from the ring front. Returns the
/// number of slots serviced (0 if the ring was empty or the tail CAS was
/// lost).
fn drain<Req, Resp>(ring: &RingShared<Req, Resp>, batch: usize, tally: &mut Tally<'_>) -> usize {
    let tail = ring.tail.load(Ordering::Acquire);
    let run = submitted_run(&ring.slots, tail, batch);
    if run == 0 {
        return 0;
    }
    let past_run = tail.wrapping_add(run);
    if ring
        .tail
        .compare_exchange(tail, past_run, Ordering::AcqRel, Ordering::Relaxed)
        .is_err()
    {
        // Another responder claimed the run; the next pass starts from a
        // fresh tail.
        core::hint::spin_loop();
        return 0;
    }
    for i in 0..run {
        let slot = ring.slot(tail.wrapping_add(i));
        // SAFETY: the tail CAS above transferred exclusive service
        // ownership of slots [tail, tail+run) to this thread: tail was
        // unchanged between the SUBMITTED scan and the CAS (tail is
        // monotonic, so CAS success rules out any concurrent claim), and
        // no requester can recycle these slots before they are serviced
        // here and then redeemed. SUBMITTED was observed with Acquire, so
        // the payload is visible.
        unsafe { service_slot(slot, &ring.table, tally) };
    }
    run
}
