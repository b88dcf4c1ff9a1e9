//! The plane's responder: one thread that drains the ring in sequence
//! order.
//!
//! The responder runs [`responder_loop`]: scan up to [`DRAIN_BATCH`]
//! contiguous `SUBMITTED` slots starting at the ring's `tail`, advance
//! `tail` past the run with one Release store, then service the run's
//! slots in order. The responder is the only writer of `tail` (a
//! requester's fused call claims no slot), so no claim races it, and
//! requesters cannot recycle a slot until it is serviced *and* redeemed,
//! which itself requires `tail` to advance. Each slot's `SUBMITTED` word
//! must name the sequence scanned for ([`submitted_run`]). Batching
//! amortizes the `tail` store and the wake/schedule cost of the drain.
//!
//! The responder drains for the plane's life. Its one idle mechanism is
//! the doze — after [`HotCallConfig::idle_polls_before_sleep`] empty polls
//! in a row it sleeps on the ring's doze until a submission wakes it.

use std::sync::atomic::Ordering;

use crate::config::HotCallConfig;
use crate::error::HotCallError;
use crate::telemetry::{now_cycles, TELEMETRY_ENABLED};

use super::ring::RingShared;
use super::slot::{Backoff, CallSlot, LocalStats, StatCell};
use super::CallTable;

/// Maximum submitted slots the responder takes per `tail` advance.
const DRAIN_BATCH: usize = 8;

/// Services one claimed slot on the responder thread: take the request,
/// dispatch it, publish the response.
///
/// Stats are flushed to the responder's cell *before* the `DONE` hand-off so
/// `stats().calls` is exact the moment the waiting requester's Acquire
/// sees the completion.
///
/// # Safety
///
/// The caller must be the ring's responder, must have observed `SUBMITTED`
/// with `Acquire` and moved `tail` past this slot, and calls this at most
/// once per submission.
unsafe fn service_slot<Req, Resp>(
    slot: &CallSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
    local: &mut LocalStats,
    cell: &StatCell,
) {
    // Dispatch-stage edge: the time between the requester's submit stamp
    // and this pickup is the call's queueing delay. Recorded into the
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
/// submissions at the ring front `tail`. Each slot must hold the
/// submission of *its own* sequence (see [`CallSlot::submitted_as`]);
/// Acquire on each, so a run's payloads are visible.
pub(super) fn submitted_run<Req, Resp>(
    slots: &[CallSlot<Req, Resp>],
    tail: usize,
    batch: usize,
) -> usize {
    let at = |seq: usize| slots[seq % slots.len()].submitted_as(seq);
    (0..batch).take_while(|&i| at(tail.wrapping_add(i))).count()
}

/// The responder's loop: drain the ring, dozing when idle.
pub(super) fn responder_loop<Req, Resp>(shared: &RingShared<Req, Resp>, config: HotCallConfig) {
    // A batch longer than the ring would scan the same slot twice.
    let batch = DRAIN_BATCH.min(shared.slots.len());
    let cell = &*shared.responder;
    let mut local = LocalStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    loop {
        if drain(shared, batch, &mut local) > 0 {
            idle_streak = 0;
            backoff.reset();
            continue;
        }
        // An empty pass.
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain-then-exit: the responder keeps servicing submitted
            // work after the shutdown flag rises, and the empty pass
            // doubles as the final sweep. Stragglers stuck mid-publish are
            // failed by the waiter's shutdown grace instead.
            local.flush(cell);
            return;
        }
        idle_streak += 1;
        local.idle_polls += 1;
        if local.idle_polls.is_multiple_of(1024) {
            local.flush(cell);
        }
        if let Some(limit) = config.idle_polls_before_sleep {
            if idle_streak >= limit {
                local.flush(cell);
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

/// Takes and services one batched run from the ring front. Returns the
/// number of slots serviced (0 if the ring was empty).
fn drain<Req, Resp>(ring: &RingShared<Req, Resp>, batch: usize, local: &mut LocalStats) -> usize {
    // Relaxed: this thread is the only writer of `tail`.
    let tail = ring.tail.load(Ordering::Relaxed);
    let run = submitted_run(&ring.slots, tail, batch);
    if run == 0 {
        return 0;
    }
    // Release: a requester whose Acquire load sees the new `tail` also
    // sees every `SUBMITTED` word this thread read before it, so its claim
    // of a lapped slot reads `SUBMITTED` or a later state (see
    // `ring::claim_slot`).
    ring.tail.store(tail.wrapping_add(run), Ordering::Release);
    for i in 0..run {
        let slot = ring.slot(tail.wrapping_add(i));
        // SAFETY: this thread is the ring's one responder: it observed
        // slots [tail, tail+run) SUBMITTED with Acquire (the payloads are
        // visible) and moved `tail` past them, and no requester can
        // recycle these slots before they are serviced here and then
        // redeemed.
        unsafe { service_slot(slot, &ring.table, local, &ring.responder) };
    }
    run
}
