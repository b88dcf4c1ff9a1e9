//! The ring's responder half: one thread that drains the ring in
//! sequence order.
//!
//! The responder runs [`responder_loop`], the plane core's
//! [`super::plane::respond`] loop with a drain as its poll: scan up to
//! [`DRAIN_BATCH`] contiguous `SUBMITTED` slots starting at the ring's
//! `tail`, advance `tail` past the run with one Release store, then
//! service the run's slots in order. The responder is the only writer of
//! `tail` (the requester's fused call claims no slot), so no claim races
//! it, and the requester cannot recycle a slot until it is serviced *and*
//! redeemed, which itself requires `tail` to advance. Each slot's
//! `SUBMITTED` word must name the sequence scanned for
//! ([`submitted_run`]). Batching amortizes the `tail` store and the
//! wake/schedule cost of the drain.
//!
//! The responder drains for the plane's life; its idle ladder, doze and
//! exit are the core's. The ring needs no sweep of its own: the core exits
//! on the first empty drain after shutdown.

use std::sync::atomic::Ordering;

use crate::config::HotCallConfig;
use crate::telemetry::{now_cycles, TELEMETRY_ENABLED};

use super::plane;
use super::ring::RingShared;
use super::slot::{CallSlot, LocalStats, StatCell};
use super::CallTable;

/// Maximum submitted slots the responder takes per `tail` advance.
const DRAIN_BATCH: usize = 8;

/// Services one claimed slot on the responder thread: take the request,
/// dispatch it, count it, publish the response.
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
    // SAFETY: forwarded from the caller's contract — exclusive service
    // ownership of this slot, SUBMITTED observed with Acquire.
    let (id, req) = unsafe { slot.take_request() };
    // Dispatch-stage edge, once the request is in hand: the time between
    // the requester's submit stamp and here is the call's queueing delay
    // (the cross-core read of the request cell included), so the service
    // stage below is the handler alone. Recorded into the responder's
    // single-writer cell.
    let t_dispatch = if TELEMETRY_ENABLED {
        let t = now_cycles();
        cell.stages
            .queue
            .record(t.saturating_sub(slot.submitted_at()));
        t
    } else {
        0
    };
    let result = table.call(id, req);
    if TELEMETRY_ENABLED {
        // Complete-stage edge: dispatch → now is the service time.
        cell.stages
            .service
            .record(now_cycles().saturating_sub(t_dispatch));
    }
    local.serviced(cell);
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
    plane::respond(
        &shared.core,
        config,
        |local| drain(shared, batch, local) > 0,
        || shared.front_submitted(),
        || {},
    );
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
        unsafe { service_slot(slot, &ring.table, local, &ring.core.stats) };
    }
    run
}
