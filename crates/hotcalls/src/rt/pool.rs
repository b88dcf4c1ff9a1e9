//! The ring's responder pool: batched drain with one tail CAS per batch,
//! governed by a [`crate::config::ResponderPolicy`].
//!
//! Every responder runs [`responder_loop`]: scan up to `drain_batch`
//! contiguous `SUBMITTED` slots starting at `tail`, claim the whole run
//! with a single CAS on `tail`, then service the claimed slots privately.
//! The CAS is the ownership transfer — winning it while `tail` is
//! unchanged proves no other responder touched those slots (`tail` is
//! monotonic, so there is no ABA), and requesters cannot recycle a slot
//! until it is serviced *and* redeemed, which itself requires `tail` to
//! advance. The scan accepts a slot only if its `SUBMITTED` word names the
//! sequence scanned for ([`submitted_run`]): a slot a sibling has claimed
//! but not yet taken still reads `SUBMITTED`, one lap behind. Batching amortizes both the CAS and the wake/schedule cost of
//! the drain, which is where switchless designs win under IO-heavy load.
//!
//! With an adaptive policy the loop grows two extra branches:
//!
//! * **Park** — a responder whose index is at or above the governor's
//!   active target sleeps on the *park* doze, which per-call wakeups never
//!   touch. This is what fixes the oversubscription regression: a parked
//!   responder costs nothing, whereas an idle-dozing one is woken on every
//!   submission, loses the tail race, spins a full idle streak, and
//!   re-dozes — stealing the requester's core the whole time.
//! * **Demote** — `polls_since_work` tracks this responder's useful-work
//!   ratio: every empty poll adds one, every slot won subtracts a bounded
//!   credit ([`WIN_CREDIT_POLLS`]). Unlike the doze `idle_streak`, it is
//!   NOT reset by waking from the doze, and deliberately NOT zeroed by a
//!   win either: in a saturated one-requester stream every churning
//!   responder wins scraps every few calls, and a plain drought counter
//!   never ripens — which is exactly how the 1×4 oversubscription
//!   regression survived idleness detection. Once the deficit passes
//!   `policy.park_after_idle_polls`, the top active responder lowers the
//!   target by one and parks itself on the next iteration. Lower indices
//!   inherit "top" status with their counters already ripe, so an
//!   overprovisioned pool cascades down to its demand point quickly (the
//!   occupancy- and age-triggered raises pull it back up).

use std::sync::Arc;

use crate::config::HotCallConfig;
use crate::error::HotCallError;
use crate::telemetry::{now_cycles, TELEMETRY_ENABLED};

use super::ring::{ReqEnvelope, RespEnvelope, RingShared, RingSlot};
use super::slot::{Backoff, LocalStats, StatCell};
use super::CallTable;

use std::sync::atomic::Ordering;

/// Poll credit earned per slot won: a responder that wins at least one
/// slot per this many polls is earning its keep; one that mostly loses
/// the tail race ripens toward demotion even though it never goes fully
/// dry.
pub(super) const WIN_CREDIT_POLLS: u64 = 64;

/// Services one claimed slot: take the request envelope, dispatch it (a
/// bundle dispatches every packed call), publish the response. Shared by
/// the single-ring pool and the sharded plane's stealing responders.
///
/// Stats are flushed to `cell` *before* the `DONE` hand-off so
/// `stats().calls` is exact the moment the waiting requester's Acquire
/// sees the completion.
///
/// # Safety
///
/// The caller must own servicing of `slot`: it observed `SUBMITTED` with
/// `Acquire` and won the tail CAS (or equivalent exclusive claim) covering
/// this slot, and calls this at most once per claim.
pub(super) unsafe fn service_slot<Req, Resp>(
    slot: &RingSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
    local: &mut LocalStats,
    cell: &StatCell,
) {
    // Dispatch-stage edge: the time between the requester's submit stamp
    // and this pickup is the call's queueing delay. Recorded into this
    // responder's single-writer cell — stolen slots are attributed to the
    // stealing responder, keeping the cell single-writer.
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
    let (id, env) = unsafe { slot.take_request() };
    let result = match env {
        ReqEnvelope::One(req) => {
            local.calls += 1;
            table
                .dispatch(id, req)
                .ok_or(HotCallError::UnknownCallId(id))
                .map(RespEnvelope::One)
        }
        ReqEnvelope::Bundle(calls) => {
            // One slot, one dispatch, N calls: each counts toward
            // `stats().calls`, and a bad id fails only its own entry.
            let mut results = Vec::with_capacity(calls.len());
            for (call_id, req) in calls {
                local.calls += 1;
                results.push(
                    table
                        .dispatch(call_id, req)
                        .ok_or(HotCallError::UnknownCallId(call_id)),
                );
            }
            Ok(RespEnvelope::Bundle(results))
        }
    };
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

/// Services one claimed slot on a *requester* thread — the fused
/// run-to-completion path. Mirrors [`service_slot`] minus the responder
/// bookkeeping: requesters own no single-writer stat cell or stage
/// histograms, so the caller accounts the returned call count into the
/// plane's shared `fused_runs` counter instead. Returns how many calls
/// the envelope carried (1, or the bundle length).
///
/// # Safety
///
/// As [`service_slot`]: the caller must hold exclusive service ownership
/// of `slot` (it won the tail CAS covering it after observing/having
/// published `SUBMITTED`), and calls this at most once per claim.
pub(super) unsafe fn service_slot_inline<Req, Resp>(
    slot: &RingSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
) -> u64 {
    // SAFETY: forwarded from the caller's contract — exclusive service
    // ownership of this slot.
    let (id, env) = unsafe { slot.take_request() };
    let (result, n) = match env {
        ReqEnvelope::One(req) => (
            table
                .dispatch(id, req)
                .ok_or(HotCallError::UnknownCallId(id))
                .map(RespEnvelope::One),
            1u64,
        ),
        ReqEnvelope::Bundle(calls) => {
            let n = calls.len() as u64;
            let mut results = Vec::with_capacity(calls.len());
            for (call_id, req) in calls {
                results.push(
                    table
                        .dispatch(call_id, req)
                        .ok_or(HotCallError::UnknownCallId(call_id)),
                );
            }
            (Ok(RespEnvelope::Bundle(results)), n)
        }
    };
    // SAFETY: this thread took the request for this slot above.
    unsafe { slot.finish(result) };
    n
}

/// Length (at most `batch`) of the contiguous run of published, untaken
/// submissions at the ring front `tail`, for the single tail CAS that
/// claims it. Each slot must hold the submission of *its own* sequence
/// (see [`super::slot::CallSlot::submitted_as`]); Acquire on each, so a
/// claimed run's payloads are visible.
pub(super) fn submitted_run<Req, Resp>(
    slots: &[RingSlot<Req, Resp>],
    tail: usize,
    batch: usize,
) -> usize {
    let at = |seq: usize| slots[seq % slots.len()].submitted_as(seq);
    (0..batch).take_while(|&i| at(tail.wrapping_add(i))).count()
}

pub(super) fn responder_loop<Req, Resp>(
    shared: Arc<RingShared<Req, Resp>>,
    table: Arc<CallTable<Req, Resp>>,
    index: usize,
    config: HotCallConfig,
) {
    let cap = shared.slots.len();
    // A batch longer than the ring would scan the same slot twice.
    let batch = config.drain_batch_clamped().min(cap);
    let cell = &shared.responders[index];
    let gov = &shared.governor;
    let mut local = LocalStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    // Useful-work deficit: +1 per empty poll, -WIN_CREDIT_POLLS per slot
    // won. Never reset by doze wakeups or wins — see the module docs.
    let mut polls_since_work: u64 = 0;
    let mut parked = false;
    loop {
        if gov.adaptive() && index >= gov.active_target.load(Ordering::Acquire) {
            if !parked {
                parked = true;
                gov.parks.fetch_add(1, Ordering::Relaxed);
                gov.parked_now.fetch_add(1, Ordering::Relaxed);
                local.flush(cell);
            }
            gov.park_doze.sleep_unless(|| {
                shared.shutdown.load(Ordering::Acquire)
                    || index < gov.active_target.load(Ordering::Acquire)
            });
            if shared.shutdown.load(Ordering::Acquire) {
                // Parked responders exit directly; the active set performs
                // the drain-then-exit sweep below.
                gov.parked_now.fetch_sub(1, Ordering::Relaxed);
                local.flush(cell);
                return;
            }
            if index >= gov.active_target.load(Ordering::Acquire) {
                // Raise woke everyone; we were not the one admitted.
                continue;
            }
            parked = false;
            gov.parked_now.fetch_sub(1, Ordering::Relaxed);
            idle_streak = 0;
            polls_since_work = 0;
            backoff.reset();
        }
        let tail = shared.tail.load(Ordering::Acquire);
        let run = submitted_run(&shared.slots, tail, batch);
        if run == 0 {
            // Drain-then-exit: responders keep servicing submitted work
            // after the shutdown flag rises and leave only once the ring
            // front is quiet (stragglers stuck mid-publish are failed by
            // the waiter's shutdown grace instead).
            if shared.shutdown.load(Ordering::Acquire) {
                local.flush(cell);
                return;
            }
            idle_streak += 1;
            polls_since_work += 1;
            local.idle_polls += 1;
            if local.idle_polls % 1024 == 0 {
                local.flush(cell);
            }
            // Useful-work drought: the top active responder bows out. The
            // park branch above catches the lowered target next iteration.
            if gov.adaptive()
                && polls_since_work >= gov.policy.park_after_idle_polls
                && gov.try_demote(index)
            {
                continue;
            }
            if let Some(limit) = config.idle_polls_before_sleep {
                if idle_streak >= limit {
                    local.flush(cell);
                    shared.doze.sleep_unless(|| {
                        shared.shutdown.load(Ordering::Acquire)
                            || submitted_run(&shared.slots, shared.tail.load(Ordering::Acquire), 1)
                                > 0
                    });
                    // `idle_streak` restarts (we just slept; spin a full
                    // streak before sleeping again) but `polls_since_work`
                    // deliberately does not: a responder that keeps being
                    // woken without ever winning work must still ripen
                    // toward demotion.
                    idle_streak = 0;
                    backoff.reset();
                    continue;
                }
            }
            backoff.snooze();
            continue;
        }
        if shared
            .tail
            .compare_exchange(
                tail,
                tail.wrapping_add(run),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // Another responder claimed the run; retry with a fresh tail.
            core::hint::spin_loop();
            continue;
        }
        idle_streak = 0;
        polls_since_work = polls_since_work.saturating_sub(run as u64 * WIN_CREDIT_POLLS);
        backoff.reset();
        for i in 0..run {
            let slot = &shared.slots[tail.wrapping_add(i) % cap];
            // SAFETY: the tail CAS above transferred exclusive service
            // ownership of slots [tail, tail+run) to this thread: tail was
            // unchanged between the SUBMITTED scan and the CAS (tail is
            // monotonic, so CAS success rules out any concurrent claim),
            // and no requester can recycle these slots before they are
            // serviced here and then redeemed. SUBMITTED was observed with
            // Acquire, so the payload is visible.
            unsafe { service_slot(slot, &table, &mut local, cell) };
        }
    }
}
