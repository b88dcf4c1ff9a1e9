//! The plane's responder pool: batched drain with one tail CAS per batch,
//! home shard first and siblings by stealing, governed by a
//! [`crate::config::ResponderPolicy`].
//!
//! Every responder runs [`responder_loop`]: scan up to `drain_batch`
//! contiguous `SUBMITTED` slots starting at a shard's `tail`, claim the
//! whole run with a single CAS on `tail`, then service the claimed slots
//! privately. The CAS is the ownership transfer — winning it while `tail`
//! is unchanged proves no other responder touched those slots (`tail` is
//! monotonic, so there is no ABA), and requesters cannot recycle a slot
//! until it is serviced *and* redeemed, which itself requires `tail` to
//! advance. The scan accepts a slot only if its `SUBMITTED` word names the
//! sequence scanned for ([`submitted_run`]): a slot a sibling has claimed
//! but not yet taken still reads `SUBMITTED`, one lap behind. Batching
//! amortizes both the CAS and the wake/schedule cost of the drain, which
//! is where switchless designs win under IO-heavy load.
//!
//! Responder `i` homes on shard `i % S` and drains it first; only an empty
//! home sends it probing the `S − 1` siblings, so a busy neighbour can
//! never starve home calls. On a ring (`S = 1`) the probe loop runs zero
//! times and the pass is the plain pool drain.
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
//!   ratio: every empty pass adds one, every slot won subtracts a bounded
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

use std::sync::atomic::Ordering;

use crate::config::HotCallConfig;
use crate::error::{HotCallError, Result};
use crate::telemetry::{now_cycles, trace, TELEMETRY_ENABLED};

use super::ring::{ReqEnvelope, RespEnvelope, ResponderCell, RingShared, RingSlot, Shard};
use super::slot::{Backoff, LocalStats};
use super::CallTable;

/// Poll credit earned per slot won: a responder that wins at least one
/// slot per this many polls is earning its keep; one that mostly loses
/// the tail race ripens toward demotion even though it never goes fully
/// dry.
const WIN_CREDIT_POLLS: u64 = 64;

/// Runs one envelope through the handler table: a single call, or every
/// call of a bundle in submission order (one slot, one dispatch, N calls —
/// a bad id fails only its own entry). Returns the response envelope and
/// how many calls it carried.
#[inline]
fn dispatch_envelope<Req, Resp>(
    table: &CallTable<Req, Resp>,
    id: u32,
    env: ReqEnvelope<Req>,
) -> (Result<RespEnvelope<Resp>>, u64) {
    let call = |id: u32, req: Req| {
        table
            .dispatch(id, req)
            .ok_or(HotCallError::UnknownCallId(id))
    };
    match env {
        ReqEnvelope::One(req) => (call(id, req).map(RespEnvelope::One), 1),
        ReqEnvelope::Bundle(calls) => {
            let n = calls.len() as u64;
            let results = calls.into_iter().map(|(id, req)| call(id, req)).collect();
            (Ok(RespEnvelope::Bundle(results)), n)
        }
    }
}

/// Services one claimed slot on a responder thread: take the request
/// envelope, dispatch it, publish the response. Each call of a bundle
/// counts toward `stats().calls`.
///
/// Stats are flushed to the responder's cell *before* the `DONE` hand-off so
/// `stats().calls` is exact the moment the waiting requester's Acquire
/// sees the completion.
///
/// # Safety
///
/// The caller must own servicing of `slot`: it observed `SUBMITTED` with
/// `Acquire` and won the tail CAS (or equivalent exclusive claim) covering
/// this slot, and calls this at most once per claim.
unsafe fn service_slot<Req, Resp>(
    slot: &RingSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
    tally: &mut Tally<'_>,
) {
    let (local, cell) = (&mut tally.local, &tally.cell.base);
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
    let (result, n) = dispatch_envelope(table, id, env);
    local.calls += n;
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
/// run-to-completion path. [`service_slot`] minus the responder
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
    let (result, n) = dispatch_envelope(table, id, env);
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

/// One responder's private (non-atomic) counters — the transport totals
/// plus the stealing counters — and the cell they publish into.
struct Tally<'a> {
    local: LocalStats,
    home_polls: u64,
    steals: u64,
    steal_hits: u64,
    cell: &'a ResponderCell,
}

impl Tally<'_> {
    fn flush(&self) {
        let cell = self.cell;
        self.local.flush(&cell.base);
        cell.home_polls.store(self.home_polls, Ordering::Relaxed);
        cell.steals.store(self.steals, Ordering::Relaxed);
        cell.steal_hits.store(self.steal_hits, Ordering::Relaxed);
    }
}

/// The loop of responder `index` (home shard `index % S`): drain the home
/// shard first; when it is empty, probe sibling shards in an order rotated
/// per pass; park when the governor shrinks the active set below this
/// responder.
pub(super) fn responder_loop<Req, Resp>(
    shared: &RingShared<Req, Resp>,
    index: usize,
    config: HotCallConfig,
) {
    let n = shared.shards.len();
    let home = index % n;
    let home_shard = &shared.shards[home];
    // A batch longer than the ring would scan the same slot twice.
    let batch = config.drain_batch_clamped().min(home_shard.slots.len());
    let gov = &shared.governor;
    let table = &shared.table;
    let mut tally = Tally {
        local: LocalStats::default(),
        home_polls: 0,
        steals: 0,
        steal_hits: 0,
        cell: &shared.responders[index],
    };
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    // Useful-work deficit: +1 per empty full pass, -WIN_CREDIT_POLLS per
    // slot won. Never reset by doze wakeups or wins — see the module docs.
    let mut polls_since_work: u64 = 0;
    let mut parked = false;
    // Rotates the sibling probe order so stealers don't convoy on the
    // same victim shard.
    let mut rotation: usize = 0;
    loop {
        if gov.adaptive() {
            let active = gov.active_target.load(Ordering::Acquire);
            if index >= active {
                // Close the demote-after-publish window before going dark:
                // a submission can land on the home shard between the
                // demote CAS and this park (its `wake_for` redirect may
                // have fired while the lowered target was not yet visible
                // to it). If that leaves the shard with no active home
                // responder (`home >= active`), pull the active set back
                // up so a stealer reaps it, rather than strand the call
                // behind everyone's probe cadence. On one shard the
                // condition never holds (`active >= min >= 1`): a parking
                // surplus responder of a pool must not re-raise the target
                // it just lowered, the active ones are draining the ring.
                if home >= active && home_shard.front_submitted() {
                    gov.try_raise();
                }
                if !parked {
                    parked = true;
                    gov.parks.fetch_add(1, Ordering::Relaxed);
                    gov.parked_now.fetch_add(1, Ordering::Relaxed);
                    tally.flush();
                }
                gov.park_doze.sleep_unless(|| {
                    shared.shutdown.load(Ordering::Acquire)
                        || index < gov.active_target.load(Ordering::Acquire)
                });
                if shared.shutdown.load(Ordering::Acquire) {
                    // Parked responders exit directly; the active set
                    // performs the drain-then-exit sweep below.
                    gov.parked_now.fetch_sub(1, Ordering::Relaxed);
                    tally.flush();
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
        }
        // Home shard first: a busy neighbour can never starve home calls,
        // because stealing only happens when the home shard is empty.
        tally.home_polls += 1;
        let mut won = drain_shard(home_shard, table, batch, &mut tally);
        if won == 0 {
            // Home empty: probe the siblings, rotated per pass.
            rotation = rotation.wrapping_add(1);
            for i in 0..n - 1 {
                let victim = (home + rotation + i) % n;
                if victim == home {
                    continue;
                }
                tally.steals += 1;
                let stolen = drain_shard(&shared.shards[victim], table, batch, &mut tally);
                if stolen > 0 {
                    tally.steal_hits += 1;
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
            tally.flush();
            continue;
        }
        // A full pass (home + every sibling) found nothing.
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain-then-exit: responders keep servicing submitted work
            // after the shutdown flag rises, and the empty full pass
            // doubles as the final sweep — residual work on any shard,
            // parked or not, was reaped above before we got here.
            // Stragglers stuck mid-publish are failed by the waiter's
            // shutdown grace instead.
            tally.flush();
            return;
        }
        idle_streak += 1;
        polls_since_work += 1;
        tally.local.idle_polls += 1;
        if tally.local.idle_polls.is_multiple_of(1024) {
            tally.flush();
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
                tally.flush();
                // Sleep on the *home* doze, but wake for work anywhere:
                // the predicate covers every shard so a stealable
                // submission published before we registered as a sleeper
                // is never slept past.
                home_shard.doze.sleep_unless(|| {
                    shared.shutdown.load(Ordering::Acquire) || shared.any_front_submitted()
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
    }
}

/// Claims and services one batched run from `shard`'s ring front. Returns
/// the number of slots serviced (0 if the shard was empty or the tail CAS
/// was lost).
fn drain_shard<Req, Resp>(
    shard: &Shard<Req, Resp>,
    table: &CallTable<Req, Resp>,
    batch: usize,
    tally: &mut Tally<'_>,
) -> usize {
    let tail = shard.tail.load(Ordering::Acquire);
    let run = submitted_run(&shard.slots, tail, batch);
    if run == 0 {
        return 0;
    }
    let past_run = tail.wrapping_add(run);
    if shard
        .tail
        .compare_exchange(tail, past_run, Ordering::AcqRel, Ordering::Relaxed)
        .is_err()
    {
        // Another responder (home or stealer) claimed the run; the next
        // pass starts from a fresh tail.
        core::hint::spin_loop();
        return 0;
    }
    for i in 0..run {
        let slot = shard.slot(tail.wrapping_add(i));
        // SAFETY: the tail CAS above transferred exclusive service
        // ownership of slots [tail, tail+run) on this shard to this
        // thread: tail was unchanged between the SUBMITTED scan and the
        // CAS (tail is monotonic, so CAS success rules out any concurrent
        // claim — home responder or stealer alike), and no requester can
        // recycle these slots before they are serviced here and then
        // redeemed. SUBMITTED was observed with Acquire, so the payload is
        // visible.
        unsafe { service_slot(slot, table, tally) };
    }
    run
}
