//! The plane core: the paper's §4.2 rules, written once for both planes.
//!
//! The mailbox ([`super::HotCallServer`], Fig. 9's one slot) and the ring
//! ([`super::RingServer`]) meet their calls in different slots, but the
//! practical rules around those slots do not depend on where calls meet.
//! Each rule lives here once, and both planes call it:
//!
//! | shared core (this module) | per plane |
//! |---|---|
//! | [`Core`]: shutdown flag, doze, the responder's stat cell, wakeup and fallback counters, [`Core::snapshot`] | the slot protocol: `MailSlot` (mailbox) or `CallSlot` + head/tail/abandon board (ring) |
//! | [`Core::claim`]: `timeout_retries × spins_per_retry`, then `ResponderTimeout` | the try-claim, passed as a closure |
//! | [`Core::poll_until`]: the completion wait with its shutdown grace | the readiness check |
//! | [`respond`]: the responder loop, its idle ladder and its exit | the poll that services work |
//! | [`super::CallTable::call`]: dispatch, `UnknownCallId` for a missing id | |
//! | [`ResponderThread`]: spawn; stop = flag, `wake_all`, join | |

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;

use crate::config::HotCallConfig;
use crate::error::{HotCallError, Result};
use crate::telemetry::HotCallStats;

use super::slot::{Backoff, CachePadded, Doze, LocalStats, StatCell};

/// How long (in poll iterations) a requester keeps waiting for its call
/// after it has observed shutdown, in case the draining responder is
/// still completing it.
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

/// The state every plane shares between its requesters and its responder,
/// next to its slots.
#[derive(Default)]
pub(super) struct Core {
    /// Shutdown lives outside the slot words so an in-flight call's state
    /// is never clobbered (the words tell the slot's `Drop` which payload
    /// to free).
    pub(super) shutdown: AtomicBool,
    /// Where the idle responder dozes; per-call wakeups land here.
    pub(super) doze: Doze,
    /// Responder-owned running totals (padded: readers never dirty the
    /// responder's line).
    pub(super) stats: CachePadded<StatCell>,
    // Requester-side event counters; rare, so shared RMWs are fine.
    wakeups: AtomicU64,
    fallbacks: AtomicU64,
}

impl Core {
    /// The plane's counters. `fused_runs` are the calls a ring's
    /// requester ran inline: they never pass through the responder's
    /// cell, so the plane-wide call count adds them.
    pub(super) fn snapshot(&self, fused_runs: u64) -> HotCallStats {
        let cell = &self.stats;
        HotCallStats {
            calls: fused_runs + cell.calls.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            idle_polls: cell.idle_polls.load(Ordering::Relaxed),
            busy_polls: cell.busy_polls.load(Ordering::Relaxed),
            fused_runs,
        }
    }

    /// Claims a slot with bounded retries ("Preventing starvation"):
    /// `try_claim` up to `timeout_retries × spins_per_retry` times. On
    /// success the caller owns what `try_claim` returned.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] once the plane shuts down;
    /// [`HotCallError::ResponderTimeout`] when the budget runs out, counted
    /// as a fallback: the caller runs its slow path, as the paper
    /// prescribes.
    #[inline]
    pub(super) fn claim<T>(
        &self,
        config: &HotCallConfig,
        mut try_claim: impl FnMut() -> Option<T>,
    ) -> Result<T> {
        let mut backoff = Backoff::new();
        for _ in 0..config.timeout_retries {
            for _ in 0..config.spins_per_retry {
                if self.shutdown.load(Ordering::Acquire) {
                    return Err(HotCallError::ResponderGone);
                }
                if let Some(claimed) = try_claim() {
                    return Ok(claimed);
                }
                core::hint::spin_loop();
            }
            backoff.snooze();
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err(HotCallError::ResponderTimeout {
            retries: config.timeout_retries,
        })
    }

    /// Wakes a sleeping responder. Must follow the Release store that
    /// published the work (see [`Doze::wake`]).
    #[inline]
    pub(super) fn wake(&self) {
        if self.doze.wake() {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The wait loop shared by every blocking redeem path: polls `ready`
    /// until it yields, or the plane shut down and the grace ran out.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] once the grace runs out.
    #[inline]
    pub(super) fn poll_until<T>(&self, mut ready: impl FnMut() -> Option<T>) -> Result<T> {
        let mut backoff = Backoff::new();
        let mut grace: u32 = 0;
        loop {
            if let Some(hit) = ready() {
                return Ok(hit);
            }
            // The responder drains submitted work before exiting, but a
            // submission that raced the shutdown flag (or sits behind a
            // neighbour stuck mid-publish) may never be serviced; give up
            // after a bounded grace. The slot stays occupied and its payload
            // is freed by the slot's Drop.
            if self.shutdown.load(Ordering::Acquire) {
                grace += 1;
                if grace > SHUTDOWN_GRACE_POLLS {
                    return Err(HotCallError::ResponderGone);
                }
            }
            backoff.snooze();
        }
    }
}

/// The responder's loop on either plane: `poll` services whatever work it
/// finds and says whether it found any; on an empty poll the responder
/// climbs the idle ladder. `has_work` is the dozing responder's re-check.
///
/// Drain-then-exit: the responder keeps servicing submitted work after
/// the shutdown flag rises, and exits on the first empty poll after it.
/// A call published after that poll is never serviced: its waiter's
/// shutdown grace ([`Core::poll_until`]) fails it with `ResponderGone`,
/// and the slot's `Drop` frees its request.
///
/// The ladder: every empty poll is counted (flushed every 1024); after
/// `idle_polls_before_sleep` empty polls in a row the responder sleeps on
/// the doze until a submission or shutdown wakes it, and spins a full
/// streak before sleeping again; otherwise it snoozes on its backoff. The
/// streak and the backoff start over only on work or after a sleep.
#[inline]
pub(super) fn respond(
    core: &Core,
    config: HotCallConfig,
    mut poll: impl FnMut(&mut LocalStats) -> bool,
    has_work: impl Fn() -> bool,
) {
    let cell = &*core.stats;
    let mut local = LocalStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    loop {
        if poll(&mut local) {
            idle_streak = 0;
            backoff.reset();
            continue;
        }
        // An empty pass.
        if core.shutdown.load(Ordering::Acquire) {
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
                // Conserve resources: park on the condvar until a
                // requester signals (paper §4.2).
                local.flush(cell);
                // The predicate re-checks for work, so a submission
                // published before we registered as a sleeper is never
                // slept past.
                core.doze
                    .sleep_unless(|| core.shutdown.load(Ordering::Acquire) || has_work());
                // We just slept: spin a full streak before sleeping again.
                idle_streak = 0;
                backoff.reset();
                continue;
            }
        }
        backoff.snooze();
    }
}

impl core::fmt::Debug for Core {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let shutdown = self.shutdown.load(Ordering::Relaxed);
        f.debug_struct("Core").field("shutdown", &shutdown).finish()
    }
}

/// A plane's responder thread. Dropping the handle leaves the thread
/// running: the plane's server stops it with [`ResponderThread::stop`].
#[derive(Debug)]
pub(super) struct ResponderThread(Option<JoinHandle<()>>);

impl ResponderThread {
    /// Spawns the thread named `name` running `body`.
    ///
    /// # Panics
    ///
    /// If the thread cannot be spawned.
    pub(super) fn spawn(name: &str, body: impl FnOnce() + Send + 'static) -> Self {
        let join = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(body)
            .expect("failed to spawn responder thread");
        ResponderThread(Some(join))
    }

    /// Stops the responder and joins it: raises the plane's shutdown flag
    /// and wakes the responder if it sleeps.
    pub(super) fn stop(&mut self, core: &Core) {
        core.shutdown.store(true, Ordering::Release);
        core.doze.wake_all();
        if let Some(join) = self.0.take() {
            let _ = join.join();
        }
    }

    /// Has the responder's thread ended (it unwound, or it was stopped)?
    #[cfg(test)]
    pub(super) fn is_finished(&self) -> bool {
        self.0.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Arc;

    use super::super::{CallTable, HotCallServer, RingServer};
    use crate::{HotCallConfig, HotCallError, Result};

    /// On the mailbox a second requester blocks behind the held call; on
    /// a ring the one requester fills the slots the held call leaves free.
    /// Either way the next call finds no slot, times out once and counts
    /// a fallback; after shutdown a call reports the responder gone.
    #[test]
    fn a_held_responder_times_a_call_out_once_then_shutdown_reports_gone() {
        let config = HotCallConfig {
            timeout_retries: 2,
            spins_per_retry: 4,
            ..HotCallConfig::default()
        };
        let timed_out = |capacity: usize, result: Result<u64>| {
            assert!(
                matches!(result, Err(HotCallError::ResponderTimeout { retries: 2 })),
                "capacity {capacity}: {result:?}"
            );
        };
        let gone = |capacity: usize, result: Result<u64>| {
            assert!(
                matches!(result, Err(HotCallError::ResponderGone)),
                "capacity {capacity}: {result:?}"
            );
        };
        // 0 is the mailbox; the others are ring capacities.
        for capacity in [0, 1, 4] {
            // 1 once the responder holds the gated call, 2 once it may return.
            let gate = Arc::new(AtomicU8::new(0));
            let mut table = CallTable::new();
            let g = Arc::clone(&gate);
            let held = table.register(move |x: u64| {
                g.store(1, Ordering::Release);
                while g.load(Ordering::Acquire) != 2 {
                    std::thread::yield_now();
                }
                x * 10
            });
            let echo = table.register(|x| x);
            let await_held = || {
                while gate.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            };
            if capacity == 0 {
                let server = HotCallServer::spawn(table, config);
                let r = server.requester();
                std::thread::scope(|s| {
                    let holder = s.spawn(|| r.call(held, 7));
                    await_held();
                    timed_out(capacity, r.call(echo, 1));
                    assert_eq!(server.stats().fallbacks, 1);
                    gate.store(2, Ordering::Release);
                    assert_eq!(holder.join().unwrap().unwrap(), 70);
                });
                server.shutdown();
                gone(capacity, r.call(echo, 1));
            } else {
                let server = RingServer::spawn_pool(table, capacity, 1, config).unwrap();
                let r = server.requester();
                let held_ticket = r.submit(held, 7).unwrap();
                await_held();
                let queued: Vec<_> = (1..capacity as u64)
                    .map(|x| (x, r.submit(echo, x).unwrap()))
                    .collect();
                timed_out(capacity, r.call(echo, 1));
                assert_eq!(server.stats().fallbacks, 1, "capacity {capacity}");
                gate.store(2, Ordering::Release);
                assert_eq!(r.wait(held_ticket).unwrap(), 70, "capacity {capacity}");
                for (x, ticket) in queued {
                    assert_eq!(r.wait(ticket).unwrap(), x);
                }
                server.shutdown();
                gone(capacity, r.call(echo, 1));
            }
        }
    }
}
