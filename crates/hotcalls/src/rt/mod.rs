//! The threaded HotCalls runtime: a real switchless-call channel.
//!
//! This is the artifact a downstream user adopts: a dedicated responder
//! thread polls a shared mailbox in a spin loop (`PAUSE` hints, no
//! syscalls), requesters publish work through an atomic state machine, and
//! the paper's practical considerations — timeout fallback, idle sleep on a
//! condition variable, utilization accounting — are all implemented.
//!
//! The protocol matches Fig. 9 of the paper: requester acquires the
//! (logical) lock by CASing the state word, writes the request, signals
//! "go", and spins for completion; the responder polls, executes via the
//! call table, and signals "done".
//!
//! The data plane is lock-free: payloads live in `UnsafeCell`s whose
//! exclusive access is granted by the state machine's acquire/release
//! edges (see [`slot`]’s `CallSlot`), the state word sits on its own cache
//! line, and hot-path statistics are responder-local counters flushed with
//! plain stores. For the queued, multi-responder, optionally sharded plane
//! see [`RingServer`].

pub mod arena;
mod bytes;
mod calltable;
mod pool;
mod ring;
mod slot;
mod stream;

pub use arena::{ArenaStats, HotBuf, SgList, SlabArena, INLINE_CAPACITY};
pub use bytes::{ByteBundle, ByteCallTable, ByteCaller, ByteRing};
pub use calltable::CallTable;
pub use ring::{Bundle, BundleTicket, RingRequester, RingServer, Ticket};
pub use stream::{
    SgCallTable, SgRing, StreamCaller, StreamReport, DEFAULT_SEGMENT_BYTES, DEFAULT_STREAM_WINDOW,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;

use crate::config::{HotCallConfig, HotCallStats};
use crate::error::{HotCallError, Result};

use slot::{Backoff, CachePadded, CallSlot, Doze, LocalStats, StatCell, DONE, SUBMITTED};

/// How long (in poll iterations) a requester keeps waiting for `DONE`
/// after it has observed shutdown, in case the responder's final sweep is
/// still completing its call.
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

struct Shared<Req, Resp> {
    /// The mailbox: state word on its own cache line, then the payload
    /// cells (the paper's lock + go/busy flags collapse into the slot's
    /// atomic state machine).
    slot: CallSlot<Req, Resp>,
    /// Shutdown lives outside the slot state so an in-flight call's phase
    /// is never clobbered (the phase tells `Drop` which payload to free).
    shutdown: AtomicBool,
    doze: Doze,
    /// Responder-owned running totals (padded: readers never dirty the
    /// responder's line).
    stats: CachePadded<StatCell>,
    // Requester-side event counters; rare, so shared RMWs are fine.
    wakeups: AtomicU64,
    fallbacks: AtomicU64,
    /// Set by a [`MailTicket`] dropped unredeemed: the mailbox holds one
    /// call, so the flag always refers to the current occupant. The next
    /// claimant that finds the slot DONE with this flag set reaps the
    /// stale response instead of spinning forever (the single-slot analog
    /// of the ring planes' `AbandonBoard`). `Arc`ed so the non-generic
    /// ticket can carry a handle without the plane's type parameters.
    abandoned: Arc<AtomicBool>,
}

impl<Req, Resp> Shared<Req, Resp> {
    fn snapshot(&self) -> HotCallStats {
        HotCallStats {
            calls: self.stats.calls.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            idle_polls: self.stats.idle_polls.load(Ordering::Relaxed),
            busy_polls: self.stats.busy_polls.load(Ordering::Relaxed),
            // The single mailbox has no fused path: its one responder is
            // the whole plane.
            fused_runs: 0,
            fused_fallbacks: 0,
        }
    }
}

/// A running HotCalls endpoint: owns the responder thread.
///
/// Dropping the server shuts the responder down and joins it.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, HotCallServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let double = table.register(|x| x * 2);
///
/// let server = HotCallServer::spawn(table, HotCallConfig::default());
/// let requester = server.requester();
/// assert_eq!(requester.call(double, 21).unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct HotCallServer<Req, Resp> {
    shared: Arc<Shared<Req, Resp>>,
    config: HotCallConfig,
    join: Option<JoinHandle<()>>,
}

impl<Req, Resp> core::fmt::Debug for Shared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shared")
            .field("slot", &self.slot)
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl<Req, Resp> HotCallServer<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Spawns the responder ("On Call") thread over `table`.
    pub fn spawn(table: CallTable<Req, Resp>, config: HotCallConfig) -> Self {
        let shared = Arc::new(Shared {
            slot: CallSlot::new(),
            shutdown: AtomicBool::new(false),
            doze: Doze::new(),
            stats: CachePadded::new(StatCell::default()),
            wakeups: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            abandoned: Arc::new(AtomicBool::new(false)),
        });
        let responder_shared = Arc::clone(&shared);
        let responder_config = config;
        let join = std::thread::Builder::new()
            .name("hotcalls-responder".into())
            .spawn(move || responder_loop(responder_shared, table, responder_config))
            .expect("failed to spawn responder thread");
        HotCallServer {
            shared,
            config,
            join: Some(join),
        }
    }

    /// Creates a requester handle (cloneable, shareable across threads).
    pub fn requester(&self) -> Requester<Req, Resp> {
        Requester {
            shared: Arc::clone(&self.shared),
            config: self.config,
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// Stops the responder and joins it.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl<Req, Resp> HotCallServer<Req, Resp> {
    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the responder if it sleeps.
        self.shared.doze.wake_all();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl<Req, Resp> Drop for HotCallServer<Req, Resp> {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown_inner();
        }
    }
}

fn responder_loop<Req, Resp>(
    shared: Arc<Shared<Req, Resp>>,
    table: CallTable<Req, Resp>,
    config: HotCallConfig,
) {
    let mut local = LocalStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // Final sweep: fail an in-flight request so its requester
            // unblocks instead of spinning on a dead mailbox.
            if shared.slot.state() == SUBMITTED {
                // SAFETY: SUBMITTED observed with Acquire and this thread
                // is the mailbox's only responder, so it owns servicing.
                let (_, stranded) = unsafe { shared.slot.take_request() };
                drop(stranded);
                // SAFETY: the request was taken by this thread just above.
                unsafe { shared.slot.finish(Err(HotCallError::ResponderGone)) };
            }
            local.flush(&shared.stats);
            return;
        }
        if shared.slot.state() == SUBMITTED {
            idle_streak = 0;
            backoff.reset();
            // SAFETY: SUBMITTED observed with Acquire and this thread is
            // the mailbox's only responder, so it owns servicing.
            let (id, req) = unsafe { shared.slot.take_request() };
            let result = table
                .dispatch(id, req)
                .ok_or(HotCallError::UnknownCallId(id));
            local.calls += 1;
            local.busy_polls += 1;
            // Flush before DONE: the Release below orders these stores, so
            // `stats().calls` is exact the moment the call returns.
            local.flush(&shared.stats);
            // SAFETY: this thread took the request for this call above.
            unsafe { shared.slot.finish(result) };
        } else {
            idle_streak += 1;
            local.idle_polls += 1;
            if local.idle_polls % 1024 == 0 {
                local.flush(&shared.stats);
            }
            if let Some(limit) = config.idle_polls_before_sleep {
                if idle_streak >= limit {
                    // Conserve resources: park on the condvar until a
                    // requester signals (paper §4.2).
                    local.flush(&shared.stats);
                    shared.doze.sleep_unless(|| {
                        shared.slot.state() == SUBMITTED || shared.shutdown.load(Ordering::Acquire)
                    });
                    idle_streak = 0;
                    backoff.reset();
                    continue;
                }
            }
            backoff.snooze();
        }
    }
}

/// The mailbox's in-flight call: redeem with [`Requester::wait`] or
/// [`Requester::try_wait`], or await the future minted by the async
/// submit path (`hotcalls::aio`). Non-clonable: holding it is the proof
/// of submission ownership the redeem path relies on.
///
/// Dropping the ticket unredeemed *abandons* the call: the next claimant
/// that finds the completed response reaps (and discards) it, so a
/// dropped ticket no longer wedges the mailbox.
#[derive(Debug)]
#[must_use = "redeem the response by waiting, or drop to abandon the call"]
pub struct MailTicket {
    /// The plane's abandonment flag; `None` once the ticket has been
    /// defused (redeemed through a wait path, so drop must not mark).
    abandon: Option<Arc<AtomicBool>>,
}

impl MailTicket {
    /// Takes over the redeem obligation from the drop guard: after this,
    /// dropping the ticket is inert.
    fn defuse(&mut self) {
        self.abandon = None;
    }
}

impl Drop for MailTicket {
    fn drop(&mut self) {
        if let Some(flag) = self.abandon.take() {
            flag.store(true, Ordering::Release);
        }
    }
}

/// A handle for issuing HotCalls.
#[derive(Debug)]
pub struct Requester<Req, Resp> {
    shared: Arc<Shared<Req, Resp>>,
    config: HotCallConfig,
}

impl<Req, Resp> Clone for Requester<Req, Resp> {
    fn clone(&self) -> Self {
        Requester {
            shared: Arc::clone(&self.shared),
            config: self.config,
        }
    }
}

impl<Req, Resp> Requester<Req, Resp> {
    /// Issues a call and spins until the response arrives.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if the responder stayed busy
    /// beyond the configured retries (fall back to your slow path, as the
    /// paper prescribes); [`HotCallError::ResponderGone`] if it shut down;
    /// [`HotCallError::UnknownCallId`] for unregistered ids.
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        let t = self.submit(id, req)?;
        self.wait(t)
    }

    /// Publishes a call into the mailbox without waiting, returning a
    /// [`MailTicket`] to redeem the response later. The mailbox holds one
    /// call, so pipelining depth is 1 — but the requester is free to do
    /// useful work (or issue calls on *other* channels) while the
    /// responder executes. For deep pipelines use
    /// [`RingRequester::submit`].
    ///
    /// # Errors
    ///
    /// As [`Requester::call`]'s claim phase.
    pub fn submit(&self, id: u32, req: Req) -> Result<MailTicket> {
        self.claim_mailbox()?;
        Ok(self.exchange(id, req, false))
    }

    /// [`Requester::submit`] with the mailbox's waker cell armed: the
    /// responder (or the shutdown sweep) fires a waker registered against
    /// the returned ticket — the `hotcalls::aio` completion hook on the
    /// single-slot plane.
    pub(crate) fn submit_async(&self, id: u32, req: Req) -> Result<MailTicket> {
        self.claim_mailbox()?;
        Ok(self.exchange(id, req, true))
    }

    /// The future-side poll: redeem if complete, otherwise register
    /// `cx`'s waker with the mailbox slot and stay pending. Takes the
    /// ticket out of `ticket` exactly when it returns `Ready`.
    pub(crate) fn poll_mail(
        &self,
        ticket: &mut Option<MailTicket>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Resp>> {
        assert!(ticket.is_some(), "future polled after completion");
        let slot = &self.shared.slot;
        if slot.state() == DONE || slot.register_waker(cx.waker()) {
            ticket.take().expect("present above").defuse();
            // SAFETY: holding the (non-clonable) ticket proves this caller
            // submitted the in-flight call; DONE observed with Acquire.
            return Poll::Ready(unsafe { slot.redeem() });
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The responder's final sweep may have completed the call
            // between the registration above and the flag load.
            if slot.state() == DONE {
                ticket.take().expect("present above").defuse();
                // SAFETY: as above.
                return Poll::Ready(unsafe { slot.redeem() });
            }
            // Abandon the call (the drop marks it reapable) and surface
            // the shutdown.
            drop(ticket.take());
            return Poll::Ready(Err(HotCallError::ResponderGone));
        }
        Poll::Pending
    }

    /// Waits for the in-flight call and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, or
    /// the handler's own error.
    pub fn wait(&self, mut ticket: MailTicket) -> Result<Resp> {
        ticket.defuse();
        // Spin for completion with escalating backoff.
        let mut backoff = Backoff::new();
        let mut grace: u32 = 0;
        loop {
            match self.shared.slot.state() {
                DONE => break,
                _ => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        // The responder's final sweep fails SUBMITTED
                        // calls; if ours raced past the sweep, give up
                        // after a bounded grace and strand the slot
                        // (Drop frees the payload with the server).
                        grace += 1;
                        if grace > SHUTDOWN_GRACE_POLLS {
                            return Err(HotCallError::ResponderGone);
                        }
                    }
                    backoff.snooze();
                }
            }
        }
        // SAFETY: holding the (non-clonable) ticket proves this caller
        // submitted the in-flight call; DONE observed with Acquire grants
        // exclusive access to take the response.
        unsafe { self.shared.slot.redeem() }
    }

    /// Redeems the response if the call already completed, or hands the
    /// ticket back untouched.
    pub fn try_wait(&self, ticket: MailTicket) -> core::result::Result<Result<Resp>, MailTicket> {
        if self.shared.slot.state() != DONE {
            return Err(ticket);
        }
        let mut ticket = ticket;
        ticket.defuse();
        // SAFETY: as in `wait` — the ticket proves submission ownership
        // and DONE was observed with Acquire.
        Ok(unsafe { self.shared.slot.redeem() })
    }

    /// Claims the mailbox with bounded retries ("Preventing starvation").
    /// On success the caller owns the request cell and **must** follow up
    /// with [`Requester::exchange`].
    fn claim_mailbox(&self) -> Result<()> {
        let mut backoff = Backoff::new();
        for _ in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if self.shared.slot.try_claim() {
                    return Ok(());
                }
                // A completed call whose ticket was dropped unredeemed
                // blocks the claim forever — reap it on the dropper's
                // behalf. DONE is checked before the flag swap, and only
                // one racing claimant wins the swap, so a live call is
                // never redeemed out from under its waiter.
                if self.shared.slot.state() == DONE
                    && self.shared.abandoned.swap(false, Ordering::AcqRel)
                {
                    // SAFETY: the swap transferred the dropping
                    // submitter's redeem ownership to this thread, and
                    // DONE was observed with Acquire above.
                    drop(unsafe { self.shared.slot.redeem() });
                    continue;
                }
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err(HotCallError::ResponderGone);
                }
                core::hint::spin_loop();
            }
            backoff.snooze();
        }
        self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err(HotCallError::ResponderTimeout {
            retries: self.config.timeout_retries,
        })
    }

    /// Publishes a request into the already-claimed mailbox and returns
    /// the in-flight ticket. With `arm`, the slot's waker cell is armed
    /// before publish so the responder fires the future's waker.
    fn exchange(&self, id: u32, req: Req, arm: bool) -> MailTicket {
        if arm {
            // Before publish: the SUBMITTED Release store carries the
            // armed flag to the responder, so its wake cannot be missed.
            self.shared.slot.arm_async();
        }
        // SAFETY: the caller won `claim_mailbox`'s EMPTY→CLAIMED CAS,
        // which grants this thread exclusive write access to the request
        // cell.
        unsafe { self.shared.slot.publish(0, id, req) };
        // Wake a sleeping responder (ordered after the SUBMITTED store).
        if self.shared.doze.wake() {
            self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        MailTicket {
            abandon: Some(Arc::clone(&self.shared.abandoned)),
        }
    }

    /// Issues a call, running `fallback` locally if the fast path times
    /// out — the paper's SDK-call fallback, generalized.
    ///
    /// The request is moved into the mailbox only after the claim
    /// succeeds, so the hot path never clones: on timeout the original
    /// request goes to `fallback` as-is. (`Req: Clone` is not required.)
    pub fn call_with_fallback<F>(&self, id: u32, req: Req, fallback: F) -> Result<Resp>
    where
        F: FnOnce(Req) -> Resp,
    {
        match self.claim_mailbox() {
            Ok(()) => {
                let t = self.exchange(id, req, false);
                self.wait(t)
            }
            Err(HotCallError::ResponderTimeout { .. }) => Ok(fallback(req)),
            Err(e) => Err(e),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn arith_table() -> (CallTable<u64, u64>, u32, u32) {
        let mut t = CallTable::new();
        let inc = t.register(|x| x + 1);
        let dbl = t.register(|x| x * 2);
        (t, inc, dbl)
    }

    #[test]
    fn roundtrip_returns_handler_result() {
        let (t, inc, dbl) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        assert_eq!(r.call(inc, 41).unwrap(), 42);
        assert_eq!(r.call(dbl, 21).unwrap(), 42);
        assert_eq!(server.stats().calls, 2);
    }

    #[test]
    fn submit_wait_split_roundtrips() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        let ticket = r.submit(inc, 41).unwrap();
        // The requester is free to do local work here while the responder
        // executes; the ticket redeems the response later.
        assert_eq!(r.wait(ticket).unwrap(), 42);
        assert_eq!(server.stats().calls, 1);
    }

    #[test]
    fn try_wait_returns_ticket_until_done() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(30));
            x + 1
        });
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        let mut ticket = r.submit(slow, 1).unwrap();
        let mut polls = 0u32;
        let resp = loop {
            match r.try_wait(ticket) {
                Ok(resp) => break resp.unwrap(),
                Err(t) => {
                    ticket = t;
                    polls += 1;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(resp, 2);
        assert!(polls > 0, "a 30ms handler cannot complete instantly");
    }

    #[test]
    fn unknown_id_is_an_error_not_a_hang() {
        let (t, _, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        assert!(matches!(
            r.call(99, 1),
            Err(HotCallError::UnknownCallId(99))
        ));
    }

    #[test]
    fn many_sequential_calls_are_exactly_once() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        for i in 0..10_000u64 {
            assert_eq!(r.call(inc, i).unwrap(), i + 1);
        }
        assert_eq!(server.stats().calls, 10_000);
    }

    #[test]
    fn concurrent_requesters_serialize_correctly() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let echo = t.register(|x| x);
        let server = HotCallServer::spawn(
            t,
            HotCallConfig {
                timeout_retries: 1_000_000,
                spins_per_retry: 64,
                ..HotCallConfig::default()
            },
        );
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                for i in 0..500u64 {
                    sum += r.call(echo, th * 10_000 + i).unwrap();
                }
                sum
            }));
        }
        let mut total = 0u64;
        for h in handles {
            total += h.join().unwrap();
        }
        let expected: u64 = (0..4u64)
            .map(|th| (0..500u64).map(|i| th * 10_000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
        assert_eq!(server.stats().calls, 2_000);
    }

    #[test]
    fn shutdown_unblocks_requesters() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        assert_eq!(r.call(inc, 1).unwrap(), 2);
        server.shutdown();
        assert!(matches!(r.call(inc, 1), Err(HotCallError::ResponderGone)));
    }

    #[test]
    fn idle_sleep_and_wakeup() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::with_idle_sleep(1_000));
        let r = server.requester();
        assert_eq!(r.call(inc, 1).unwrap(), 2);
        // Give the responder time to fall asleep.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.shared.doze.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "responder never slept");
            std::thread::yield_now();
        }
        // A call must still succeed (and wake it).
        assert_eq!(r.call(inc, 10).unwrap(), 11);
        assert!(server.stats().wakeups >= 1);
    }

    #[test]
    fn fallback_runs_locally_on_timeout() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(200));
            x
        });
        let server = HotCallServer::spawn(
            t,
            HotCallConfig {
                timeout_retries: 2,
                spins_per_retry: 4,
                ..HotCallConfig::default()
            },
        );
        let r1 = server.requester();
        let r2 = server.requester();
        // Occupy the responder with a slow call from another thread.
        let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        // The second requester times out and falls back locally.
        let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
        assert_eq!(v, 105);
        assert!(r2.stats().fallbacks >= 1);
        assert_eq!(blocker.join().unwrap(), 7);
    }

    #[test]
    fn utilization_reflects_load() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        for i in 0..100 {
            r.call(inc, i).unwrap();
        }
        let stats = server.stats();
        assert!(stats.busy_polls >= 100);
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn shutdown_with_inflight_call_frees_payloads() {
        // A request that is stranded mid-flight at shutdown must be failed
        // (or completed), and its heap payload freed by the slot's Drop.
        for _ in 0..8 {
            let mut t: CallTable<Vec<u8>, u64> = CallTable::new();
            let slow = t.register(|v: Vec<u8>| {
                std::thread::sleep(Duration::from_millis(20));
                v.len() as u64
            });
            let server = HotCallServer::spawn(
                t,
                HotCallConfig {
                    timeout_retries: 1_000_000,
                    spins_per_retry: 64,
                    ..HotCallConfig::default()
                },
            );
            let r = server.requester();
            let h = std::thread::spawn(move || r.call(slow, vec![7u8; 4096]));
            // Race shutdown against the in-flight call.
            server.shutdown();
            match h.join().unwrap() {
                Ok(n) => assert_eq!(n, 4096),
                Err(HotCallError::ResponderGone) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
}
