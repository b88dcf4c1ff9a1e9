//! The threaded HotCalls runtime: a real switchless-call channel.
//!
//! This is the artifact a downstream user adopts: a dedicated responder
//! thread polls a shared mailbox in a spin loop (`PAUSE` hints, no
//! syscalls), requesters publish work through an atomic state machine, and
//! the paper's practical considerations — timeout fallback, idle sleep on a
//! condition variable, utilization accounting — are all implemented.
//!
//! The protocol matches Fig. 9 of the paper: requester acquires the
//! (logical) lock by CASing the claim word, writes the request, signals
//! "go", and spins for completion; the responder polls, executes via the
//! call table, and signals "done".
//!
//! The data plane is lock-free: payloads live in `UnsafeCell`s whose
//! exclusive access is granted by acquire/release edges on three words —
//! claim, request, response — each written by one side only and on lines
//! no other writer touches (see `slot::MailSlot`), and hot-path statistics
//! are responder-local counters flushed with plain stores. For the queued
//! plane — one ring, one responder — see [`RingServer`]; a byte
//! or scatter-gather plane is that same server at `HotBuf` or `SgList`
//! payloads ([`ByteRing`], [`SgRing`]).

pub mod arena;
mod bytes;
mod calltable;
mod pool;
mod ring;
mod slot;
mod stream;

pub use arena::{ArenaStats, HotBuf, SgList, SlabArena, INLINE_CAPACITY};
pub use bytes::{ByteCallTable, ByteCaller, ByteRing};
pub use calltable::CallTable;
pub use ring::{RingRequester, RingServer, Ticket};
pub use stream::{
    SgCallTable, SgRing, StreamCaller, StreamReport, DEFAULT_SEGMENT_BYTES, DEFAULT_STREAM_WINDOW,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::config::HotCallConfig;
use crate::error::{HotCallError, Result};
use crate::telemetry::HotCallStats;

use slot::{Backoff, CachePadded, Doze, LocalStats, MailSlot, StatCell};

/// How long (in poll iterations) a requester keeps waiting for `DONE`
/// after it has observed shutdown, in case the responder's final sweep is
/// still completing its call.
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

struct Shared<Req, Resp> {
    /// The mailbox (the paper's lock + go/busy flags become the slot's
    /// claim, request and response words).
    slot: MailSlot<Req, Resp>,
    /// Shutdown lives outside the slot's words so an in-flight call's
    /// state is never clobbered (the words tell `Drop` which payload to
    /// free).
    shutdown: AtomicBool,
    doze: Doze,
    /// Responder-owned running totals (padded: readers never dirty the
    /// responder's line).
    stats: CachePadded<StatCell>,
    // Requester-side event counters; rare, so shared RMWs are fine.
    wakeups: AtomicU64,
    fallbacks: AtomicU64,
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
    ///
    /// # Panics
    ///
    /// Panics with [`HotCallConfig::validate`]'s message when it rejects
    /// `config` (a zero retry or spin budget, or a zero idle-poll budget),
    /// and if the responder thread cannot be spawned.
    pub fn spawn(table: CallTable<Req, Resp>, config: HotCallConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let shared = Arc::new(Shared {
            slot: MailSlot::new(),
            shutdown: AtomicBool::new(false),
            doze: Doze::new(),
            stats: CachePadded::new(StatCell::default()),
            wakeups: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
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
    let slot = &shared.slot;
    let mut local = LocalStats::default();
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    // The call this responder services next. Only it advances the count, so
    // the request word of the call it serviced last, which stays in place
    // after redeem, never reads as new.
    let mut next_seq = MailSlot::<Req, Resp>::FIRST_SEQ;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // Final sweep: fail an in-flight request so its requester
            // unblocks instead of spinning on a dead mailbox.
            if slot.submitted_as(next_seq) {
                // SAFETY: SUBMITTED(next_seq) read with Acquire just above,
                // this thread is the mailbox's only responder, and it has
                // not taken `next_seq` yet.
                let (servicing, (_, stranded)) = unsafe { slot.take_request(next_seq) };
                drop(stranded);
                servicing.finish(Err(HotCallError::ResponderGone));
            }
            local.flush(&shared.stats);
            return;
        }
        if slot.submitted_as(next_seq) {
            idle_streak = 0;
            backoff.reset();
            // SAFETY: SUBMITTED(next_seq) read with Acquire just above,
            // this thread is the mailbox's only responder, and it has not
            // taken `next_seq` yet.
            let (servicing, (id, req)) = unsafe { slot.take_request(next_seq) };
            let result = table
                .dispatch(id, req)
                .ok_or(HotCallError::UnknownCallId(id));
            local.calls += 1;
            local.busy_polls += 1;
            // Flush before DONE: the Release below orders these stores, so
            // `stats().calls` is exact the moment the call returns.
            local.flush(&shared.stats);
            servicing.finish(result);
            next_seq += 1;
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
                        slot.submitted_as(next_seq) || shared.shutdown.load(Ordering::Acquire)
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
        let seq = self.claim_mailbox()?;
        self.exchange(seq, id, req)
    }

    /// Claims the mailbox with bounded retries ("Preventing starvation")
    /// and returns the claimed call's sequence. On success the caller owns
    /// the request cell and **must** follow up with
    /// [`Requester::exchange`].
    fn claim_mailbox(&self) -> Result<usize> {
        let mut backoff = Backoff::new();
        for _ in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if let Some(seq) = self.shared.slot.try_claim() {
                    return Ok(seq);
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

    /// Publishes a request into the mailbox claimed for call `seq`, spins
    /// until the response is DONE and redeems it.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, or
    /// the handler's own error.
    fn exchange(&self, seq: usize, id: u32, req: Req) -> Result<Resp> {
        let slot = &self.shared.slot;
        // SAFETY: `claim_mailbox` won the claim for `seq`, which grants
        // this thread exclusive write access to the request half; this is
        // the claim's one publish.
        unsafe { slot.publish(seq, id, req) };
        // Wake a sleeping responder (ordered after the SUBMITTED store).
        if self.shared.doze.wake() {
            self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        // Spin for completion with escalating backoff.
        let mut backoff = Backoff::new();
        let mut grace: u32 = 0;
        while !slot.done_as(seq) {
            if self.shared.shutdown.load(Ordering::Acquire) {
                // The responder's final sweep fails SUBMITTED calls; if
                // ours raced past the sweep, give up after a bounded grace
                // and strand the slot (Drop frees the payload with the
                // server).
                grace += 1;
                if grace > SHUTDOWN_GRACE_POLLS {
                    return Err(HotCallError::ResponderGone);
                }
            }
            backoff.snooze();
        }
        // SAFETY: this thread holds the claim for `seq` — the mailbox
        // admits no other claimant until it is redeemed — and read
        // DONE(seq) with Acquire, which grants exclusive access to the
        // response.
        unsafe { slot.redeem(seq) }
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
            Ok(seq) => self.exchange(seq, id, req),
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
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    fn arith_table() -> (CallTable<u64, u64>, u32, u32) {
        let mut t = CallTable::new();
        let inc = t.register(|x| x + 1);
        let dbl = t.register(|x| x * 2);
        (t, inc, dbl)
    }

    fn spawn_with(config: HotCallConfig) {
        HotCallServer::spawn(arith_table().0, config);
    }

    #[test]
    #[should_panic(expected = "timeout_retries must be positive")]
    fn spawn_rejects_zero_timeout_retries() {
        spawn_with(HotCallConfig {
            timeout_retries: 0,
            ..HotCallConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "spins_per_retry must be positive")]
    fn spawn_rejects_zero_spins_per_retry() {
        spawn_with(HotCallConfig {
            spins_per_retry: 0,
            ..HotCallConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "idle_polls_before_sleep of zero")]
    fn spawn_rejects_zero_idle_polls_before_sleep() {
        spawn_with(HotCallConfig {
            idle_polls_before_sleep: Some(0),
            ..HotCallConfig::default()
        });
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

    /// A heap payload that counts its drops into a per-test static.
    struct Counted {
        bytes: Vec<u8>,
        drops: &'static AtomicUsize,
    }

    impl Counted {
        fn new(len: usize, drops: &'static AtomicUsize) -> Self {
            Counted {
                bytes: vec![7u8; len],
                drops,
            }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn shutdown_with_inflight_call_frees_payloads() {
        // A request that is stranded mid-flight at shutdown must be failed
        // (or completed), and its payload dropped exactly once: by the
        // handler, by the final sweep, or by the slot's Drop — whichever
        // state the race left it in.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        for race in 1..=8 {
            let mut t: CallTable<Counted, u64> = CallTable::new();
            let slow = t.register(|c: Counted| {
                std::thread::sleep(Duration::from_millis(20));
                c.bytes.len() as u64
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
            let h = std::thread::spawn(move || r.call(slow, Counted::new(4096, &DROPS)));
            // Race shutdown against the in-flight call.
            server.shutdown();
            match h.join().unwrap() {
                Ok(n) => assert_eq!(n, 4096),
                Err(HotCallError::ResponderGone) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Every handle is gone, so the slot has been dropped too.
            assert_eq!(DROPS.load(Ordering::SeqCst), race, "race {race}");
        }
    }

    #[test]
    fn handler_panic_strands_its_call_and_drops_each_request_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let mut t: CallTable<Counted, u64> = CallTable::new();
        let len = t.register(|c: Counted| {
            if c.bytes.len() == 13 {
                panic!("injected handler fault");
            }
            c.bytes.len() as u64
        });
        let server = HotCallServer::spawn(t, HotCallConfig::default());
        let r = server.requester();
        for n in 0..4 {
            assert_eq!(r.call(len, Counted::new(n, &DROPS)).unwrap(), n as u64);
        }
        let h = std::thread::spawn(move || r.call(len, Counted::new(13, &DROPS)));
        // The unwind ends the responder thread; wait for it, so shutdown
        // meets a call whose request went down with the handler.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.join.as_ref().is_some_and(|j| j.is_finished()) {
            assert!(Instant::now() < deadline, "the handler never ran");
            std::thread::yield_now();
        }
        server.shutdown();
        assert!(matches!(
            h.join().unwrap(),
            Err(HotCallError::ResponderGone)
        ));
        assert_eq!(DROPS.load(Ordering::SeqCst), 5, "one drop per call made");
    }
}
