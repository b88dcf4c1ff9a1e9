//! The threaded HotCalls runtime: a real switchless-call channel.
//!
//! This is the artifact a downstream user adopts: a dedicated responder
//! thread polls shared memory in a spin loop (`PAUSE` hints, no syscalls)
//! and requesters publish work through an atomic state machine. The
//! paper's practical considerations — timeout fallback, idle sleep on a
//! condition variable, utilization accounting — are written once, in the
//! plane core (`plane.rs`) that both planes share; each plane keeps only
//! its slot protocol and its shutdown sweep.
//!
//! [`HotCallServer`] is Fig. 9's mailbox, and like it takes any number
//! of requesters: a requester acquires the
//! (logical) lock by CASing the claim word, writes the request, signals
//! "go", and spins for completion; the responder polls, executes via the
//! call table, and signals "done". Payloads live in `UnsafeCell`s whose
//! exclusive access is granted by acquire/release edges on those three
//! words, each written by one side only and on lines no other writer
//! touches (`slot::MailSlot`). For the queued plane — one ring, one
//! requester, one responder — see [`RingServer`], and [`Window`] for a
//! pipeline of calls on it; a byte or scatter-gather plane is that same
//! server at `HotBuf` or `SgList` payloads ([`ByteRing`], [`SgRing`]).

pub mod arena;
mod bytes;
mod calltable;
mod plane;
mod pool;
mod ring;
mod slot;
mod stream;

pub use arena::{ArenaStats, HotBuf, SgList, SlabArena, INLINE_CAPACITY};
pub use bytes::{ByteCallTable, ByteCaller, ByteRing};
pub use calltable::CallTable;
pub use ring::{RingRequester, RingServer, Ticket, Window};
pub use stream::{SgCallTable, SgRing, StreamCaller, StreamReport, DEFAULT_SEGMENT_BYTES};

use std::cell::Cell;
use std::sync::Arc;

use crate::config::HotCallConfig;
use crate::error::{HotCallError, Result};
use crate::telemetry::HotCallStats;

use plane::{Core, ResponderThread};
use slot::{LocalStats, MailSlot};

#[derive(Debug)]
struct Shared<Req, Resp> {
    /// The mailbox (the paper's lock + go/busy flags become the slot's
    /// claim, request and response words).
    slot: MailSlot<Req, Resp>,
    core: Core,
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
    responder: ResponderThread,
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
            core: Core::default(),
        });
        let responder_shared = Arc::clone(&shared);
        let responder = ResponderThread::spawn("hotcalls-responder", move || {
            responder_loop(&responder_shared, table, config)
        });
        HotCallServer {
            shared,
            config,
            responder,
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
        // The single mailbox has no fused path: its one responder is the
        // whole plane.
        self.shared.core.snapshot(0)
    }

    /// Stops the responder and joins it.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<Req, Resp> Drop for HotCallServer<Req, Resp> {
    fn drop(&mut self) {
        self.responder.stop(&self.shared.core);
    }
}

fn responder_loop<Req, Resp>(
    shared: &Shared<Req, Resp>,
    table: CallTable<Req, Resp>,
    config: HotCallConfig,
) {
    let slot = &shared.slot;
    // The call this responder services next. Only it advances the count, so
    // the request word of the call it serviced last, which stays in place
    // after redeem, never reads as new.
    let next_seq = Cell::new(MailSlot::<Req, Resp>::FIRST_SEQ);
    let submitted = || slot.submitted_as(next_seq.get());
    let poll = |local: &mut LocalStats| {
        if !submitted() {
            return false;
        }
        // SAFETY: SUBMITTED(next_seq) read with Acquire just above, this
        // thread is the mailbox's only responder, and it has not taken
        // `next_seq` yet.
        let (servicing, (id, req)) = unsafe { slot.take_request(next_seq.get()) };
        let result = table.call(id, req);
        local.serviced(&shared.core.stats);
        servicing.finish(result);
        next_seq.set(next_seq.get() + 1);
        true
    };
    // Final sweep: fail a request published after the last empty poll so
    // its requester unblocks instead of spinning on a dead mailbox.
    let sweep = || {
        if submitted() {
            // SAFETY: SUBMITTED(next_seq) read with Acquire just above,
            // this thread is the mailbox's only responder, and it has not
            // taken `next_seq` yet.
            let (servicing, (_, stranded)) = unsafe { slot.take_request(next_seq.get()) };
            drop(stranded);
            servicing.finish(Err(HotCallError::ResponderGone));
        }
    };
    plane::respond(&shared.core, config, poll, submitted, sweep);
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
        let Shared { slot, core } = &*self.shared;
        let seq = core.claim(&self.config, || slot.try_claim())?;
        // SAFETY: `claim` won the claim for `seq`, which grants this thread
        // exclusive write access to the request half; this is the claim's
        // one publish.
        unsafe { slot.publish(seq, id, req) };
        // Wake a sleeping responder (ordered after the SUBMITTED store).
        core.wake();
        core.poll_until(|| slot.done_as(seq).then_some(()))?;
        // SAFETY: this thread holds the claim for `seq` — the mailbox
        // admits no other claimant until it is redeemed — and read
        // DONE(seq) with Acquire, which grants exclusive access to the
        // response.
        unsafe { slot.redeem(seq) }
    }

    /// Current statistics.
    pub fn stats(&self) -> HotCallStats {
        self.shared.core.snapshot(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn idle_sleep_and_wakeup() {
        let (t, inc, _) = arith_table();
        let server = HotCallServer::spawn(t, HotCallConfig::with_idle_sleep(1_000));
        let r = server.requester();
        assert_eq!(r.call(inc, 1).unwrap(), 2);
        // Give the responder time to fall asleep.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.shared.core.doze.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "responder never slept");
            std::thread::yield_now();
        }
        // A call must still succeed (and wake it).
        assert_eq!(r.call(inc, 10).unwrap(), 11);
        assert!(server.stats().wakeups >= 1);
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
        while !server.responder.is_finished() {
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
