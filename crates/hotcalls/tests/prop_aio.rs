//! Property tests of the async front end: no lost wakeups, no deadlock,
//! no double-redeem — across pooled, fused, and responder-flip
//! completions, over arbitrary drop/redeem interleavings.
//!
//! The waker protocol has one hazard class: a completion that races
//! waker registration and *loses the wakeup* leaves `block_on` parked
//! forever. These tests therefore run every scenario under a watchdog —
//! a parking executor that fails the case loudly after a deadline rather
//! than hanging the suite — while the usual conservation properties
//! (every submission redeemed exactly once, responses never crossed)
//! ride along.

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use hotcalls::rt::{CallTable, HotCallServer, RingServer};
use hotcalls::{block_on, FusedMode, HotCallConfig, Reactor, ResponderPolicy, ShardPolicy};

/// Runs `f` on a helper thread and panics if it has not finished within
/// `deadline` — the "timeout assert" form of a parking executor: a lost
/// wakeup shows up as a failed case, not a hung suite.
fn with_watchdog<T: Send + 'static>(
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            worker.join().expect("worker panicked");
            value
        }
        Err(_) => panic!("lost wakeup or deadlock: case still parked after {deadline:?}"),
    }
}

const WATCHDOG: Duration = Duration::from_secs(30);

fn fused_of(tag: u8) -> FusedMode {
    match tag % 3 {
        0 => FusedMode::Off,
        1 => FusedMode::Auto,
        _ => FusedMode::Always,
    }
}

fn spin_config(fused: FusedMode) -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        fused_mode: fused,
        ..HotCallConfig::patient()
    }
}

proptest! {
    // Every case spawns threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Ring futures under every fused mode and an arbitrary drop mask:
    /// redeemed futures resolve to their own response, dropped futures
    /// abandon cleanly, and the plane still serves a full sync sweep
    /// afterwards. A lost wakeup anywhere trips the watchdog.
    #[test]
    fn ring_futures_survive_arbitrary_interleavings(
        capacity in 1usize..6,
        responders in 1usize..3,
        fused_tag in 0u8..3,
        drop_mask in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        with_watchdog(WATCHDOG, move || {
            let mut table: CallTable<u64, u64> = CallTable::new();
            let id = table.register(|x| x.wrapping_mul(3));
            let server = RingServer::spawn_pool(
                table,
                capacity,
                responders,
                spin_config(fused_of(fused_tag)),
            )
            .unwrap();
            let r = server.requester();
            for (i, &drop_it) in drop_mask.iter().enumerate() {
                let x = i as u64;
                let fut = r.call_async(id, x).unwrap();
                if drop_it {
                    drop(fut);
                } else {
                    assert_eq!(block_on(fut).unwrap(), x.wrapping_mul(3));
                }
            }
            for x in 0..(2 * capacity) as u64 {
                assert_eq!(r.call(id, x).unwrap(), x.wrapping_mul(3));
            }
            server.shutdown();
        });
    }

    /// The same interleavings through the sharded plane, where the
    /// abandon board and waker slot live per shard.
    #[test]
    fn shard_futures_survive_arbitrary_interleavings(
        capacity in 1usize..6,
        shards in 1usize..3,
        fused_tag in 0u8..3,
        drop_mask in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        with_watchdog(WATCHDOG, move || {
            let mut table: CallTable<u64, u64> = CallTable::new();
            let id = table.register(|x| x.wrapping_mul(3));
            let server = RingServer::spawn_sharded(
                table,
                capacity,
                ShardPolicy::fixed(shards),
                spin_config(fused_of(fused_tag)),
            )
            .unwrap();
            let r = server.requester();
            for (i, &drop_it) in drop_mask.iter().enumerate() {
                let x = i as u64;
                let fut = r.call_async(id, x).unwrap();
                if drop_it {
                    drop(fut);
                } else {
                    assert_eq!(block_on(fut).unwrap(), x.wrapping_mul(3));
                }
            }
            for x in 0..(2 * capacity) as u64 {
                assert_eq!(r.call(id, x).unwrap(), x.wrapping_mul(3));
            }
            server.shutdown();
        });
    }

    /// Mailbox futures: one slot, so every drop/redeem decision lands on
    /// the same cell back to back — the tightest reuse interleaving.
    #[test]
    fn mailbox_futures_survive_arbitrary_interleavings(
        drop_mask in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        with_watchdog(WATCHDOG, move || {
            let mut table: CallTable<u64, u64> = CallTable::new();
            let id = table.register(|x| x.wrapping_mul(3));
            let server = HotCallServer::spawn(table, spin_config(FusedMode::Off));
            let r = server.requester();
            for (i, &drop_it) in drop_mask.iter().enumerate() {
                let x = i as u64;
                let fut = r.call_async(id, x).unwrap();
                if drop_it {
                    drop(fut);
                } else {
                    assert_eq!(block_on(fut).unwrap(), x.wrapping_mul(3));
                }
            }
            server.shutdown();
        });
    }

    /// The reactor against an adaptive pool whose active-responder count
    /// flips under load (the ctl path): every submission is retired
    /// exactly once — no seq reaped twice, none lost — and responses
    /// never cross wires.
    #[test]
    fn reactor_conserves_across_responder_flips(
        capacity in 2usize..8,
        calls in 1usize..160,
        flip_every in 1usize..24,
    ) {
        with_watchdog(WATCHDOG, move || {
            let mut table: CallTable<u64, u64> = CallTable::new();
            let id = table.register(|x| x.wrapping_mul(3));
            let server = RingServer::spawn_adaptive(
                table,
                capacity,
                ResponderPolicy::elastic(1, 2),
                spin_config(FusedMode::Off),
            )
            .unwrap();
            let r = server.requester();
            let mut reactor = Reactor::new(&r);
            let mut seen: HashSet<u64> = HashSet::new();
            let mut expected: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            let mut reaped = 0usize;
            for i in 0..calls {
                if i % flip_every == 0 {
                    // Flip the active target both ways over the run.
                    server.set_active(1 + (i / flip_every) % 2);
                }
                while reactor.inflight() > capacity / 2 {
                    reactor
                        .drain_until(Instant::now() + Duration::from_millis(5), |seq, resp| {
                            assert!(seen.insert(seq), "seq {seq} reaped twice");
                            assert_eq!(resp, expected.remove(&seq).unwrap(), "crossed wires");
                            reaped += 1;
                        })
                        .unwrap();
                }
                let x = i as u64;
                let seq = reactor.submit(id, x).unwrap();
                expected.insert(seq, x.wrapping_mul(3));
            }
            reactor
                .drain_all(Duration::from_millis(5), |seq, resp| {
                    assert!(seen.insert(seq), "seq {seq} reaped twice");
                    assert_eq!(resp, expected.remove(&seq).unwrap(), "crossed wires");
                    reaped += 1;
                })
                .unwrap();
            assert_eq!(reaped, calls, "tickets not conserved");
            assert!(expected.is_empty());
            server.shutdown();
        });
    }
}
