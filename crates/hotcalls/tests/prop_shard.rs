//! Property tests of the sharded data plane: concurrent requesters on
//! different home shards, responders stealing across shards, arbitrary
//! submit/reap interleavings.
//!
//! The invariants under test are the ones work stealing could break if a
//! claim or hand-off were wrong:
//!
//! * **No ticket is lost** — every submission reaps exactly one response
//!   (the per-requester pending set drains to empty, and the plane's
//!   serviced totals equal the number of calls issued).
//! * **No ticket is double-completed** — each response carries its own
//!   submission's value stamp; a slot serviced twice, or a response
//!   delivered to the wrong waiter, shows a mismatched stamp.
//! * **No ticket completes on the wrong shard** — a requester is pinned
//!   to its home shard, so a stamp encoding (home, seq) that comes back
//!   through a different shard's slot fails the check even when a sibling
//!   responder *serviced* it (stealing moves the servicing thread, never
//!   the slot).
//!
//! Plus a starvation check: a sibling shard kept saturated by flooders
//! must not indefinitely delay calls on a quiet home shard — the home
//! responder drains its own ring before probing siblings, so home-shard
//! calls complete promptly no matter how deep the neighbor's backlog.

use std::collections::VecDeque;

use proptest::prelude::*;

use hotcalls::rt::{CallTable, RingServer};
use hotcalls::{FusedMode, HotCallConfig, ResponderPolicy};

const MAGIC: u64 = 0x9e37_79b9_7f4a_7c15;

/// The value a call stamps into its request: which requester sent it,
/// that requester's home shard, and its per-requester sequence number.
fn stamp(requester: usize, home: usize, seq: u64) -> u64 {
    ((requester as u64) << 48) | ((home as u64) << 40) | seq
}

fn shard_table() -> CallTable<u64, u64> {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x ^ MAGIC);
    assert_eq!(id, 0, "first registration is id 0");
    table
}

proptest! {
    // Every case spawns a responder per shard; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary plane shapes, requester counts, pinnings, and per-thread
    /// submit/reap interleavings: every response matches its own
    /// submission's stamp, every pending set drains, and the plane's
    /// serviced totals account for every call exactly once.
    #[test]
    fn concurrent_stealing_loses_and_duplicates_nothing(
        shards in 1usize..5,
        capacity in 2usize..8,
        n_requesters in 1usize..5,
        // `true` pins every requester to shard 0 (maximum skew, maximum
        // stealing); `false` spreads them round-robin over all shards.
        skew in any::<bool>(),
        ops in prop::collection::vec(any::<bool>(), 8..96),
    ) {
        let config = HotCallConfig {
            // Short doze fuse: stealing paths and the cross-shard wake
            // protocol get exercised instead of pure spinning.
            idle_polls_before_sleep: Some(64),
            // Small claim budget: under full skew the pinned pipeliners
            // genuinely oversubscribe one shard, and a submit that can't
            // win a slot should report it in milliseconds, not spin out
            // the patient default.
            timeout_retries: 5_000,
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_sharded(
            shard_table(),
            capacity,
            ResponderPolicy::fixed(shards),
            config,
        )
        .unwrap();

        let requesters: Vec<_> = (0..n_requesters)
            .map(|i| {
                if skew {
                    server.requester_on(0).unwrap()
                } else {
                    server.requester_on(i % shards).unwrap()
                }
            })
            .collect();

        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = requesters
                .iter()
                .enumerate()
                .map(|(ri, r)| {
                    let ops = &ops;
                    s.spawn(move || {
                        // FIFO reaping with depth < capacity keeps the
                        // monotonic head from lapping an unreaped slot,
                        // so the interleaving choice below is always
                        // legal. Out-of-order reaping is prop_pipeline's
                        // subject; here the adversary is the *other*
                        // threads and the stealing responders.
                        let depth = capacity - 1;
                        let mut pending: VecDeque<(hotcalls::rt::Ticket, u64)> =
                            VecDeque::new();
                        let mut seq = 0u64;
                        for &submit in ops {
                            if (submit || pending.is_empty()) && pending.len() < depth {
                                let value = stamp(ri, r.home(), seq);
                                match r.submit(0, value) {
                                    Ok(t) => {
                                        pending.push_back((t, value));
                                        seq += 1;
                                    }
                                    // Everyone pinned to one shard can
                                    // hold every slot as un-redeemed
                                    // DONE; a starved claim is legal
                                    // there. The accounting only counts
                                    // submissions that got a ticket.
                                    Err(hotcalls::HotCallError::ResponderTimeout {
                                        ..
                                    }) => {
                                        if let Some((t, value)) = pending.pop_front() {
                                            assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                                        }
                                    }
                                    Err(e) => panic!("submit failed: {e:?}"),
                                }
                            } else {
                                let (t, value) = pending.pop_front().unwrap();
                                assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                            }
                        }
                        while let Some((t, value)) = pending.pop_front() {
                            assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                        }
                        seq
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let rs = server.ring_stats();
        // Every submission was serviced exactly once, plane-wide.
        prop_assert_eq!(rs.totals.calls, total);
        let serviced: u64 = rs.shards.iter().map(|s| s.serviced).sum();
        prop_assert_eq!(serviced, total);
        // Nothing left between claim and service.
        prop_assert_eq!(rs.shards.iter().map(|s| s.occupancy).sum::<usize>(), 0);
        // Under full skew, only shard 0 ever held work — anything a
        // sibling responder serviced, it got by stealing from shard 0
        // (one winning probe can claim a whole drain batch, so hits
        // bound serviced from below, not equal it).
        if skew {
            for (i, sh) in rs.shards.iter().enumerate().skip(1) {
                prop_assert!(
                    sh.serviced == 0 || sh.steal_hits > 0,
                    "shard {} serviced {} calls without a single steal hit",
                    i, sh.serviced
                );
                prop_assert!(
                    sh.steal_hits <= sh.serviced,
                    "shard {} claims more winning probes ({}) than calls serviced ({})",
                    i, sh.steal_hits, sh.serviced
                );
            }
        }
        server.shutdown();
    }

    /// Fused↔pooled flips mid-stream: requesters alternate synchronous
    /// calls (which fuse under [`FusedMode::Auto`] whenever the home
    /// responders doze) with pipelined submits (which always ride the
    /// pool), while a short doze fuse keeps parking responders between
    /// bursts. The plane therefore flips service path many times per
    /// case, at interleavings chosen by the ops vector. No flip may
    /// lose, duplicate, or mis-deliver a ticket: every response carries
    /// its own submission's stamp, and the fused + pooled service counts
    /// partition the total exactly.
    #[test]
    fn fused_and_pooled_paths_interleave_without_losing_tickets(
        shards in 1usize..4,
        capacity in 2usize..8,
        n_requesters in 1usize..4,
        ops in prop::collection::vec(any::<u8>(), 16..96),
    ) {
        let config = HotCallConfig {
            // Short doze fuse: responders fall quiescent inside the
            // natural gaps of the interleaving, making the Auto gate
            // open and close repeatedly within one case.
            idle_polls_before_sleep: Some(64),
            timeout_retries: 5_000,
            fused_mode: FusedMode::Auto,
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_sharded(
            shard_table(),
            capacity,
            ResponderPolicy::fixed(shards),
            config,
        )
        .unwrap();

        let requesters: Vec<_> = (0..n_requesters)
            .map(|i| server.requester_on(i % shards).unwrap())
            .collect();

        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = requesters
                .iter()
                .enumerate()
                .map(|(ri, r)| {
                    let ops = &ops;
                    s.spawn(move || {
                        let depth = capacity - 1;
                        let mut pending: VecDeque<(hotcalls::rt::Ticket, u64)> =
                            VecDeque::new();
                        let mut seq = 0u64;
                        for &op in ops {
                            match op % 3 {
                                // A synchronous call: the one path the
                                // Auto gate may run inline. Needs a free
                                // slot of its own, so keep one in
                                // reserve below the pipeline depth.
                                0 if pending.len() + 1 < depth => {
                                    let value = stamp(ri, r.home(), seq);
                                    match r.call(0, value) {
                                        Ok(resp) => {
                                            assert_eq!(resp, value ^ MAGIC);
                                            seq += 1;
                                        }
                                        Err(hotcalls::HotCallError::ResponderTimeout {
                                            ..
                                        }) => {}
                                        Err(e) => panic!("call failed: {e:?}"),
                                    }
                                }
                                // A pipelined submit: never fuses under
                                // Auto, so this keeps the pooled path
                                // and the ring occupancy alive.
                                1 if pending.len() < depth => {
                                    let value = stamp(ri, r.home(), seq);
                                    match r.submit(0, value) {
                                        Ok(t) => {
                                            pending.push_back((t, value));
                                            seq += 1;
                                        }
                                        Err(hotcalls::HotCallError::ResponderTimeout {
                                            ..
                                        }) => {
                                            if let Some((t, value)) = pending.pop_front() {
                                                assert_eq!(
                                                    r.wait(t).unwrap(),
                                                    value ^ MAGIC
                                                );
                                            }
                                        }
                                        Err(e) => panic!("submit failed: {e:?}"),
                                    }
                                }
                                // Reap the oldest pending ticket.
                                _ => {
                                    if let Some((t, value)) = pending.pop_front() {
                                        assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                                    }
                                }
                            }
                        }
                        while let Some((t, value)) = pending.pop_front() {
                            assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                        }
                        seq
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let rs = server.ring_stats();
        // The fused and pooled service paths partition the total: calls
        // run inline by requesters plus calls serviced by responder
        // threads account for every stamped submission exactly once.
        prop_assert_eq!(rs.totals.calls, total);
        let serviced: u64 = rs.shards.iter().map(|s| s.serviced).sum();
        prop_assert_eq!(rs.totals.fused_runs + serviced, total);
        // Nothing left in flight after every pending set drained.
        prop_assert_eq!(rs.shards.iter().map(|s| s.occupancy).sum::<usize>(), 0);
        server.shutdown();
    }
}

/// A saturated neighbor shard cannot indefinitely delay a home-shard
/// call: responders drain their own shard before probing siblings, so
/// shard 0's calls complete promptly while shard 1 holds a standing
/// backlog of slow calls.
#[test]
fn busy_neighbor_shard_does_not_starve_home_calls() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut table: CallTable<u64, u64> = CallTable::new();
    let fast = table.register(|x| x + 1);
    let slow = table.register(|x| {
        std::thread::sleep(std::time::Duration::from_micros(50));
        x
    });
    let config = HotCallConfig {
        idle_polls_before_sleep: Some(256),
        ..HotCallConfig::patient()
    };
    let server = RingServer::spawn_sharded(table, 8, ResponderPolicy::fixed(2), config).unwrap();

    let home = server.requester_on(0).unwrap();
    let neighbor = server.requester_on(1).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Two flooders keep shard 1 saturated with slow calls for the
        // whole test.
        for _ in 0..2 {
            let (neighbor, stop) = (&neighbor, &stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = neighbor.call(slow, i);
                    i += 1;
                }
            });
        }
        // Home-shard calls must all complete despite the neighbor's
        // standing backlog. `call` times out (to `ResponderTimeout`)
        // rather than blocking forever, so an `unwrap` here IS the
        // starvation check.
        let start = std::time::Instant::now();
        for i in 0..200u64 {
            assert_eq!(home.call(fast, i).unwrap(), i + 1);
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "home-shard calls took {elapsed:?} behind a busy neighbor"
        );
    });
    let rs = server.ring_stats();
    assert!(rs.totals.calls >= 200);
    server.shutdown();
}
