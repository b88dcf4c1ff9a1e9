//! Property tests of the lock-free ring data plane: exactly-once
//! delivery and untorn payload handoff through the `UnsafeCell` slots,
//! over arbitrary ring capacities and thread interleavings — including
//! shutdown racing in-flight submissions, pipelined requesters sharing the
//! one in-order responder, and calls flipping between the fused and the
//! ring path.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use hotcalls::rt::{CallTable, RingServer, Ticket};
use hotcalls::{HotCallConfig, HotCallError};

/// A payload with internal redundancy: `check` must always equal
/// `value ^ MAGIC`. A torn read or write through the slot's payload cells
/// (one half from one call, one from another) breaks the pairing, which
/// the handler verifies on every delivery.
const MAGIC: u64 = 0x9e37_79b9_7f4a_7c15;

fn sealed(value: u64) -> (u64, u64) {
    (value, value ^ MAGIC)
}

proptest! {
    // Every case spawns a thread pool; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary (capacity × requesters) shapes: every submitted payload
    /// arrives exactly once, untorn, and every response returns to the
    /// requester that submitted it.
    #[test]
    fn pool_delivers_exactly_once_untorn(
        capacity in 1usize..8,
        n_requesters in 1usize..5,
        per_thread in 1usize..60,
    ) {
        let delivered = Arc::new(AtomicU64::new(0));
        let mut table: CallTable<(u64, u64), u64> = CallTable::new();
        let seal_check = {
            let delivered = Arc::clone(&delivered);
            table.register(move |(value, check)| {
                assert_eq!(check, value ^ MAGIC, "torn payload through the slot");
                delivered.fetch_add(1, Ordering::Relaxed);
                value.wrapping_mul(3)
            })
        };
        let server = RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();

        crossbeam::thread::scope(|s| {
            for th in 0..n_requesters as u64 {
                let r = server.requester();
                s.spawn(move |_| {
                    for i in 0..per_thread as u64 {
                        let value = th * 1_000_000 + i;
                        let got = r.call(seal_check, sealed(value)).unwrap();
                        // The response must belong to OUR submission.
                        assert_eq!(got, value.wrapping_mul(3));
                    }
                });
            }
        })
        .unwrap();

        let expected = (n_requesters * per_thread) as u64;
        prop_assert_eq!(delivered.load(Ordering::Relaxed), expected);
        prop_assert_eq!(server.stats().calls, expected);
        server.shutdown();
    }

    /// Shutdown racing in-flight submissions: every call either completes
    /// with its own untorn result or fails cleanly with a shutdown/timeout
    /// error — never a wrong value, a tear, or a hang.
    #[test]
    fn shutdown_races_inflight_submissions_cleanly(
        capacity in 1usize..6,
        n_requesters in 1usize..4,
        busy_calls in 1usize..40,
    ) {
        let mut table: CallTable<(u64, u64), u64> = CallTable::new();
        let seal_check = table.register(|(value, check): (u64, u64)| {
            assert_eq!(check, value ^ MAGIC, "torn payload through the slot");
            value.wrapping_mul(3)
        });
        let server = RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();

        crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for th in 0..n_requesters as u64 {
                let r = server.requester();
                handles.push(s.spawn(move |_| {
                    let mut completed = 0u64;
                    // Submit until the server dies under us.
                    for i in 0..10_000u64 {
                        let value = th * 1_000_000 + i;
                        match r.call(seal_check, sealed(value)) {
                            Ok(got) => {
                                assert_eq!(got, value.wrapping_mul(3));
                                completed += 1;
                            }
                            Err(HotCallError::ResponderGone)
                            | Err(HotCallError::ResponderTimeout { .. }) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    completed
                }));
            }
            // Let the requesters get some traffic in flight, then pull the
            // plug while they are mid-stream.
            let warm = server.requester();
            for i in 0..busy_calls as u64 {
                warm.call(seal_check, sealed(900_000_000 + i)).unwrap();
            }
            server.shutdown();
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            // Sanity: the counter is meaningful (not everything failed
            // instantly in every interleaving is fine — zero is legal).
            let _ = total;
        })
        .unwrap();
    }

    /// The one responder services calls in submission order: for any
    /// capacity, per-requester window up to `capacity - 1` and one to
    /// three pipelined requesters, the handler's log of the values it
    /// serviced, in the order it serviced them, equals every submitted
    /// value sorted by its ticket's sequence number. Each `wait_any`
    /// response must still be its own ticket's. Requesters sharing a
    /// ring can lap onto each other's unredeemed tickets, which no window
    /// local to one of them prevents, so a short retry budget turns such
    /// a lap into a `ResponderTimeout`; the requester then redeems its
    /// oldest and submits again.
    #[test]
    fn responder_services_in_submission_order(
        capacity in 2usize..9,
        window_pick in 0usize..8,
        n_requesters in 1usize..4,
        calls in 1usize..120,
    ) {
        let window = 1 + window_pick % (capacity - 1);
        let serviced = Arc::new(Mutex::new(Vec::new()));
        let mut table: CallTable<u64, u64> = CallTable::new();
        let id = {
            let serviced = Arc::clone(&serviced);
            table.register(move |x| {
                serviced.lock().unwrap().push(x);
                x ^ MAGIC
            })
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: None,
            timeout_retries: 5_000,
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_pool(table, capacity, 1, config).unwrap();
        let mut submitted: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_requesters as u64)
                .map(|ri| {
                    let r = server.requester();
                    s.spawn(move || {
                        let mut tickets: Vec<Ticket> = Vec::new();
                        let mut values: HashMap<u64, u64> = HashMap::new();
                        let mut submitted = Vec::with_capacity(calls);
                        let reap = |tickets: &mut Vec<Ticket>, values: &mut HashMap<u64, u64>| {
                            let (seq, resp) = r.wait_any(tickets).unwrap();
                            let value = values.remove(&seq).expect("reaped an unknown ticket");
                            assert_eq!(resp, value ^ MAGIC, "response from another call");
                        };
                        let mut i = 0;
                        while i < calls {
                            if tickets.len() == window {
                                reap(&mut tickets, &mut values);
                            }
                            let value = (ri << 48) | i as u64;
                            match r.submit(id, value) {
                                Ok(t) => {
                                    values.insert(t.seq(), value);
                                    submitted.push((t.seq(), value));
                                    tickets.push(t);
                                    i += 1;
                                }
                                Err(HotCallError::ResponderTimeout { .. }) if !tickets.is_empty() => {
                                    reap(&mut tickets, &mut values);
                                }
                                Err(HotCallError::ResponderTimeout { .. }) => {}
                                Err(e) => panic!("submit failed: {e:?}"),
                            }
                        }
                        while !tickets.is_empty() {
                            reap(&mut tickets, &mut values);
                        }
                        submitted
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        submitted.sort_unstable_by_key(|&(seq, _)| seq);
        let in_seq_order: Vec<u64> = submitted.into_iter().map(|(_, value)| value).collect();
        prop_assert_eq!(&*serviced.lock().unwrap(), &in_seq_order);
        let rs = server.ring_stats();
        prop_assert_eq!(rs.totals.calls, (n_requesters * calls) as u64);
        prop_assert_eq!(rs.occupancy, 0);
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fused↔pooled flips mid-stream: requesters alternate synchronous
    /// calls (which run inline whenever the responder dozes) with
    /// pipelined submits (which always ride the ring), while a short doze
    /// fuse keeps parking the responder between bursts. The plane therefore flips service path many times per
    /// case, at interleavings chosen by the ops vector. No flip may
    /// lose, duplicate, or mis-deliver a ticket: every response carries
    /// its own submission's stamp, and the fused + pooled service counts
    /// partition the total exactly.
    #[test]
    fn fused_and_pooled_paths_interleave_without_losing_tickets(
        capacity in 2usize..8,
        n_requesters in 1usize..4,
        ops in prop::collection::vec(any::<u8>(), 16..96),
    ) {
        let config = HotCallConfig {
            // Short doze fuse: the responder falls quiescent inside the
            // natural gaps of the interleaving, making the fused gate
            // open and close repeatedly within one case.
            idle_polls_before_sleep: Some(64),
            timeout_retries: 5_000,
            ..HotCallConfig::patient()
        };
        let mut table: CallTable<u64, u64> = CallTable::new();
        let id = table.register(|x| x ^ MAGIC);
        let server = RingServer::spawn_pool(table, capacity, 1, config).unwrap();
        let requesters: Vec<_> = (0..n_requesters).map(|_| server.requester()).collect();

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
                                // fused gate may run inline. Needs a free
                                // slot of its own, so keep one in
                                // reserve below the pipeline depth.
                                0 if pending.len() + 1 < depth => {
                                    let value = ((ri as u64) << 48) | seq;
                                    match r.call(id, value) {
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
                                // A pipelined submit: never fuses, so
                                // this keeps the pooled path and the
                                // ring occupancy alive.
                                1 if pending.len() < depth => {
                                    let value = ((ri as u64) << 48) | seq;
                                    match r.submit(id, value) {
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
        // The fused and ring service paths partition the total: calls run
        // inline by requesters plus calls the responder serviced (one busy
        // poll each) account for every stamped submission exactly once.
        prop_assert_eq!(rs.totals.calls, total);
        prop_assert_eq!(rs.totals.fused_runs + rs.totals.busy_polls, total);
        // Nothing left in flight after every pending set drained.
        prop_assert_eq!(rs.occupancy, 0);
        server.shutdown();
    }
}
