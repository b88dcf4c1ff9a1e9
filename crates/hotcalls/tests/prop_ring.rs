//! Property tests of the lock-free ring data plane: exactly-once
//! delivery and untorn payload handoff through the `UnsafeCell` slots,
//! over arbitrary ring capacities and interleavings of the ring's one
//! requester with its one responder — including shutdown racing in-flight
//! submissions, a pipelined requester behind the in-order responder, and
//! calls flipping between the fused and the ring path.

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

/// A table whose one handler checks the seal, counts the delivery in
/// `delivered` and returns `value * 3`.
fn seal_table(delivered: &Arc<AtomicU64>) -> (CallTable<(u64, u64), u64>, u32) {
    let mut table: CallTable<(u64, u64), u64> = CallTable::new();
    let delivered = Arc::clone(delivered);
    let id = table.register(move |(value, check)| {
        assert_eq!(check, value ^ MAGIC, "torn payload through the slot");
        delivered.fetch_add(1, Ordering::Relaxed);
        value.wrapping_mul(3)
    });
    (table, id)
}

proptest! {
    // Every case spawns a responder thread; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary capacities: every submitted payload arrives exactly
    /// once, untorn, and every response is its own call's.
    #[test]
    fn pool_delivers_exactly_once_untorn(
        capacity in 1usize..8,
        calls in 1usize..240,
    ) {
        let delivered = Arc::new(AtomicU64::new(0));
        let (table, seal_check) = seal_table(&delivered);
        let server = RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();
        let r = server.requester();
        for value in 0..calls as u64 {
            let got = r.call(seal_check, sealed(value)).unwrap();
            // The response must belong to OUR submission.
            prop_assert_eq!(got, value.wrapping_mul(3));
        }
        prop_assert_eq!(delivered.load(Ordering::Relaxed), calls as u64);
        prop_assert_eq!(server.stats().calls, calls as u64);
        server.shutdown();
    }

    /// Shutdown racing in-flight submissions: every call either completes
    /// with its own untorn result or fails cleanly with a shutdown/timeout
    /// error — never a wrong value, a tear, or a hang.
    #[test]
    fn shutdown_races_inflight_submissions_cleanly(
        capacity in 1usize..6,
        busy_calls in 1usize..40,
    ) {
        let delivered = Arc::new(AtomicU64::new(0));
        let (table, seal_check) = seal_table(&delivered);
        let server = RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();
        let r = server.requester();
        let caller = std::thread::spawn(move || {
            // Call until the server dies under us.
            for value in 0..u64::MAX {
                match r.call(seal_check, sealed(value)) {
                    Ok(got) => assert_eq!(got, value.wrapping_mul(3)),
                    Err(HotCallError::ResponderGone)
                    | Err(HotCallError::ResponderTimeout { .. }) => return value,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            unreachable!("the server outlived every value")
        });
        // Let the requester get some traffic through, then pull the plug
        // while it is mid-stream.
        while delivered.load(Ordering::Relaxed) < busy_calls as u64 {
            std::thread::yield_now();
        }
        server.shutdown();
        // Every call reported done was delivered once; at most the call in
        // flight at shutdown was delivered and not reported.
        let completed = caller.join().unwrap();
        let delivered = delivered.load(Ordering::Relaxed);
        prop_assert!((completed..=completed + 1).contains(&delivered));
    }

    /// The one responder services calls in submission order: for any
    /// capacity and any window up to the ring's capacity, the handler's
    /// log of the values it serviced, in the order it serviced them,
    /// equals every submitted value sorted by its ticket's sequence
    /// number. Each `wait_any` must return the requester's oldest ticket
    /// with that ticket's own response. A window as deep as the ring makes
    /// every submission reuse the slot of the oldest ticket, so a younger
    /// pick would leave the next `submit` lapping onto a ticket the
    /// requester still holds.
    #[test]
    fn responder_services_in_submission_order(
        capacity in 2usize..9,
        window_pick in 0usize..8,
        calls in 1usize..240,
    ) {
        let window = 1 + window_pick % capacity;
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
            ..HotCallConfig::patient()
        };
        let server = RingServer::spawn_pool(table, capacity, 1, config).unwrap();
        let r = server.requester();
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut values: HashMap<u64, u64> = HashMap::new();
        let mut submitted = Vec::with_capacity(calls);
        let reap = |tickets: &mut Vec<Ticket>, values: &mut HashMap<u64, u64>| {
            let oldest = *values.keys().min().expect("a ticket in flight");
            let (seq, resp) = r.wait_any(tickets).unwrap();
            assert_eq!(seq, oldest, "wait_any skipped the oldest ticket");
            let value = values.remove(&seq).expect("reaped an unknown ticket");
            assert_eq!(resp, value ^ MAGIC, "response from another call");
        };
        for value in 0..calls as u64 {
            if tickets.len() == window {
                reap(&mut tickets, &mut values);
            }
            let t = r.submit(id, value).unwrap();
            values.insert(t.seq(), value);
            submitted.push((t.seq(), value));
            tickets.push(t);
        }
        while !tickets.is_empty() {
            reap(&mut tickets, &mut values);
        }
        submitted.sort_unstable_by_key(|&(seq, _)| seq);
        let in_seq_order: Vec<u64> = submitted.into_iter().map(|(_, value)| value).collect();
        prop_assert_eq!(&*serviced.lock().unwrap(), &in_seq_order);
        let rs = server.ring_stats();
        prop_assert_eq!(rs.totals.calls, calls as u64);
        prop_assert_eq!(rs.occupancy, 0);
        server.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fused↔pooled flips mid-stream: the requester alternates
    /// synchronous calls (which run inline whenever the responder dozes)
    /// with pipelined submits (which always ride the ring), while a short
    /// doze fuse keeps parking the responder between bursts. The plane
    /// therefore flips service path many times per case, at interleavings
    /// chosen by the ops vector. No flip may lose, duplicate, or
    /// mis-deliver a ticket: every response carries its own submission's
    /// stamp, and the fused + pooled service counts partition the total
    /// exactly.
    #[test]
    fn fused_and_pooled_paths_interleave_without_losing_tickets(
        capacity in 2usize..8,
        ops in prop::collection::vec(any::<u8>(), 16..96),
    ) {
        let config = HotCallConfig {
            // Short doze fuse: the responder falls quiescent inside the
            // natural gaps of the interleaving, making the fused gate
            // open and close repeatedly within one case.
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let mut table: CallTable<u64, u64> = CallTable::new();
        let id = table.register(|x| x ^ MAGIC);
        let server = RingServer::spawn_pool(table, capacity, 1, config).unwrap();
        let r = server.requester();
        let mut pending: VecDeque<(Ticket, u64)> = VecDeque::new();
        let mut seq = 0u64;
        // The ring sequences taken so far are at most `ring_seq`: a submit
        // takes one, a synchronous call one at most (none inline).
        let mut ring_seq = 0u64;
        for &op in &ops {
            // The lap rule: the next call may take ring sequence
            // `ring_seq`, so first redeem a ticket a full lap behind it.
            while let Some((t, value)) =
                pending.pop_front_if(|(t, _)| t.seq() + capacity as u64 <= ring_seq)
            {
                prop_assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
            }
            match op % 3 {
                // A synchronous call: the one path the fused gate may run
                // inline.
                0 => {
                    prop_assert_eq!(r.call(id, seq).unwrap(), seq ^ MAGIC);
                    (seq, ring_seq) = (seq + 1, ring_seq + 1);
                }
                // A pipelined submit: never fuses, so this keeps the
                // pooled path and the ring occupancy alive.
                1 => {
                    let t = r.submit(id, seq).unwrap();
                    ring_seq = t.seq() + 1;
                    pending.push_back((t, seq));
                    seq += 1;
                }
                // Reap the oldest pending ticket.
                _ => {
                    if let Some((t, value)) = pending.pop_front() {
                        prop_assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
                    }
                }
            }
        }
        while let Some((t, value)) = pending.pop_front() {
            prop_assert_eq!(r.wait(t).unwrap(), value ^ MAGIC);
        }

        let rs = server.ring_stats();
        // The fused and ring service paths partition the total: calls run
        // inline by the requester plus calls the responder serviced (one
        // busy poll each) account for every stamped submission exactly
        // once.
        prop_assert_eq!(rs.totals.calls, seq);
        prop_assert_eq!(rs.totals.fused_runs + rs.totals.busy_polls, seq);
        // Nothing left in flight after the pending set drained.
        prop_assert_eq!(rs.occupancy, 0);
        server.shutdown();
    }
}
