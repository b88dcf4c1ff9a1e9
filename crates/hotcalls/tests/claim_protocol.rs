//! The ring claim and reap protocol under the conditions it is built for:
//! a requester publishes a slot `EMPTY → SUBMITTED` with no `CLAIMED` mark
//! in between, `wait_any` tests the oldest ticket before it scans the
//! rest, and each handle records reap latency into a cell of its own.
//!
//! Every test runs on both shapes of the plane (a pool on one ring, and
//! one shard per responder), which are one server type and one protocol.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hotcalls::rt::{CallTable, RingRequester, RingServer, Ticket};
use hotcalls::{HotCallConfig, ResponderPolicy, TELEMETRY_ENABLED};

/// A handler argument that parks its responder until the gate is opened.
/// `entered` tells the test the responder is inside, which is what forces
/// the interleavings below (no sleeps).
#[derive(Default)]
struct Gate {
    entered: AtomicBool,
    open: AtomicBool,
}

impl Gate {
    fn hold(&self) {
        self.entered.store(true, Ordering::SeqCst);
        while !self.open.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    fn await_entered(&self) {
        while !self.entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    fn open(&self) {
        self.open.store(true, Ordering::SeqCst);
    }
}

/// Opens the gates when the test unwinds, so a failed assertion reports
/// itself instead of hanging the server's join on a parked responder.
struct OpenOnDrop([Arc<Gate>; 2]);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.iter().for_each(|g| g.open());
    }
}

const GATE_A: u64 = 1_000_001;
const GATE_B: u64 = 1_000_002;

/// `x -> x + 1`, except that `GATE_A` / `GATE_B` first park on their gate.
fn gated_table(gates: [Arc<Gate>; 2]) -> (CallTable<u64, u64>, u32) {
    let mut table = CallTable::new();
    let inc = table.register(move |x| {
        match x {
            GATE_A => gates[0].hold(),
            GATE_B => gates[1].hold(),
            _ => {}
        }
        x + 1
    });
    (table, inc)
}

type Server = RingServer<u64, u64>;

/// A plane shape: builds the one server type with `responders` responder
/// threads over rings of `capacity` slots.
type Plane = fn(CallTable<u64, u64>, usize, usize) -> Server;

/// The shapes every scenario below runs on: a pool on one ring, and one
/// shard per responder. All traffic is pinned to shard 0 ([`pinned`]), so
/// on `SHARDED` the other responders reach the calls by stealing.
const POOL: Plane = |table, responders, capacity| {
    RingServer::spawn_pool(table, capacity, responders, HotCallConfig::patient()).unwrap()
};
const SHARDED: Plane = |table, responders, capacity| {
    let policy = ResponderPolicy::fixed(responders);
    RingServer::spawn_sharded(table, capacity, policy, HotCallConfig::patient()).unwrap()
};

/// A requester handle for traffic on one ring of the plane.
fn pinned(server: &Server) -> RingRequester<u64, u64> {
    server.requester_on(0).unwrap()
}

/// Four requester handles hammer a ring of `capacity` slots drained by two
/// responders. A lap admitted onto a claimed-but-unpublished slot, or a
/// slot claimed twice, shows up as a duplicated sequence number, a wrong
/// value, or a call that never completes. So does the responder-side twin:
/// a responder that takes a submission its sibling owns but has not moved
/// to `SERVICING` yet for the next lap's (every slot is its own next lap
/// at capacity 1) services it twice and pushes `tail` past `head`, and the
/// ring reads as full for good.
fn tiny_ring_stress(plane: Plane, capacity: usize) {
    const REQUESTERS: u64 = 4;
    const CALLS: u64 = 3_000;
    let (table, inc) = gated_table(Default::default());
    let server = plane(table, 2, capacity);
    let seqs: Vec<Vec<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..REQUESTERS)
            .map(|who| {
                let r = pinned(&server);
                s.spawn(move || {
                    (0..CALLS)
                        .map(|i| {
                            // One ticket at a time: a requester holding an
                            // un-redeemed ticket must not submit on a ring
                            // this small (it could lap onto itself).
                            let x = who * CALLS + i;
                            let ticket = r.submit(inc, x).unwrap();
                            let seq = ticket.seq();
                            assert_eq!(r.wait(ticket).unwrap(), x + 1, "seq {seq}");
                            seq
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let total = REQUESTERS * CALLS;
    let distinct: BTreeSet<u64> = seqs.iter().flatten().copied().collect();
    assert_eq!(
        distinct.len() as u64,
        total,
        "a sequence was handed out twice"
    );
    assert_eq!(
        distinct.last().copied(),
        Some(total - 1),
        "a sequence was skipped"
    );
    assert_eq!(server.stats().calls, total);
}

#[test]
fn ring_four_requesters_on_two_slots_never_double_claim() {
    tiny_ring_stress(POOL, 2);
}

#[test]
fn sharded_four_requesters_on_two_slots_never_double_claim() {
    tiny_ring_stress(SHARDED, 2);
}

#[test]
fn ring_two_responders_on_one_slot_never_double_service() {
    tiny_ring_stress(POOL, 1);
}

#[test]
fn sharded_two_responders_on_one_slot_never_double_service() {
    tiny_ring_stress(SHARDED, 1);
}

/// `wait_any` must hand back a younger completion while the oldest ticket
/// is stuck (the fallback scan), and the oldest completed one whenever it
/// is done (the first probe) — in a fully forced order:
///
/// ```text
/// t0 = GATE_A   parks responder X
/// t1            serviced by Y            wait_any -> t1   (t0 not done)
/// t2 = GATE_B   parks Y
/// open A        X finishes t0
/// t3, t4        only X is free: it completes t0, t3, t4 in that order
/// wait(t4)      => t0 and t3 are visibly DONE
///                                        wait_any -> t0   (oldest, done)
///                                        wait_any -> t3   (t2 not done)
/// open B                                 wait_any -> t2
/// ```
fn oldest_first_with_fallback(plane: Plane) {
    let gates: [Arc<Gate>; 2] = Default::default();
    let (table, inc) = gated_table(gates.clone());
    let server = plane(table, 2, 8);
    // Declared after the server, so dropped (opened) before its join.
    let guard = OpenOnDrop(gates.clone());
    let r = pinned(&server);
    let mut tickets: Vec<Ticket> = Vec::new();
    let reap = |tickets: &mut Vec<Ticket>| r.wait_any(tickets).unwrap();

    tickets.push(r.submit(inc, GATE_A).unwrap());
    gates[0].await_entered();
    tickets.push(r.submit(inc, 10).unwrap());
    let (t0, t1) = (tickets[0].seq(), tickets[1].seq());
    assert_eq!(
        reap(&mut tickets),
        (t1, 11),
        "younger completion not returned"
    );

    tickets.push(r.submit(inc, GATE_B).unwrap());
    gates[1].await_entered();
    gates[0].open();
    tickets.push(r.submit(inc, 30).unwrap());
    let (t2, t3) = (tickets[1].seq(), tickets[2].seq());
    let t4 = r.submit(inc, 40).unwrap();
    assert_eq!(r.wait(t4).unwrap(), 41);
    assert!(t0 < t2 && t2 < t3);
    assert_eq!(reap(&mut tickets), (t0, GATE_A + 1), "oldest-first broken");
    assert_eq!(reap(&mut tickets), (t3, 31), "fallback scan broken");

    gates[1].open();
    assert_eq!(reap(&mut tickets), (t2, GATE_B + 1));
    assert!(tickets.is_empty());
    assert_eq!(server.stats().calls, 5);
    drop(guard);
}

#[test]
fn ring_wait_any_prefers_oldest_and_falls_back() {
    oldest_first_with_fallback(POOL);
}

#[test]
fn sharded_wait_any_prefers_oldest_and_falls_back() {
    oldest_first_with_fallback(SHARDED);
}

/// A pipeline whose window equals the ring's capacity: every submission
/// laps onto the slot of the oldest ticket in flight, so `wait_any` must
/// hand that one back whenever it is DONE. Behind one in-order responder
/// the oldest can complete between the first probe and the fallback scan;
/// a pick that then returns a younger completion leaves the next `submit`
/// spinning on a DONE slot only this thread can redeem, until it times
/// out.
fn window_equal_to_capacity(plane: Plane, responders: usize, window: usize) {
    let (table, inc) = gated_table(Default::default());
    let server = plane(table, responders, window);
    let r = pinned(&server);
    let mut tickets: Vec<Ticket> = Vec::new();
    for x in 0..100_000u64 {
        if tickets.len() == window {
            let (seq, resp) = r.wait_any(&mut tickets).unwrap();
            assert_eq!(resp, seq + 1);
        }
        // The value is the sequence the call is about to get.
        let ticket = r.submit(inc, x).expect("lapped onto an un-redeemed slot");
        assert_eq!(ticket.seq(), x);
        tickets.push(ticket);
    }
}

#[test]
fn ring_window_equal_to_capacity_never_wedges() {
    window_equal_to_capacity(POOL, 1, 2);
}

#[test]
fn sharded_window_equal_to_capacity_never_wedges() {
    window_equal_to_capacity(SHARDED, 1, 2);
}

/// The smallest plane that still has a race in it: one slot, a window of
/// one, two responders contending for every submission over 100k wraps.
#[test]
fn one_slot_two_responders_survive_100k_wraps_at_window_one() {
    window_equal_to_capacity(POOL, 2, 1);
}

/// The reap histogram is one single-writer cell per requester handle.
/// Threads that each redeem through their own clone get an exact count.
/// Threads sharing one handle by reference (it is `Sync`) race on its cell:
/// no call is lost or miscounted, but reap *samples* may be — the count
/// can fall short of the calls made, never exceed them.
fn reap_samples_are_per_handle(plane: Plane) {
    const THREADS: u64 = 2;
    const CALLS: u64 = 5_000;
    let (table, inc) = gated_table(Default::default());
    let server = &plane(table, 2, 8);
    let drive = |r: &RingRequester<u64, u64>| {
        (0..CALLS).for_each(|x| assert_eq!(r.wait(r.submit(inc, x).unwrap()).unwrap(), x + 1));
    };
    let reaps = || server.telemetry("t").reap.count();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let own = pinned(server);
            s.spawn(move || drive(&own));
        }
    });
    let exact = THREADS * CALLS;
    assert_eq!(server.stats().calls, exact);
    if TELEMETRY_ENABLED {
        assert_eq!(reaps(), exact, "own handles must not lose samples");
    }

    let shared = pinned(server);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| drive(&shared));
        }
    });
    assert_eq!(
        server.stats().calls,
        2 * exact,
        "a shared handle lost calls"
    );
    if TELEMETRY_ENABLED {
        let sampled = reaps() - exact;
        assert!((1..=exact).contains(&sampled), "{sampled} of {exact}");
    }
}

#[test]
fn ring_reap_samples_are_per_handle() {
    reap_samples_are_per_handle(POOL);
}

#[test]
fn sharded_reap_samples_are_per_handle() {
    reap_samples_are_per_handle(SHARDED);
}
