//! The ring claim and reap protocol under the conditions it is built for:
//! a requester publishes a slot `EMPTY → SUBMITTED` with no `CLAIMED` mark
//! in between, `wait_any` hands back the oldest ticket of its set, and
//! each handle records reap latency into a cell of its own.
//!
//! The scenarios run several requesters against the ring's one responder,
//! so the requesters contend on the one head CAS.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hotcalls::rt::{CallTable, RingRequester, RingServer, Ticket};
use hotcalls::{HotCallConfig, TELEMETRY_ENABLED};

/// A handler argument that parks the responder until the gate is opened.
/// `entered` tells the test the responder is inside, which is what forces
/// the interleavings below.
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

/// Opens the gate when the test unwinds, so a failed assertion reports
/// itself instead of hanging the server's join on a parked responder.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

const GATE: u64 = 1_000_001;

/// `x -> x + 1`, except that `GATE` first parks on the gate.
fn gated_table(gate: Arc<Gate>) -> (CallTable<u64, u64>, u32) {
    let mut table = CallTable::new();
    let inc = table.register(move |x| {
        if x == GATE {
            gate.hold();
        }
        x + 1
    });
    (table, inc)
}

type Server = RingServer<u64, u64>;

/// The one responder over a ring of `capacity` slots.
fn plane(table: CallTable<u64, u64>, capacity: usize) -> Server {
    RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap()
}

/// Four requester handles hammer a ring of `capacity` slots. A lap
/// admitted onto a claimed-but-unpublished slot, or a slot claimed twice,
/// shows up as a duplicated sequence number, a wrong value, or a call that
/// never completes.
fn tiny_ring_stress(capacity: usize) {
    const REQUESTERS: u64 = 4;
    const CALLS: u64 = 3_000;
    let (table, inc) = gated_table(Default::default());
    let server = plane(table, capacity);
    let seqs: Vec<Vec<u64>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..REQUESTERS)
            .map(|who| {
                let r = server.requester();
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
    tiny_ring_stress(2);
}

/// A gated oldest ticket holds `wait_any` until the gate opens, then the
/// completions come back in submission order:
///
/// ```text
/// t0 = GATE     parks the responder; t1, t2 queue behind it
/// reaper        wait_any({t0, t1, t2}) -> blocks: t0 is not done
/// open          the responder completes t0, t1, t2 in that order
///                                        wait_any -> t0, t1, t2
/// ```
#[test]
fn ring_wait_any_holds_for_a_gated_oldest_then_returns_in_order() {
    let gate = Arc::new(Gate::default());
    let (table, inc) = gated_table(Arc::clone(&gate));
    let server = plane(table, 8);
    // Declared after the server, so dropped (opened) before its join.
    let guard = OpenOnDrop(Arc::clone(&gate));
    let r = server.requester();

    let t0 = r.submit(inc, GATE).unwrap();
    gate.await_entered();
    let mut tickets = vec![r.submit(inc, 10).unwrap(), r.submit(inc, 20).unwrap()];
    let seqs = [t0.seq(), tickets[0].seq(), tickets[1].seq()];
    // The oldest goes last: the pick is by sequence, not set position.
    tickets.push(t0);

    let returned = AtomicBool::new(false);
    let reaped = std::thread::scope(|s| {
        let reaper = s.spawn(|| {
            let first = r.wait_any(&mut tickets).unwrap();
            returned.store(true, Ordering::SeqCst);
            first
        });
        // Nothing behind the gated call can complete, so the reaper has
        // nothing to return while the gate is shut.
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !returned.load(Ordering::SeqCst),
            "wait_any skipped the oldest"
        );
        gate.open();
        reaper.join().unwrap()
    });
    assert_eq!(reaped, (seqs[0], GATE + 1));
    assert_eq!(r.wait_any(&mut tickets).unwrap(), (seqs[1], 11));
    assert_eq!(r.wait_any(&mut tickets).unwrap(), (seqs[2], 21));
    assert!(tickets.is_empty());
    assert_eq!(server.stats().calls, 3);
    drop(guard);
}

/// A pipeline whose window equals the ring's capacity: every submission
/// laps onto the slot of the oldest ticket in flight, so `wait_any` must
/// hand that one back. A pick that returned a younger completion would
/// leave the next `submit` spinning on a DONE slot only this thread can
/// redeem, until it times out.
fn window_equal_to_capacity(window: usize) {
    let (table, inc) = gated_table(Default::default());
    let server = plane(table, window);
    let r = server.requester();
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
    window_equal_to_capacity(2);
}

/// The reap histogram is one single-writer cell per requester handle.
/// Threads that each redeem through their own clone get an exact count.
/// Threads sharing one handle by reference (it is `Sync`) race on its cell:
/// no call is lost or miscounted, but reap *samples* may be — the count
/// can fall short of the calls made, never exceed them.
#[test]
fn ring_reap_samples_are_per_handle() {
    const THREADS: u64 = 2;
    const CALLS: u64 = 5_000;
    let (table, inc) = gated_table(Default::default());
    let server = &plane(table, 8);
    let drive = |r: &RingRequester<u64, u64>| {
        (0..CALLS).for_each(|x| assert_eq!(r.wait(r.submit(inc, x).unwrap()).unwrap(), x + 1));
    };
    let reaps = || server.telemetry("t").reap.count();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let own = server.requester();
            s.spawn(move || drive(&own));
        }
    });
    let exact = THREADS * CALLS;
    assert_eq!(server.stats().calls, exact);
    if TELEMETRY_ENABLED {
        assert_eq!(reaps(), exact, "own handles must not lose samples");
    }

    let shared = server.requester();
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
