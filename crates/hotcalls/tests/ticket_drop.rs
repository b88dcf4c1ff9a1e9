//! Regression: a dropped, never-redeemed ticket must not wedge its slot.
//!
//! Before the abandonment protocol, dropping a `Ticket` leaked its ring
//! slot: the responder marked the call `DONE`, nobody ever redeemed it
//! back to `EMPTY`, and the next submission to wrap onto that position
//! spun forever. The drop path now marks the slot's sequence on
//! the plane's abandon board and the next claimer (or the redeeming sweep)
//! reaps it. Each test here drops *more tickets than the plane has slots*
//! — under the old behaviour every one of them deadlocks — and then proves
//! the plane still serves sync traffic at full capacity.

use hotcalls::rt::{CallTable, RingServer};
use hotcalls::HotCallConfig;

/// Spin-only config so a test failure is a fast spin, not a parked doze.
fn spin_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        ..HotCallConfig::patient()
    }
}

fn table() -> (CallTable<u64, u64>, u32) {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x.wrapping_add(7));
    (table, id)
}

const CAPACITY: usize = 4;
/// Enough abandoned calls to wrap the ring several times over.
const DROPS: usize = 4 * CAPACITY;

/// Each test runs on one responder and on two contending for the slots.
const RESPONDERS: [usize; 2] = [1, 2];

#[test]
fn ring_dropped_ticket_releases_its_slot() {
    for responders in RESPONDERS {
        let (table, id) = table();
        let server = RingServer::spawn_pool(table, CAPACITY, responders, spin_config()).unwrap();
        let r = server.requester();
        for i in 0..DROPS as u64 {
            let ticket = r.submit(id, i).unwrap();
            drop(ticket); // never redeemed: the old leak, many times over
        }
        // The ring still serves: more sync calls than slots, all correct.
        for i in 0..(2 * CAPACITY) as u64 {
            assert_eq!(r.call(id, i).unwrap(), i.wrapping_add(7));
        }
        server.shutdown();
    }
}

#[test]
fn ring_interleaved_drops_and_waits_stay_correct() {
    for responders in RESPONDERS {
        let (table, id) = table();
        let server = RingServer::spawn_pool(table, CAPACITY, responders, spin_config()).unwrap();
        let r = server.requester();
        for round in 0..DROPS as u64 {
            let dropped = r.submit(id, 1_000 + round).unwrap();
            let kept = r.submit(id, round).unwrap();
            drop(dropped);
            // The kept ticket redeems its own response, not the orphan's.
            assert_eq!(r.wait(kept).unwrap(), round.wrapping_add(7));
        }
        server.shutdown();
    }
}
