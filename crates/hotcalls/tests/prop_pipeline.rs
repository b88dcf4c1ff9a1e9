//! Property tests of pipelined byte calls: arbitrary interleavings of
//! `submit` and `wait_any` keep the slab arena's free lists honest.
//!
//! Each in-flight call owns an arena buffer; reaping while submitting
//! recycles a buffer onto its free list while younger calls still hold
//! theirs, and the next submission of that size takes it back — the
//! traffic pattern that would surface a recycling bug (a buffer landing
//! on a free list while a call still holds it, and a later call reading
//! the previous payload through it). The handler and the reaper both
//! verify every byte of every payload, and the arena's `stale_recycles`
//! counter must stay zero: under single-caller pipelining every redeemed
//! slab is the caller's own arena's.

use std::collections::HashMap;

use proptest::prelude::*;

use hotcalls::rt::{ByteCallTable, ByteCaller, ByteRing, Ticket};
use hotcalls::HotCallConfig;

const MAGIC: u64 = 0x9e37_79b9_7f4a_7c15;

/// value → the fill byte its payload tail carries. A recycled slab that
/// leaked a previous payload shows the *old* value's fill, which never
/// matches the new header.
fn fill_byte(value: u64) -> u8 {
    (value as u8) ^ 0x5A
}

fn encode(value: u64, len: usize) -> Vec<u8> {
    let mut data = vec![fill_byte(value); len.max(8)];
    data[..8].copy_from_slice(&value.to_le_bytes());
    data
}

/// Checks a response against the submission it must have come from.
fn verify_response(resp: &[u8], value: u64, len: usize) {
    assert_eq!(resp.len(), len, "response length drifted");
    let mut header = [0u8; 8];
    header.copy_from_slice(&resp[..8]);
    assert_eq!(
        u64::from_le_bytes(header),
        value ^ MAGIC,
        "response header from another call"
    );
    for (i, &b) in resp[8..].iter().enumerate() {
        assert_eq!(b, fill_byte(value), "stale response byte at {}", 8 + i);
    }
}

/// Reaps the oldest in-flight call through `wait_any` and verifies it.
fn reap_any(
    caller: &mut ByteCaller,
    tickets: &mut Vec<Ticket>,
    pending: &mut HashMap<u64, (u64, usize)>,
) {
    let (seq, ()) = caller
        .wait_any_with(tickets, |seq, resp| {
            let (value, len) = pending[&seq];
            verify_response(resp, value, len);
        })
        .unwrap();
    pending.remove(&seq).expect("reaped an unknown ticket");
}

proptest! {
    // Every case spawns a responder thread; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary ring shapes and submit/reap interleavings, payload sizes
    /// straddling the inline/slab boundary: every reaped response matches
    /// its own submission byte for byte, and no recycle is ever stale.
    #[test]
    fn pipelined_reaps_recycle_without_stale_payloads(
        capacity in 2usize..8,
        ops in prop::collection::vec((0u8..2, 0usize..120), 1..160),
    ) {
        let mut table = ByteCallTable::new();
        let id = table.register(|n, buf| {
            // Verify the request payload arrived whole, then stamp the
            // response over it: header becomes value ^ MAGIC, the fill
            // tail stays (so the reaper can check it too).
            let mut header = [0u8; 8];
            header.copy_from_slice(&buf[..8]);
            let value = u64::from_le_bytes(header);
            for (i, &b) in buf[8..n].iter().enumerate() {
                assert_eq!(b, fill_byte(value), "stale request byte at {}", 8 + i);
            }
            buf[..8].copy_from_slice(&(value ^ MAGIC).to_le_bytes());
            n
        });
        let ring = ByteRing::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();

        // Un-redeemed DONE slots keep their ring slots occupied, so the
        // deepest safe pipeline is capacity - 1 in flight.
        let depth = capacity - 1;
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut pending: HashMap<u64, (u64, usize)> = HashMap::new();
        let mut next_value = 0u64;

        // action 0 submits, 1 reaps the oldest through `wait_any`.
        for (action, extra_len) in ops {
            if (action == 0 || tickets.is_empty()) && tickets.len() < depth {
                let len = 8 + extra_len;
                let data = encode(next_value, len);
                let ticket = caller.submit(id, &data, 0).unwrap();
                pending.insert(ticket.seq(), (next_value, len));
                tickets.push(ticket);
                next_value += 1;
            } else {
                reap_any(&mut caller, &mut tickets, &mut pending);
            }
        }
        while !tickets.is_empty() {
            reap_any(&mut caller, &mut tickets, &mut pending);
        }

        prop_assert!(pending.is_empty());
        let stats = caller.arena_stats();
        prop_assert_eq!(stats.stale_recycles, 0);
        // Every call acquired exactly one buffer — inline, recycled slab,
        // or fresh allocation.
        prop_assert_eq!(stats.acquires(), next_value);
        ring.shutdown();
    }
}
