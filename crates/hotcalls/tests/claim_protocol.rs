//! The ring claim and reap protocol under the conditions it is built for:
//! the ring's one requester publishes a slot `EMPTY → SUBMITTED` with no
//! `CLAIMED` mark in between, `wait_any` hands back the oldest ticket of
//! its set, and the requester handle is a lease that records every reap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hotcalls::rt::{
    ByteCallTable, ByteRing, CallTable, HotBuf, RingRequester, RingServer, SgCallTable, SgList,
    SgRing, SlabArena, DEFAULT_SEGMENT_BYTES,
};
use hotcalls::telemetry::TELEMETRY_ENABLED;
use hotcalls::HotCallConfig;

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

    let returned = &AtomicBool::new(false);
    // The handle moves into the reaper (it is `Send`, not `Sync`) and
    // comes back with the set.
    let (r, mut tickets, reaped) = std::thread::scope(|s| {
        let reaper = s.spawn(move || {
            let first = r.wait_any(&mut tickets).unwrap();
            returned.store(true, Ordering::SeqCst);
            (r, tickets, first)
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

/// A window as deep as the ring: every submission laps onto the slot of
/// the oldest call in flight, so the window must redeem that one first. A
/// reap that returned a younger completion would leave the next `submit`
/// spinning on a DONE slot only this thread can redeem, until it times
/// out.
#[test]
fn ring_window_equal_to_capacity_never_wedges() {
    let (table, inc) = gated_table(Default::default());
    let server = plane(table, 2);
    let mut window = server.requester().window(2).unwrap();
    // Responses come back in submission order: the k-th is k + 1.
    let mut expected = 1..;
    let mut check = |resp: u64| assert_eq!(Some(resp), expected.next());
    for x in 0..100_000u64 {
        let reaped = window
            .submit(inc, x)
            .expect("lapped onto an un-redeemed slot");
        reaped.into_iter().for_each(&mut check);
    }
    assert_eq!(window.drain(&mut check).unwrap(), 2);
    assert_eq!(expected.next(), Some(100_001));
}

/// `some_item` resolves for a type that is not `Sync` (one impl applies)
/// and is ambiguous for one that is (both apply: E0283), so naming it is a
/// compile-time `!Sync` assertion that fails only for that reason.
trait AmbiguousIfSync<Marker> {
    fn some_item() {}
}

impl<T: ?Sized> AmbiguousIfSync<()> for T {}

impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}

fn assert_send<T: Send>() {}

/// The requester handle may move to the thread that calls (`Send`) but
/// not be shared between threads (`!Sync`): the ring's head has one
/// writer. This file stops compiling if either bound changes.
#[test]
fn the_requester_handle_is_send_and_not_sync() {
    assert_send::<RingRequester<u64, u64>>();
    <RingRequester<u64, u64> as AmbiguousIfSync<_>>::some_item();
}

/// A second handle is refused while one is alive; see [`lease_row`].
#[test]
fn one_requester_per_ring_is_a_lease() {
    let config = HotCallConfig::patient();
    let (table, inc) = gated_table(Default::default());
    let typed = RingServer::spawn_pool(table, 4, 1, config).unwrap();
    lease_row("u64", typed, inc, |x| x, |x| x, RingServer::requester);

    // The byte and sg rows carry the `u64` in their first 8 bytes.
    let bump = |bytes: &mut [u8]| {
        let x = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        bytes[..8].copy_from_slice(&(x + 1).to_le_bytes());
        8
    };
    let mut table = ByteCallTable::new();
    let inc = table.register(move |_, buf| bump(buf));
    let bytes = ByteRing::spawn_pool(table, 4, 1, config).unwrap();
    let encode = |x: u64| SlabArena::new().acquire(&x.to_le_bytes(), 8);
    let decode = |buf: HotBuf| u64::from_le_bytes(buf.as_slice().try_into().unwrap());
    lease_row("bytes", bytes, inc, encode, decode, ByteRing::caller);

    let mut table = SgCallTable::new();
    let inc = table.register(move |sg| bump(sg.segments_mut()[0].raw_mut()));
    let sg = SgRing::spawn_pool(table, 4, 1, config).unwrap();
    let encode = |x: u64| SlabArena::new().acquire_sg(&x.to_le_bytes(), DEFAULT_SEGMENT_BYTES);
    let decode = |sg: SgList| {
        let mut out = Vec::new();
        sg.gather_into(&mut out);
        u64::from_le_bytes(out[..8].try_into().unwrap())
    };
    lease_row("sg", sg, inc, encode, decode, SgRing::caller);
}

/// One row of the lease table: `server` at payload `P` with the `x + 1`
/// handler `inc`, `encode`/`decode` between a `u64` and `P`, and `caller`
/// the payload's own handle. While a handle is alive, a second
/// `requester()` or `caller()` panics; after it drops, the next handle
/// redeems a ticket the old one issued, and the reap histogram holds every
/// call of both handles.
fn lease_row<P: Send + 'static, H>(
    row: &str,
    server: RingServer<P, P>,
    inc: u32,
    encode: impl Fn(u64) -> P,
    decode: impl Fn(P) -> u64,
    caller: impl Fn(&RingServer<P, P>) -> H,
) {
    const CALLS: u64 = 100;
    let refused = |what: &str, take: &dyn Fn()| {
        let err = catch_unwind(AssertUnwindSafe(take)).expect_err(what);
        let msg = err.downcast_ref::<&str>().copied();
        let msg = msg.or_else(|| err.downcast_ref::<String>().map(String::as_str));
        assert!(
            msg.is_some_and(|m| m.contains("one plane per requester")),
            "{row}: {what}: {msg:?}"
        );
    };
    let held = caller(&server);
    refused("requester() beside a caller", &|| drop(server.requester()));
    refused("caller() beside a caller", &|| drop(caller(&server)));
    drop(held);

    let first = server.requester();
    refused("caller() beside a requester", &|| drop(caller(&server)));
    for x in 0..CALLS {
        assert_eq!(decode(first.call(inc, encode(x)).unwrap()), x + 1, "{row}");
    }
    let ticket = first.submit(inc, encode(CALLS)).unwrap();
    drop(first);

    let second = server.requester();
    assert_eq!(decode(second.wait(ticket).unwrap()), CALLS + 1, "{row}");
    for x in 0..CALLS {
        assert_eq!(decode(second.call(inc, encode(x)).unwrap()), x + 1, "{row}");
    }
    let calls = 2 * CALLS + 1;
    assert_eq!(server.stats().calls, calls, "{row}");
    if TELEMETRY_ENABLED {
        assert_eq!(server.telemetry(row).reap.count(), calls, "{row}");
    }
}
