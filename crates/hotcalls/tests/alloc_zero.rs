//! Allocation proof for the byte-payload hot path and for the simulator.
//!
//! The slab arena and inline fast path exist so that steady-state calls
//! touch no heap: inline payloads ride inside the ring slot, slab payloads
//! recycle through the caller's free lists. This test swaps in a counting
//! global allocator and asserts the delta across thousands of calls is
//! exactly zero — any per-call `Box`/`Vec` sneaking back into the
//! requester, ring, dispatch, or arena path fails it.
//!
//! The simulator section holds `sgx-sim`'s access path and the simulated
//! edge calls to the same standard: its cache, TLB, EPC and MEE state is
//! flat and dense, so once the tables have grown to cover the addresses in
//! use, a simulated access or transition touches no heap either.
//!
//! The whole file is a single `#[test]` so no sibling test can allocate
//! concurrently and muddy the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hotcalls::rt::{
    ByteCallTable, ByteCaller, ByteRing, SgCallTable, SgRing, Ticket, INLINE_CAPACITY,
};
use hotcalls::sim::SimHotCalls;
use hotcalls::HotCallConfig;
use sgx_sdk::edl::parse_edl;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{EnclaveBuildOptions, Machine, SimConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged, so the allocator
// keeps `System`'s contract; the only addition is an atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The simulator: memory accesses, enclave transitions and edge calls over
/// a 16 MiB enclave region (twice the modelled LLC, so most lines miss all
/// the way to the MEE walk) and 4 MiB of untrusted memory.
fn simulator_steady_state() {
    const ENC: u64 = 16 << 20;
    const PLAIN: u64 = 4 << 20;
    let mut m = Machine::new(SimConfig::builder().seed(5).build());
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: ENC + (4 << 20), // + the SDK's and HotCalls' scratch
            ..EnclaveBuildOptions::default()
        })
        .unwrap();
    let edl = parse_edl(
        "enclave { untrusted {
            void nop();
            void io([in, out, size=n] uint8_t* b, size_t n);
        }; };",
    )
    .unwrap();
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();
    let enc = m.alloc_enclave_heap(eid, ENC, 64).unwrap();
    let plain = m.alloc_untrusted(PLAIN, 64);
    let buf = BufArg::new(enc, 64);

    // One pass of everything the measured loop does, over the same
    // addresses: the dense tables grow to their final size here, and the
    // per-name call ledgers meet every name.
    let mut round = |m: &mut Machine, ctx: &mut EnclaveCtx, i: u64| {
        let r = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.read(enc.offset((r >> 16) % (ENC - 2048)), 2048).unwrap();
        m.write(enc.offset((r >> 24) % (ENC - 2048)), 2048).unwrap();
        m.write(plain.offset((r >> 32) % (PLAIN - 512)), 512)
            .unwrap();
        // A span of three pages and more, and scattered single-line loads
        // whose tree walks miss up to the top: the span path and the MEE
        // node cache's random victims.
        m.read(enc.offset((r >> 20) % (ENC - (12 << 10))), 12 << 10)
            .unwrap();
        for k in 0..8 {
            m.read(enc.offset((r >> (4 * k)) % (ENC - 8)), 8).unwrap();
            m.reset_stream_detector();
        }
        if i.is_multiple_of(64) {
            m.clflush_span(enc.offset((r >> 24) % (ENC - 2048)), 2048);
        }
        m.eenter(eid, 0).unwrap();
        m.eexit(eid, 0).unwrap();
        ctx.enter_main(m).unwrap();
        ctx.ocall(m, "nop", &[], |_, _, _| Ok(())).unwrap();
        hot.hot_ocall(m, ctx, "nop", &[], |_, _, _| Ok(())).unwrap();
        ctx.leave_main(m).unwrap();
    };
    for i in 0..4_000 {
        round(&mut m, &mut ctx, i);
    }
    let delta = allocs_in(|| {
        for i in 0..4_000 {
            round(&mut m, &mut ctx, i);
        }
    });
    assert_eq!(delta, 0, "simulator steady state allocated {delta} times");

    // A call that carries a buffer returns its callee-visible addresses
    // and copy-back records in two fresh vectors (`marshal::stage`'s public
    // result); nothing else on the path may allocate.
    ctx.enter_main(&mut m).unwrap();
    let mut buffered_calls = |n| {
        for _ in 0..n {
            ctx.ocall(&mut m, "io", &[buf], |_, _, _| Ok(())).unwrap();
            hot.hot_ocall(&mut m, &mut ctx, "io", &[buf], |_, _, _| Ok(()))
                .unwrap();
        }
    };
    buffered_calls(1);
    let delta = allocs_in(|| buffered_calls(1_000));
    assert_eq!(
        delta,
        2 * 2_000,
        "buffered edge calls allocated {delta} times"
    );
}

/// Spin-only config: an idle responder dozing on a condvar is fine in
/// production but would tangle OS wakeup bookkeeping into the counter.
fn spin_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        ..HotCallConfig::patient()
    }
}

#[test]
fn hot_path_makes_zero_heap_allocations() {
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let ring = ByteRing::spawn_pool(table, 8, 1, spin_config()).unwrap();
    let mut caller = ring.caller();

    // Inline payloads: after warmup, N calls must allocate nothing at all.
    let data = [0x5Au8; INLINE_CAPACITY];
    for _ in 0..100 {
        caller.call(id, &data, 0).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        let n = caller.call(id, &data, 0).unwrap();
        assert_eq!(n, data.len());
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "inline hot path allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, 0);

    // Slab payloads: the first call allocates the slab, every later call
    // recycles it — steady state is alloc-free too.
    let big = vec![0xC3u8; 2048];
    for _ in 0..100 {
        caller.call(id, &big, 0).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        let n = caller.call(id, &big, 0).unwrap();
        assert_eq!(n, big.len());
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "slab steady state allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, 1);

    ring.shutdown();

    // The pipelined window: 16 inline-payload tickets in flight on a
    // 32-slot ring, each completion reaped with `wait_any_with` and
    // replaced by a fresh `submit`. The ticket set is one reused vector,
    // so steady state allocates nothing per call either.
    const WINDOW: usize = 16;
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let ring = ByteRing::spawn_pool(table, 2 * WINDOW, 1, spin_config()).unwrap();
    let mut caller = ring.caller();
    let data = [0x3Cu8; INLINE_CAPACITY];
    let mut tickets = Vec::with_capacity(WINDOW);
    for _ in 0..WINDOW {
        tickets.push(caller.submit(id, &data, 0).unwrap());
    }
    let turn = |caller: &mut ByteCaller, tickets: &mut Vec<Ticket>| {
        let (_, n) = caller.wait_any_with(tickets, |_, resp| resp.len()).unwrap();
        assert_eq!(n, data.len());
        tickets.push(caller.submit(id, &data, 0).unwrap());
    };
    for _ in 0..100 {
        turn(&mut caller, &mut tickets);
    }
    let delta = allocs_in(|| {
        for _ in 0..5_000 {
            turn(&mut caller, &mut tickets);
        }
    });
    assert_eq!(delta, 0, "pipelined window allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, 0);
    while !tickets.is_empty() {
        caller.wait_any_with(&mut tickets, |_, _| ()).unwrap();
    }
    assert_eq!(ring.stats().calls, (WINDOW + 5_100) as u64);

    ring.shutdown();

    // Fused run-to-completion: once the responder dozes, each call's
    // handler runs inline on the requester's core, so the path is
    // shorter still — and must be just as heap-free.
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let fused_config = HotCallConfig {
        idle_polls_before_sleep: Some(64),
        ..HotCallConfig::patient()
    };
    let ring = ByteRing::spawn_pool(table, 8, 1, fused_config).unwrap();
    let mut caller = ring.caller();
    let data = [0xA5u8; INLINE_CAPACITY];
    for _ in 0..100 {
        caller.call(id, &data, 0).unwrap();
    }
    // Wait until a call runs inline: the responder is then dozing (so
    // past its one-time startup allocations, which would otherwise land
    // inside the measured window), and a fused call wakes nobody.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fused = ring.stats().fused_runs;
        caller.call(id, &data, 0).unwrap();
        if ring.stats().fused_runs > fused {
            break;
        }
        assert!(Instant::now() < deadline, "the responder never dozed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let fused = ring.stats().fused_runs;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        let n = caller.call(id, &data, 0).unwrap();
        assert_eq!(n, data.len());
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "fused inline path allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, 0);
    // The inline branch actually ran, every measured call of it.
    let s = ring.stats();
    assert_eq!(s.fused_runs - fused, 5_000, "{s:?}");

    ring.shutdown();

    // Streaming scatter-gather: after warmup, chunks cycle through the
    // caller's arena (segments AND list shells recycle) and the in-flight
    // window's deque is reused across streams — zero allocations per
    // streamed chunk, with the credit window keeping several in flight.
    let mut table = SgCallTable::new();
    let id = table.register(|sg| sg.len());
    let ring = SgRing::spawn_pool(table, 8, 1, spin_config()).unwrap();
    let mut caller = ring.caller();
    let obj = vec![0x7Eu8; 192 << 10];
    for _ in 0..20 {
        caller.stream(id, &obj, 2, || 32 << 10, |_, _| {}).unwrap();
    }
    let arena_allocs = caller.arena_stats().allocs;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..200 {
        let report = caller.stream(id, &obj, 2, || 32 << 10, |_, _| {}).unwrap();
        assert_eq!(report.submitted, report.redeemed);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "streamed chunks allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, arena_allocs);
    ring.shutdown();
    simulator_steady_state();
}
