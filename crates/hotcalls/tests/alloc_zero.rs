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

use hotcalls::rt::{
    ByteCallTable, ByteRing, CallTable, RingServer, SgCallTable, SgRing, INLINE_CAPACITY,
};
use hotcalls::sim::SimHotCalls;
use hotcalls::{block_on, FusedMode, HotCallConfig};
use sgx_sdk::edl::parse_edl;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{EnclaveBuildOptions, Machine, SimConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

    // Fused run-to-completion: the requester executes the handler inline
    // on its own core, so the path is shorter still — and must be just as
    // heap-free. `Always` forces every call through the fused branch.
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let fused_config = HotCallConfig {
        fused_mode: FusedMode::Always,
        ..spin_config()
    };
    let ring = ByteRing::spawn_pool(table, 8, 1, fused_config).unwrap();
    let mut caller = ring.caller();
    let data = [0xA5u8; INLINE_CAPACITY];
    for _ in 0..100 {
        caller.call(id, &data, 0).unwrap();
    }
    // Under `Always` the warmup never needs the responder, so the freshly
    // spawned responder thread may still be mid-startup — and its one-time
    // startup allocations (thread-name bookkeeping) would land inside the
    // measured window. Wait until it is demonstrably inside its poll loop.
    while ring.stats().idle_polls == 0 {
        std::thread::yield_now();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        let n = caller.call(id, &data, 0).unwrap();
        assert_eq!(n, data.len());
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "fused inline path allocated {delta} times");
    assert_eq!(caller.arena_stats().allocs, 0);
    // The inline branch actually ran: the warmup + measured calls were
    // overwhelmingly fused (a lost service race may pool a few).
    let s = ring.stats();
    assert!(s.fused_runs >= 5_000, "fused runs: {}", s.fused_runs);

    ring.shutdown();

    // Async front end: every measured call is submitted eagerly, parks
    // its waker, is woken by the responder, and redeems — all inside one
    // `block_on` (the executor allocates its thread-waker once, at
    // entry). Steady state must be exactly as heap-free as the sync
    // path: waker registration is an `Arc` refcount bump into a
    // pre-existing slot cell, never a fresh allocation.
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x.wrapping_add(1));
    let server = RingServer::spawn_pool(table, 8, 1, spin_config()).unwrap();
    let r = server.requester();
    block_on(async {
        for i in 0..100u64 {
            assert_eq!(r.call_async(id, i).unwrap().await.unwrap(), i + 1);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..5_000u64 {
            assert_eq!(r.call_async(id, i).unwrap().await.unwrap(), i + 1);
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(delta, 0, "async hot path allocated {delta} times");
    });
    server.shutdown();

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
