//! Criterion: cost (host-side) of driving the simulated call paths — a
//! performance guard for the simulator itself, and a direct ratio check of
//! simulated SDK calls vs HotCalls.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use hotcalls::sim::SimHotCalls;
use hotcalls::HotCallConfig;
use sgx_sdk::edl::parse_edl;
use sgx_sdk::{EnclaveCtx, MarshalOptions};
use sgx_sim::{EnclaveBuildOptions, Machine, SimConfig};

const EDL: &str = "enclave {
    trusted { public void ecall_empty(); };
    untrusted { void ocall_empty(); };
};";

fn setup() -> (Machine, EnclaveCtx, SimHotCalls) {
    let mut m = Machine::new(SimConfig::builder().deterministic().build());
    let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
    let edl = parse_edl(EDL).unwrap();
    let ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    let hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();
    (m, ctx, hot)
}

fn bench_sim_ecall(c: &mut Criterion) {
    let (mut m, mut ctx, _hot) = setup();
    c.bench_function("sim_sdk_ecall", |b| {
        b.iter(|| {
            ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
                .unwrap()
        })
    });
}

fn bench_sim_hot_ocall(c: &mut Criterion) {
    let (mut m, mut ctx, mut hot) = setup();
    ctx.enter_main(&mut m).unwrap();
    c.bench_function("sim_hot_ocall", |b| {
        b.iter(|| {
            hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
                .unwrap()
        })
    });
}

fn bench_sim_memory_sweep(c: &mut Criterion) {
    let mut m = Machine::new(SimConfig::builder().deterministic().build());
    let buf = m.alloc_untrusted(64 * 1024, 4096);
    c.bench_function("sim_read_64k", |b| {
        b.iter(|| {
            m.clflush_span(buf, 64 * 1024);
            m.read(buf, 64 * 1024).unwrap()
        })
    });
}

/// `kv_memtier`'s two shapes of memory traffic, on a machine with
/// memcached's heap: an 8-B load of a line scattered over 48 MiB (one of
/// the 32 metadata lines a request touches), and a 2 KiB value read or
/// written back at a random slab of 16 MiB.
fn bench_sim_kv_shapes(c: &mut Criterion) {
    let mut m = Machine::new(SimConfig::builder().seed(7).build());
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: 68 << 20,
            ..EnclaveBuildOptions::default()
        })
        .unwrap();
    let meta = m.alloc_enclave_heap(eid, 48 << 20, 64).unwrap();
    let slabs = m.alloc_enclave_heap(eid, 16 << 20, 64).unwrap();
    let mut lcg = 7u64;
    let mut below = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 17) % bound
    };
    c.bench_function("sim_scattered_load_48m", |b| {
        b.iter(|| {
            let line = below((48 << 20) / 64);
            m.read(meta.offset(line * 64), 8).unwrap();
            m.reset_stream_detector();
        })
    });
    let mut store = false;
    c.bench_function("sim_value_2k_rw", |b| {
        b.iter(|| {
            let value = slabs.offset(below(8192) * 2048);
            store = !store;
            if store {
                m.write(value, 2048).unwrap()
            } else {
                m.read(value, 2048).unwrap()
            }
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_sim_ecall, bench_sim_hot_ocall, bench_sim_memory_sweep, bench_sim_kv_shapes
}
criterion_main!(benches);
