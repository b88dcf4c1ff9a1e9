//! Golden virtual-cycle checkpoints (ROADMAP item 2(e)).
//!
//! Every constant below was recorded on commit e06e1df (PR 12), before the
//! simulator's host-side data structures were rewritten. Virtual cycles are
//! deterministic under a fixed seed, so the checks are `==`: a change meant
//! only to make the simulator faster that moves the model — an eviction
//! victim, a jitter draw, a cycle charged — fails here instead of in a
//! benchmark. A deliberate model change updates the constants and says so.

use hotcalls_repro::apps::memcached::{self, protocol, Memcached};
use hotcalls_repro::apps::{AppEnv, IfaceMode, RtTransport};
use hotcalls_repro::hotcalls::sim::SimHotCalls;
use hotcalls_repro::hotcalls::HotCallConfig;
use hotcalls_repro::sgx_sdk::edl::parse_edl;
use hotcalls_repro::sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use hotcalls_repro::sgx_sim::{
    EnclaveBuildOptions, EpcStats, Machine, SimConfig, SimConfigBuilder, Telemetry,
};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// 60 k seeded operations over a 16 MiB enclave region (twice the modelled
/// LLC) and 4 MiB of untrusted memory: reads and writes of 8 B–2 KiB,
/// `clflush`, `clflush_span`, EENTER/EEXIT and a few whole-hierarchy
/// flushes. Noise stays on, so the `StdRng` jitter draws are checked too.
fn machine_stream(config: SimConfigBuilder) -> (u64, Telemetry) {
    const ENC: u64 = 16 << 20;
    const PLAIN: u64 = 4 << 20;
    let mut m = Machine::new(config.build());
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: ENC + (1 << 20),
            ..EnclaveBuildOptions::default()
        })
        .unwrap();
    let enc = m.alloc_enclave_heap(eid, ENC, 64).unwrap();
    let plain = m.alloc_untrusted(PLAIN, 64);
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut inside = false;
    for i in 0..60_000u32 {
        let r = xorshift(&mut s);
        let (base, span) = if r & 1 == 0 {
            (enc, ENC)
        } else {
            (plain, PLAIN)
        };
        let addr = base.offset(((r >> 8) % (span - 2048)) & !7);
        let len = 8 + (r >> 44) % 2040;
        match (r >> 1) % 16 {
            0..=6 => drop(m.read(addr, len).unwrap()),
            7..=11 => drop(m.write(addr, len).unwrap()),
            12 => m.clflush(addr),
            13 => m.clflush_span(addr, len),
            14 => {
                if inside {
                    m.eexit(eid, 0).unwrap();
                } else {
                    m.eenter(eid, 0).unwrap();
                }
                inside = !inside;
            }
            _ if i % 8192 == 8191 => m.flush_all_caches(),
            _ => drop(m.read(addr, 8).unwrap()),
        }
    }
    (m.now().get(), m.telemetry())
}

#[test]
fn machine_stream_resident() {
    let (now, telemetry) = machine_stream(SimConfig::builder().seed(13));
    assert_eq!(now, 58_300_848);
    assert_eq!(
        telemetry,
        Telemetry {
            l1: (26_748, 780_407),
            l2: (25_066, 755_341),
            llc: (348_173, 407_168),
            tlb: (770_434, 36_721),
            mee_cache: (166_237, 94_998),
            epc: EpcStats {
                resident_hits: 280_446,
                ..EpcStats::default()
            },
            aex_events: 0,
        }
    );
}

/// The same stream over a 4 MiB EPC: the 16 MiB region pages in and out
/// (EWB/ELDU with MACed swap images) all the way through.
#[test]
fn machine_stream_paging() {
    let (now, telemetry) = machine_stream(SimConfig::builder().seed(14).epc_bytes(4 << 20));
    assert_eq!(now, 460_196_678);
    assert_eq!(
        telemetry,
        Telemetry {
            l1: (26_748, 780_407),
            l2: (25_066, 755_341),
            llc: (348_173, 407_168),
            tlb: (770_434, 36_721),
            mee_cache: (164_975, 92_795),
            epc: EpcStats {
                ewb: 23_317,
                eldu: 19_895,
                resident_hits: 260_551,
                paging_cycles: 401_959_000,
            },
            aex_events: 0,
        }
    );
}

/// Median cycles of 201 warm `[in, out]` calls of `len` bytes through the
/// SDK ocall and through the simulated HotCall.
fn call_medians(len: u64) -> (u64, u64) {
    let mut m = Machine::new(SimConfig::builder().seed(21).build());
    let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
    let edl =
        parse_edl("enclave { untrusted { void o([in, out, size=n] uint8_t* b, size_t n); }; };")
            .unwrap();
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();
    let buf = BufArg::new(m.alloc_enclave_heap(eid, len, 64).unwrap(), len);
    ctx.enter_main(&mut m).unwrap();
    let mut median = |hot_path: bool| {
        let mut samples: Vec<u64> = (0..217)
            .map(|_| {
                let t0 = m.now();
                if hot_path {
                    hot.hot_ocall(&mut m, &mut ctx, "o", &[buf], |_, _, _| Ok(()))
                        .unwrap();
                } else {
                    ctx.ocall(&mut m, "o", &[buf], |_, _, _| Ok(())).unwrap();
                }
                (m.now() - t0).get()
            })
            .skip(16)
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    (median(false), median(true))
}

#[test]
fn edge_call_medians() {
    assert_eq!(call_medians(64), (8_492, 679));
    assert_eq!(call_medians(1024), (9_992, 2_179));
}

/// Serves `requests` seeded SET/GET requests (1:1, 512 keys × 1 KiB) and
/// checks every reply: a SET must be acknowledged, a GET must return the
/// last value set for its key.
fn serve_mixed(env: &mut AppEnv, requests: u32) {
    const KEYS: usize = 512;
    let mut server = Memcached::new(env, KEYS, 2048).unwrap();
    let mut last_set = vec![None; KEYS];
    let mut s = 0xD1B5_4A32_D192_ED03u64;
    for opaque in 0..requests {
        let r = xorshift(&mut s);
        let k = (r >> 8) as usize % KEYS;
        let key = format!("key-{k:04}");
        let is_get = r & 1 == 1 && last_set[k].is_some();
        let request = if is_get {
            protocol::encode_get(key.as_bytes(), opaque)
        } else {
            let fill = (r >> 32) as u8;
            last_set[k] = Some(fill);
            protocol::encode_set(key.as_bytes(), &[fill; 1024], opaque)
        };
        let reply = protocol::parse_response(server.serve(env, request).unwrap()).unwrap();
        assert_eq!(reply.status, protocol::Status::Ok);
        assert_eq!(reply.opaque, opaque);
        if is_get {
            let fill = last_set[k].expect("GETs only follow a SET");
            assert_eq!(reply.value.as_ref(), &[fill; 1024][..]);
        }
    }
}

fn memcached_env(mode: IfaceMode, transport: RtTransport) -> AppEnv {
    AppEnv::with_transport(
        SimConfig::builder().seed(31).build(),
        mode,
        &memcached::api_table(),
        64 << 20,
        transport,
    )
    .unwrap()
}

#[test]
fn memcached_elapsed_after_2000_requests() {
    for (mode, golden) in [
        (IfaceMode::Sdk, 93_703_188),
        (IfaceMode::HotCallsNrz, 40_397_062),
    ] {
        let mut env = memcached_env(mode, RtTransport::default());
        serve_mixed(&mut env, 2_000);
        assert_eq!(env.elapsed().get(), golden, "{mode:?}");
    }
}

/// Regression: under `RtTransport::Auto` the router may send an API down
/// the SDK ocall path, which needs a current TCS; `run_enclave_function`
/// used to run the body without one and `serve` failed with
/// `Sdk(NotInEnclave)`. Not a golden value — the route depends on what the
/// controller has observed — but the replies must be right.
#[test]
fn memcached_serves_under_the_auto_transport() {
    let mut env = memcached_env(IfaceMode::HotCallsNrz, RtTransport::Auto);
    serve_mixed(&mut env, 1_500);
    assert!(env.ctl_stats().is_some(), "Auto transport has a controller");
}
