//! Integration tests spanning every crate: enclave lifecycle → SDK calls
//! → HotCalls → applications.

use hotcalls_repro::apps::memcached::{self, protocol, Memcached};
use hotcalls_repro::apps::ApiCensus;
use hotcalls_repro::apps::{AppEnv, IfaceMode};
use hotcalls_repro::hotcalls::sim::SimHotCalls;
use hotcalls_repro::hotcalls::HotCallConfig;
use hotcalls_repro::sgx_sdk::edl::parse_edl;
use hotcalls_repro::sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use hotcalls_repro::sgx_sim::{EnclaveBuildOptions, EnclaveState, Machine, SimConfig};

#[test]
fn lifecycle_calls_hotcalls_end_to_end() {
    let mut m = Machine::new(SimConfig::builder().seed(77).build());

    // Lifecycle.
    let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
    assert_eq!(m.enclave(eid).unwrap().state, EnclaveState::Initialized);

    // SDK calls + HotCalls against the same enclave.
    let edl = parse_edl(
        "enclave {
            trusted { public void ecall_touch([in, size=n] const uint8_t* b, size_t n); };
            untrusted { void ocall_emit([in, size=n] const uint8_t* b, size_t n); };
        };",
    )
    .unwrap();
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();

    let untrusted = m.alloc_untrusted(1024, 64);
    ctx.ecall(
        &mut m,
        "ecall_touch",
        &[BufArg::new(untrusted, 1024)],
        |ctx, m, args| {
            // Trusted body sees the staged secure copy, reads it, and emits a
            // result through an ocall.
            m.read(args.bufs[0], 1024)?;
            let secure_src = args.bufs[0];
            ctx.ocall(
                m,
                "ocall_emit",
                &[BufArg::new(secure_src, 128)],
                |_, _, _| Ok(()),
            )
        },
    )
    .unwrap();

    let secure = m.alloc_enclave_heap(eid, 256, 64).unwrap();
    ctx.enter_main(&mut m).unwrap();
    hot.hot_ocall(
        &mut m,
        &mut ctx,
        "ocall_emit",
        &[BufArg::new(secure, 256)],
        |_, _, _| Ok(()),
    )
    .unwrap();
    ctx.leave_main(&mut m).unwrap();

    // Hot calls feed the same per-name ledger as SDK calls (the API
    // census reads it), so the hot ocall counts alongside the ecall and
    // the nested SDK ocall.
    assert_eq!(ctx.stats().total_calls(), 3);
    assert_eq!(ctx.stats().ocalls()["ocall_emit"].count, 2); // SDK + hot
    assert_eq!(hot.stats().calls, 1);
}

#[test]
fn hotcalls_speedup_is_paper_magnitude_in_sim() {
    let mut m = Machine::new(SimConfig::builder().deterministic().build());
    let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
    let edl = parse_edl("enclave { untrusted { void ocall_nop(); }; };").unwrap();
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();
    ctx.enter_main(&mut m).unwrap();

    // Warm both paths.
    for _ in 0..5 {
        ctx.ocall(&mut m, "ocall_nop", &[], |_, _, _| Ok(()))
            .unwrap();
        hot.hot_ocall(&mut m, &mut ctx, "ocall_nop", &[], |_, _, _| Ok(()))
            .unwrap();
    }
    let t0 = m.now();
    ctx.ocall(&mut m, "ocall_nop", &[], |_, _, _| Ok(()))
        .unwrap();
    let sdk = (m.now() - t0).get();
    let t0 = m.now();
    hot.hot_ocall(&mut m, &mut ctx, "ocall_nop", &[], |_, _, _| Ok(()))
        .unwrap();
    let hot_cost = (m.now() - t0).get();
    let speedup = sdk as f64 / hot_cost as f64;
    assert!(
        (8.0..40.0).contains(&speedup),
        "paper claims 13-27x; sim gives {speedup:.1}x ({sdk} vs {hot_cost})"
    );
}

#[test]
fn memcached_end_to_end_all_modes_yield_identical_payloads() {
    // The *functional* result must be identical in every mode; only the
    // virtual time differs.
    let mut reference: Option<Vec<u8>> = None;
    for mode in IfaceMode::ALL {
        let mut env = AppEnv::new(
            SimConfig::builder().deterministic().build(),
            mode,
            &memcached::api_table(),
            64 << 20,
        )
        .unwrap();
        let mut server = Memcached::new(&mut env, 256, 2048).unwrap();
        server
            .serve(&mut env, protocol::encode_set(b"alpha", &[0xC3; 1000], 1))
            .unwrap();
        let resp = server
            .serve(&mut env, protocol::encode_get(b"alpha", 2))
            .unwrap();
        let parsed = protocol::parse_response(resp).unwrap();
        assert_eq!(parsed.status, protocol::Status::Ok, "{mode:?}");
        let payload = parsed.value.to_vec();
        match &reference {
            None => reference = Some(payload),
            Some(r) => assert_eq!(&payload, r, "{mode:?} diverged"),
        }
    }
}

/// `serve_many` pipelines a batch's socket calls. In both HotCalls modes
/// each of them rides the plane, and each socket API is priced as a
/// HotCall: below half of what the same API costs through the SDK.
#[test]
fn memcached_batches_ride_the_plane_in_both_hot_modes() {
    let serve = |mode| {
        let mut env = AppEnv::new(
            SimConfig::builder().deterministic().build(),
            mode,
            &memcached::api_table(),
            64 << 20,
        )
        .unwrap();
        let mut server = Memcached::new(&mut env, 256, 2048).unwrap();
        let key = |i: u32| format!("key-{i}");
        let sets: Vec<_> = (0..8)
            .map(|i| protocol::encode_set(key(i).as_bytes(), &[i as u8; 512], i))
            .collect();
        let gets: Vec<_> = (0..8)
            .map(|i| protocol::encode_get(key(i).as_bytes(), 100 + i))
            .collect();
        for _ in 0..4 {
            server.serve_many(&mut env, &sets).unwrap();
            for (i, reply) in (0..).zip(server.serve_many(&mut env, &gets).unwrap()) {
                let reply = protocol::parse_response(reply).unwrap();
                assert_eq!(reply.status, protocol::Status::Ok, "{mode:?}");
                assert_eq!(reply.opaque, 100 + i, "{mode:?}");
                assert_eq!(reply.value.as_ref(), &[i as u8; 512][..], "{mode:?}");
            }
        }
        env
    };
    let sdk = serve(IfaceMode::Sdk).api_census("memcached");
    for mode in [IfaceMode::HotCalls, IfaceMode::HotCallsNrz] {
        let env = serve(mode);
        let plane = env.rt_stats().expect("a HotCalls mode has a plane");
        assert_eq!(plane.calls, env.total_calls(), "{mode:?}");
        assert_eq!(plane.fallbacks, 0, "{mode:?}");
        let hot = env.api_census("memcached");
        for api in ["read", "sendmsg"] {
            let per_call = |census: &ApiCensus| {
                let row = census.rows.iter().find(|r| r.name == api).unwrap();
                assert_eq!(row.calls, 64, "{mode:?} {api}");
                row.cycles_per_call
            };
            let (hot, sdk) = (per_call(&hot), per_call(&sdk));
            assert!(2.0 * hot < sdk, "{mode:?} {api}: {hot:.0} vs SDK {sdk:.0}");
        }
    }
}

#[test]
fn cold_cache_ratio_holds_at_the_call_level() {
    // Paper: cold ecalls are 83-113x an OS syscall; warm are ~54x.
    let mut m = Machine::new(SimConfig::builder().seed(3).build());
    let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
    let edl = parse_edl("enclave { trusted { public void e(); }; };").unwrap();
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
    for _ in 0..5 {
        ctx.ecall(&mut m, "e", &[], |_, _, _| Ok(())).unwrap();
    }
    let t0 = m.now();
    ctx.ecall(&mut m, "e", &[], |_, _, _| Ok(())).unwrap();
    let warm = (m.now() - t0).get();

    m.flush_all_caches();
    let t0 = m.now();
    ctx.ecall(&mut m, "e", &[], |_, _, _| Ok(())).unwrap();
    let cold = (m.now() - t0).get();

    let syscall = 150.0;
    assert!(
        (40.0..75.0).contains(&(warm as f64 / syscall)),
        "warm/syscall {}",
        warm as f64 / syscall
    );
    assert!(
        (75.0..125.0).contains(&(cold as f64 / syscall)),
        "cold/syscall {}",
        cold as f64 / syscall
    );
}

#[test]
fn epc_tamper_detection_reaches_the_app_level() {
    // A paged-out page whose swap image is corrupted must fail its MAC on
    // reload — visible as an error from a plain memory read.
    use hotcalls_repro::sgx_sim::PAGE_SIZE;
    let mut m = Machine::new(
        SimConfig::builder()
            .deterministic()
            .epc_bytes(64 * PAGE_SIZE)
            .build(),
    );
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            code_bytes: PAGE_SIZE,
            heap_bytes: 80 * PAGE_SIZE,
            stack_bytes_per_tcs: PAGE_SIZE,
            tcs_count: 1,
        })
        .unwrap();
    let heap = m
        .alloc_enclave_heap(eid, 70 * PAGE_SIZE, PAGE_SIZE)
        .unwrap();
    // Thrash so pages cycle through EWB/ELDU, proving integrity protection
    // engages (statistics, not silent).
    for _ in 0..2 {
        for p in 0..70 {
            m.read(heap.offset(p * PAGE_SIZE), 8).unwrap();
        }
    }
    assert!(m.epc_stats().ewb > 0);
    assert!(m.epc_stats().eldu > 0);
}
