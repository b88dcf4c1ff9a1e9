//! Ablations beyond the paper's figures: the HotCalls design knobs, the
//! `memset` width, the MEE node cache, the EPC capacity,
//! No-Redundant-Zeroing across transfer modes, and the per-interface API
//! census.

use apps::ApiCensus;
use hotcalls::sim::SimHotCalls;
use hotcalls::HotCallConfig;
use sgx_sdk::edl::parse_edl;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Cycles, EnclaveBuildOptions, Machine, SimConfig};
use workloads::spec::{machine_with_region, run_libquantum, LibquantumConfig, Placement};

use super::{say, Outcome, Scale};
use crate::applications::{api_census_all, AppScale, CENSUS_MODES};
use crate::micro::{
    ecall_buffer, memory_read_windowed, memory_read_windowed_on, Region, TransferMode,
};
use crate::stats::Samples;

/// A machine with one enclave, an SDK context over `edl`, and (when `hot`
/// is given) a HotCalls channel next to it. The caller allocates its
/// buffers and then enters the enclave.
fn rig(
    seed: u64,
    edl: &str,
    options: MarshalOptions,
    hot: Option<HotCallConfig>,
) -> (Machine, EnclaveCtx, Option<SimHotCalls>) {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let eid = m
        .build_enclave(EnclaveBuildOptions::default())
        .expect("enclave");
    let edl = parse_edl(edl).expect("EDL");
    let ctx = EnclaveCtx::new(&mut m, eid, &edl, options).expect("ctx");
    let hot = hot.map(|config| SimHotCalls::new(&mut m, &ctx, config).expect("channel"));
    (m, ctx, hot)
}

/// The HotCalls design knobs (§4.2): responder contention, the
/// timeout-retry budget, and idle sleep against the duty cycle.
pub(crate) fn hotcall(scale: Scale) -> Outcome {
    let n = scale.samples(3_000, 300) as u64;
    let hot_rig = |seed, config| {
        let (mut m, mut ctx, hot) = rig(
            seed,
            "enclave { untrusted { void o(); }; };",
            MarshalOptions::default(),
            Some(config),
        );
        ctx.enter_main(&mut m).expect("enter");
        (m, ctx, hot.expect("asked for a channel"))
    };
    let mut out = Outcome::titled("Ablation A: responder contention (shared responder)");
    say!(
        out,
        "{:>11} {:>14} {:>12} {:>12}",
        "p(busy)",
        "avg cycles",
        "fallbacks",
        "fast calls"
    );
    for contention in [0.0, 0.25, 0.5, 0.75, 0.9, 0.97] {
        let (mut m, mut ctx, mut hot) = hot_rig(11, HotCallConfig::default());
        hot.set_contention(contention);
        let start = m.now();
        for _ in 0..n {
            hot.hot_ocall(&mut m, &mut ctx, "o", &[], |_, _, _| Ok(()))
                .expect("hot ocall");
        }
        let avg = (m.now() - start).get() / n;
        let s = hot.stats();
        say!(
            out,
            "{contention:>11.2} {avg:>14} {:>12} {:>12}",
            s.fallbacks,
            s.calls
        );
    }

    say!(
        out,
        "\n=== Ablation B: timeout-retry budget under heavy contention (p=0.9) ==="
    );
    say!(
        out,
        "{:>9} {:>14} {:>12}",
        "retries",
        "avg cycles",
        "fallback%"
    );
    for retries in [1u32, 2, 5, 10, 25, 100] {
        let cfg = HotCallConfig {
            timeout_retries: retries,
            ..HotCallConfig::default()
        };
        let (mut m, mut ctx, mut hot) = hot_rig(12, cfg);
        hot.set_contention(0.9);
        let start = m.now();
        for _ in 0..n {
            hot.hot_ocall(&mut m, &mut ctx, "o", &[], |_, _, _| Ok(()))
                .expect("hot ocall");
        }
        let avg = (m.now() - start).get() / n;
        let s = hot.stats();
        let fb = s.fallbacks as f64 / (s.fallbacks + s.calls) as f64 * 100.0;
        say!(out, "{retries:>9} {avg:>14} {fb:>11.1}%");
    }

    say!(
        out,
        "\n=== Ablation C: idle sleep vs duty cycle (gap between calls) ==="
    );
    say!(
        out,
        "{:>14} {:>14} {:>10}",
        "idle gap (cyc)",
        "avg cycles",
        "wakeups"
    );
    for gap in [0u64, 10_000, 100_000, 1_000_000] {
        let (mut m, mut ctx, mut hot) = hot_rig(13, HotCallConfig::with_idle_sleep(200));
        let start = m.now();
        let calls = n.min(500);
        for _ in 0..calls {
            m.charge(Cycles::new(gap));
            hot.hot_ocall(&mut m, &mut ctx, "o", &[], |_, _, _| Ok(()))
                .expect("hot ocall");
        }
        let avg = ((m.now() - start).get() - gap * calls) / calls;
        say!(out, "{gap:>14} {avg:>14} {:>10}", hot.stats().wakeups);
    }
    say!(
        out,
        "\n(the wake penalty only appears when the gap exceeds the sleep threshold —"
    );
    say!(
        out,
        " busy phases run at full HotCalls speed, idle phases stop burning the core)"
    );
    out
}

const WORD_WISE: MarshalOptions = MarshalOptions {
    optimized_memset: true,
    no_redundant_zeroing: false,
};

/// Mean cycles of `n` warm repetitions of `one`.
fn mean_cycles(m: &mut Machine, n: usize, mut one: impl FnMut(&mut Machine)) -> u64 {
    for _ in 0..5 {
        one(m);
    }
    let start = m.now();
    for _ in 0..n {
        one(m);
    }
    (m.now() - start).get() / n as u64
}

/// The paper's §3.5 "further optimization": a word-wise `memset` for the
/// zeroing that is required (ecall `out` staging on the secure heap),
/// against No-Redundant-Zeroing for the zeroing that is not.
pub(crate) fn memset(scale: Scale) -> Outcome {
    const SIZES: [u64; 4] = [1024, 2048, 8192, 32768];
    let n = scale.samples(800, 50);
    let ocall_out = |bytes: u64, options: MarshalOptions, seed: u64| {
        let (mut m, mut ctx, _) = rig(
            seed,
            "enclave { untrusted { void o([out, size=n] uint8_t* b, size_t n); }; };",
            options,
            None,
        );
        let buf = m.alloc_enclave_heap(ctx.eid, bytes, 64).expect("heap");
        ctx.enter_main(&mut m).expect("enter");
        let args = [BufArg::new(buf, bytes)];
        mean_cycles(&mut m, n, |m| {
            ctx.ocall(m, "o", &args, |_, _, _| Ok(())).expect("ocall");
        })
    };

    let mut out = Outcome::titled("Ablation: memset strategy for `out` buffers (median cycles)");
    say!(
        out,
        "-- ecall out (secure staging: zeroing is REQUIRED; only its width is optional)"
    );
    say!(
        out,
        "{:>8} {:>16} {:>16} {:>9}",
        "bytes",
        "byte-wise",
        "word-wise",
        "saved"
    );
    for bytes in SIZES {
        let slow = ecall_buffer(TransferMode::Out, bytes, n, 31).median();
        let fast = {
            let (mut m, mut ctx, _) = rig(
                32,
                "enclave { trusted { public void e([out, size=n] uint8_t* b, size_t n); }; };",
                WORD_WISE,
                None,
            );
            let buf = m.alloc_untrusted(bytes, 64);
            let args = [BufArg::new(buf, bytes)];
            mean_cycles(&mut m, n, |m| {
                ctx.ecall(m, "e", &args, |_, _, _| Ok(())).expect("ecall");
            })
        };
        say!(
            out,
            "{bytes:>8} {slow:>16} {fast:>16} {:>9}",
            slow.saturating_sub(fast)
        );
    }

    say!(
        out,
        "\n-- ocall out (untrusted staging: the zeroing is REDUNDANT; NRZ removes it)"
    );
    say!(
        out,
        "{:>8} {:>12} {:>14} {:>10} {:>9}",
        "bytes",
        "byte-wise",
        "word-wise",
        "NRZ",
        "NRZ saves"
    );
    for bytes in SIZES {
        let byte_wise = ocall_out(bytes, MarshalOptions::default(), 41);
        let word_wise = ocall_out(bytes, WORD_WISE, 42);
        let nrz = ocall_out(bytes, MarshalOptions::nrz(), 43);
        say!(
            out,
            "{bytes:>8} {byte_wise:>12} {word_wise:>14} {nrz:>10} {:>9}",
            byte_wise.saturating_sub(nrz)
        );
    }
    say!(
        out,
        "\n(word-wise memset recovers most of NRZ's gain without the semantic change —"
    );
    say!(
        out,
        " the paper suggests Intel adopt it; NRZ remains strictly better for ocalls)"
    );
    out
}

/// The MEE node-cache capacity — the lever behind Fig. 6's
/// footprint-dependent read overhead. Sweeping it shows where each buffer
/// size's tree working set stops fitting.
pub(crate) fn mee(scale: Scale) -> Outcome {
    let n = scale.samples(400, 20);
    let mut out =
        Outcome::titled("Ablation: MEE node-cache capacity vs encrypted-read overhead (%)");
    say!(
        out,
        "{:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "entries",
        "2KB",
        "4KB",
        "8KB",
        "16KB",
        "32KB"
    );
    for entries in [4usize, 8, 16, 24, 48, 96, 256] {
        let mut line = format!("{entries:>9}");
        for bytes in [2048u64, 4096, 8192, 16384, 32768] {
            let iters = n.min((20_000_000 / bytes) as usize);
            let mut cfg = SimConfig::builder().seed(71).build();
            cfg.mee.cache_entries = entries;
            let enc = memory_read_windowed_on(cfg, Region::Encrypted, bytes, iters).median();
            let plain = memory_read_windowed(Region::Plain, bytes, iters, 72).median();
            line.push_str(&format!(
                " {:>8.1}",
                (enc as f64 / plain as f64 - 1.0) * 100.0
            ));
        }
        say!(out, "{line}");
    }
    say!(
        out,
        "\n(the default 24 entries reproduces the paper's 54.5% -> 102% growth;"
    );
    say!(
        out,
        " a large cache flattens the curve, a tiny one saturates it early)"
    );
    out
}

/// EPC capacity vs working set — localizing the libquantum cliff of
/// Fig. 8. The slowdown is flat while the register fits and explodes the
/// moment it does not. Under smoke the register and every EPC size
/// shrink fourfold together, so the cliff stays in the same row.
pub(crate) fn epc(scale: Scale) -> Outcome {
    let mb: u64 = scale.pick(1 << 20, 1 << 18);
    let mut out = Outcome::titled("Ablation: EPC capacity vs 24MB streaming working set");
    let lq = LibquantumConfig {
        register_bytes: 24 * mb,
        sweeps: 2,
        ..LibquantumConfig::default()
    };
    say!(
        out,
        "{:>10} {:>12} {:>12} {:>10} {:>8}",
        "EPC (MB)",
        "plain c/op",
        "enc c/op",
        "slowdown",
        "EWBs"
    );
    for epc_mb in [16u64, 20, 24, 26, 32, 48, 93] {
        let cfg = SimConfig::builder()
            .deterministic()
            .epc_bytes(epc_mb * mb)
            .build();
        let (mut m, r) =
            machine_with_region(cfg.clone(), Placement::Plain, 32 * mb).expect("plain");
        let plain = run_libquantum(&mut m, r, lq).expect("libquantum");
        let (mut m, r) = machine_with_region(cfg, Placement::Enclave, 32 * mb).expect("enclave");
        let enc = run_libquantum(&mut m, r, lq).expect("libquantum");
        say!(
            out,
            "{:>10} {:>12.1} {:>12.1} {:>9.2}x {:>8}",
            (epc_mb * mb) as f64 / (1 << 20) as f64,
            plain.cycles_per_op,
            enc.cycles_per_op,
            enc.slowdown_vs(&plain),
            m.epc_stats().ewb
        );
    }
    say!(
        out,
        "\n(the cliff sits exactly where capacity crosses the working set +"
    );
    say!(
        out,
        " enclave overheads — the paper's 96MB-vs-93MB situation in miniature)"
    );
    out
}

/// No-Redundant-Zeroing across transfer modes (paper §5.2): the per-call
/// cost of `out` and `in&out` buffer ocalls over the SDK (context switch,
/// whole-frame staging `memset`), over HotCalls (switchless, same
/// marshalling) and over HotCalls+NRZ (the security-pointless zeroing of
/// untrusted staging elided). NRZ must be strictly cheaper than plain
/// HotCalls at every mode and size, and save at least 20 % at 4 KiB.
pub(crate) fn nrz(scale: Scale) -> Outcome {
    const SIZES: [u64; 4] = [256, 1024, 4096, 16384];
    const EDL: &str = "enclave { untrusted {
        void o_out([out, size=n] uint8_t* b, size_t n);
        void o_inout([in, out, size=n] uint8_t* b, size_t n);
    }; };";
    let n = scale.samples(400, 100);
    // Median cycles of one buffered ocall under the given transport.
    let cost = |name: &str, bytes: u64, options: MarshalOptions, hot: bool, seed: u64| {
        let (mut m, mut ctx, mut hot) = rig(seed, EDL, options, hot.then(HotCallConfig::default));
        let buf = m.alloc_enclave_heap(ctx.eid, bytes, 64).expect("heap");
        ctx.enter_main(&mut m).expect("enter");
        let args = [BufArg::new(buf, bytes)];
        let mut one = |m: &mut Machine| match &mut hot {
            None => {
                ctx.ocall(m, name, &args, |_, _, _| Ok(())).expect("ocall");
            }
            Some(hot) => {
                hot.hot_ocall(m, &mut ctx, name, &args, |_, _, _| Ok(()))
                    .expect("hot ocall");
            }
        };
        for _ in 0..5 {
            one(&mut m);
        }
        (0..n)
            .map(|_| {
                let s = m.now();
                one(&mut m);
                (m.now() - s).get()
            })
            .collect::<Samples>()
            .median()
    };

    let mut out =
        Outcome::titled("Ablation: No-Redundant-Zeroing across transfer modes (median cycles)");
    for (mode, name) in [("out", "o_out"), ("in&out", "o_inout")] {
        say!(out, "-- {mode} buffers");
        say!(
            out,
            "{:>8} {:>10} {:>10} {:>14} {:>10}",
            "bytes",
            "SDK",
            "HotCalls",
            "HotCalls+NRZ",
            "NRZ saves"
        );
        for (i, &bytes) in SIZES.iter().enumerate() {
            let seed = 70 + i as u64;
            let sdk = cost(name, bytes, MarshalOptions::default(), false, seed);
            let hot = cost(name, bytes, MarshalOptions::default(), true, seed);
            let nrz = cost(name, bytes, MarshalOptions::nrz(), true, seed);
            let saving = 100.0 * hot.saturating_sub(nrz) as f64 / hot as f64;
            say!(
                out,
                "{bytes:>8} {sdk:>10} {hot:>10} {nrz:>14} {saving:>9.1}%"
            );
            out.check(
                nrz < hot,
                format!("NRZ strictly cheaper than HotCalls at {mode} {bytes} B ({nrz} vs {hot})"),
            );
            if bytes == 4096 {
                out.check(
                    saving >= 20.0,
                    format!("NRZ saves >= 20% at {mode} 4 KiB ({saving:.1}%)"),
                );
            }
        }
        say!(out);
    }
    out
}

/// The SDK-vs-HotCalls per-call separation every app must show (the
/// paper's Table 1 ratio is ~13×; the gate is deliberately loose because
/// call bodies ride inside the per-name cycles too).
const MIN_SDK_RATIO: f64 = 2.0;

/// The Table-2-style API census of all three ported applications under
/// each of [`CENSUS_MODES`]: which API, how often, and how much core time
/// the interface burns. Per application the SDK port must pay at least
/// 2× the per-call interface cycles of HotCalls.
pub(crate) fn api_census(scale: Scale) -> Outcome {
    let censuses = api_census_all(scale.pick(AppScale::default(), AppScale::SMOKE));
    let mut out = Outcome::titled(&format!(
        "api_census: Table-2-style API census, {} modes",
        CENSUS_MODES.len()
    ));
    for c in &censuses {
        say!(
            out,
            "{} [{}]: {} calls in {:.4}s, interface {} cycles, core time {:.3}",
            c.app,
            c.mode,
            c.total_calls,
            c.elapsed_secs,
            c.interface_cycles,
            c.core_time_fraction
        );
        say!(
            out,
            "  {:<22} {:>8} {:>12} {:>12} {:>8}",
            "api",
            "calls",
            "calls/sec",
            "cyc/call",
            "share"
        );
        for row in c.rows.iter().take(8) {
            say!(
                out,
                "  {:<22} {:>8} {:>12.0} {:>12.0} {:>7.1}%",
                row.name,
                row.calls,
                row.calls_per_sec,
                row.cycles_per_call,
                100.0 * row.share_of_interface
            );
        }
        say!(out);
    }

    let per_call = |app: &str, mode: &str| {
        let c: &ApiCensus = censuses
            .iter()
            .find(|c| c.app == app && c.mode == mode)
            .expect("census grid covers app x mode");
        c.interface_cycles as f64 / c.total_calls.max(1) as f64
    };
    for app in ["memcached", "openvpn", "lighttpd"] {
        let (sdk, hot) = (per_call(app, "sdk"), per_call(app, "hot"));
        out.check(
            sdk >= MIN_SDK_RATIO * hot,
            format!(
                "{app}: sdk pays >= {MIN_SDK_RATIO:.0}x the interface cycles/call of \
                 `hot` ({sdk:.0} vs {hot:.0})"
            ),
        );
    }
    out
}
