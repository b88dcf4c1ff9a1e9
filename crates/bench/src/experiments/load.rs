//! `load_curves` — latency vs offered load, open loop, 100k connections.
//!
//! The paper's headline numbers are per-call costs (Table 1); what an
//! operator buys with them is *headroom*: how much offered load a port
//! sustains before tail latency departs. This experiment draws that curve
//! for all three ported applications the way the tail-latency literature
//! prescribes — **open loop**: arrivals come from a seeded Poisson
//! schedule at a configured offered rate and are never gated on
//! completions, so queueing collapse shows up in the tail instead of
//! silently throttling the load.
//!
//! Per app (memcached, lighttpd, openVPN) × interface (`hot` = HotCalls on
//! the plane [`AppEnv::new`] builds, `sdk` = the plain SDK port) it
//! measures the per-call interface cost in *virtual cycles* from the live
//! [`AppEnv`] ledger, then runs an open-loop M/D/1 queueing model over the
//! [`VirtualEpoll`] event loop: 100,000 simulated connections each keep
//! one armed next-arrival timer (the loop's `peak_pending` is the
//! witness), arrivals queue for the one interface in arrival order, and
//! per-event latency (completion − scheduled arrival) feeds a
//! [`CycleHist`], from which each offered rate's p50/p99/p999 row is
//! read. The **knee** of a curve is the highest offered rate whose p99
//! still sits within 10× of the curve's low-load p99. The HotCalls knee
//! must be ≥ 2× the SDK knee for every app — the paper's per-call saving,
//! restated as sustainable load. Virtual time makes it exactly
//! reproducible across hosts.

use apps::porting::ApiDecl;
use apps::{lighttpd, memcached, openvpn, AppEnv, IfaceMode};
use hotcalls::telemetry::CycleHist;
use sgx_sim::{Cycles, SimConfig, VirtualEpoll};
use workloads::openloop::OpenLoopPlan;

use super::{say, Outcome, Scale};
use crate::stats::{knee_of, rate_grid, CurvePoint};

/// Simulated concurrent connections per run (the regime the event loop
/// exists for).
const CONNS: usize = 100_000;
/// Virtual core frequency, cycles per second (sgx-sim's 4 GHz core).
const CYCLES_PER_SEC: f64 = 4e9;
/// Cycles per nanosecond on the 4 GHz virtual core.
const CYCLES_PER_NS: u64 = 4;
/// Warm-up calls before the per-call cost probes (the rings warm up —
/// the paper measures warm costs too).
const PROBE_WARMUP: u32 = 32;
/// Measured calls per cost probe.
const PROBE_SAMPLES: u32 = 256;
/// A curve's knee: the highest offered rate whose p99 is still within
/// this factor of the curve's low-load p99.
const KNEE_P99_FACTOR: f64 = 10.0;
/// The headline separation: HotCalls must sustain at least this multiple
/// of the SDK port's knee rate, per application.
const MIN_KNEE_RATIO: f64 = 2.0;

/// One application under test: its API table, heap, and a frequent
/// *plain* API (no buffers) whose per-call cost stands in for the app's
/// interface unit of work.
struct AppSpec {
    name: &'static str,
    api_table: fn() -> Vec<ApiDecl>,
    heap: u64,
    probe: &'static str,
    seed: u64,
}

const APPS: [AppSpec; 3] = [
    AppSpec {
        name: "memcached",
        api_table: memcached::api_table,
        heap: 64 << 20,
        probe: "epoll_wait",
        seed: 801,
    },
    AppSpec {
        name: "lighttpd",
        api_table: lighttpd::api_table,
        heap: 64 << 20,
        probe: "ioctl",
        seed: 802,
    },
    AppSpec {
        name: "openvpn",
        api_table: openvpn::api_table,
        heap: 16 << 20,
        probe: "getpid",
        seed: 803,
    },
];

/// A measured interface: the service cost of the queue model.
struct ModeProbe {
    mode: &'static str,
    cost_cycles: f64,
}

/// Measures one app × interface: per-call cost in virtual interface
/// cycles — what the queue model charges; deterministic and
/// host-independent.
fn probe_mode(app: &AppSpec, mode: &'static str, iface: IfaceMode) -> ModeProbe {
    let table = (app.api_table)();
    let mut env = AppEnv::new(
        SimConfig::builder().seed(app.seed).build(),
        iface,
        &table,
        app.heap,
    )
    .expect("app env builds");
    env.enter_main().expect("enter main");
    for _ in 0..PROBE_WARMUP {
        env.api_call(app.probe, &[]).expect("probe api");
    }
    let before = env.interface_cycles().get();
    for _ in 0..PROBE_SAMPLES {
        env.api_call(app.probe, &[]).expect("probe api");
    }
    let cost_cycles = (env.interface_cycles().get() - before) as f64 / f64::from(PROBE_SAMPLES);
    ModeProbe { mode, cost_cycles }
}

/// Runs one open-loop point of the queue model in virtual time.
///
/// Every connection keeps exactly one armed next-arrival timer in the
/// [`VirtualEpoll`] — `peak_pending` therefore witnesses `conns`-way
/// concurrency. When a connection's timer fires, its call serves for
/// `cost` cycles behind whatever the interface already owes, and the
/// completion-minus-arrival latency lands in the histogram. Arrival
/// draws are per-connection Poisson streams (the superposition is the
/// offered Poisson rate), with each stream's warm-up arrival at t=0
/// discarded so the run starts stationary instead of with a synchronized
/// 100k-connection burst.
fn simulate_point(
    cost: u64,
    conns: usize,
    events_per_conn: usize,
    rate_hz: f64,
    seed: u64,
) -> (CycleHist, usize) {
    let mut ep = VirtualEpoll::new();
    let per_conn_rate = rate_hz / conns as f64;
    let mut arrivals: Vec<_> = (0..conns as u64)
        .map(|c| {
            let plan = OpenLoopPlan::new(
                seed ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                per_conn_rate,
                events_per_conn + 1,
                1,
            );
            let mut it = plan.arrivals();
            it.next(); // discard the t=0 warm-up arrival
            it
        })
        .collect();
    for (c, it) in arrivals.iter_mut().enumerate() {
        if let Some(ns) = it.next() {
            ep.arm(c as u64, Cycles::new(ns * CYCLES_PER_NS));
        }
    }
    let mut busy_until = 0u64;
    let mut hist = CycleHist::new();
    loop {
        let batch = ep.wait(1_024);
        if batch.is_empty() {
            break;
        }
        for ev in batch {
            let conn = ev.token as usize;
            if let Some(ns) = arrivals[conn].next() {
                ep.arm(ev.token, Cycles::new(ns * CYCLES_PER_NS));
            }
            let start = ev.at.get().max(busy_until);
            let done = start + cost;
            busy_until = done;
            hist.record(done - ev.at.get());
        }
    }
    (hist, ep.peak_pending())
}

/// A full app × interface curve.
struct ModeCurve {
    mode: &'static str,
    knee_per_sec: f64,
    peak_pending: usize,
    points: Vec<CurvePoint>,
}

/// Sweeps one interface over the shared offered-rate grid.
fn sweep_mode(probe: &ModeProbe, grid: &[f64], events_per_conn: usize, seed: u64) -> ModeCurve {
    let cost = (probe.cost_cycles.round() as u64).max(1);
    let mut points = Vec::with_capacity(grid.len());
    let mut peak = 0usize;
    for (i, &rate) in grid.iter().enumerate() {
        let (hist, p) = simulate_point(
            cost,
            CONNS,
            events_per_conn,
            rate,
            seed.wrapping_add(i as u64),
        );
        peak = peak.max(p);
        points.push(CurvePoint {
            offered_per_sec: rate,
            p50_ns: hist.percentile(0.50) / CYCLES_PER_NS,
            p99_ns: hist.percentile(0.99) / CYCLES_PER_NS,
            p999_ns: hist.percentile(0.999) / CYCLES_PER_NS,
        });
    }
    ModeCurve {
        mode: probe.mode,
        knee_per_sec: knee_of(&points, KNEE_P99_FACTOR),
        peak_pending: peak,
        points,
    }
}

/// The knee curves, one app at a time, both interfaces on a shared grid
/// so their knees are directly comparable.
pub(crate) fn load_curves(scale: Scale) -> Outcome {
    let (grid_points, events_per_conn) = scale.pick((12usize, 4usize), (6, 2));
    let mut out = Outcome::titled("load_curves: latency vs offered load (open loop)");
    say!(
        out,
        "{CONNS} simulated connections, {grid_points}-point rate grid, \
         {events_per_conn} events/conn, knee at p99 <= {KNEE_P99_FACTOR:.0}x low-load"
    );
    say!(out);
    for app in &APPS {
        let hot = probe_mode(app, "hot", IfaceMode::HotCalls);
        let sdk = probe_mode(app, "sdk", IfaceMode::Sdk);
        say!(
            out,
            "{}: `{}` costs {:.0} cycles/call hot vs {:.0} sdk",
            app.name,
            app.probe,
            hot.cost_cycles,
            sdk.cost_cycles
        );
        let capacities = [&hot, &sdk].map(|p| CYCLES_PER_SEC / p.cost_cycles);
        let grid = rate_grid(&capacities, grid_points);
        let curves = [&hot, &sdk].map(|probe| sweep_mode(probe, &grid, events_per_conn, app.seed));
        for curve in &curves {
            say!(
                out,
                "  {:>4} knee {:>12.0}/s:",
                curve.mode,
                curve.knee_per_sec
            );
            for p in &curve.points {
                say!(
                    out,
                    "    {:>12.0}/s  p50 {:>10} ns  p99 {:>10} ns  p999 {:>10} ns",
                    p.offered_per_sec,
                    p.p50_ns,
                    p.p99_ns,
                    p.p999_ns
                );
            }
            out.check(
                curve.peak_pending == CONNS,
                format!(
                    "{} `{}` multiplexed {CONNS} concurrent connections (peak {})",
                    app.name, curve.mode, curve.peak_pending
                ),
            );
        }
        let knee_ratio = curves[0].knee_per_sec / curves[1].knee_per_sec.max(1.0);
        say!(out, "  hot/sdk knee ratio {knee_ratio:.1}x");
        say!(out);
        out.check(
            knee_ratio >= MIN_KNEE_RATIO,
            format!(
                "{} HotCalls knee >= {MIN_KNEE_RATIO:.0}x the SDK knee ({knee_ratio:.2}x)",
                app.name
            ),
        );
    }
    out
}
