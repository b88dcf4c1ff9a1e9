//! `load_curves` — latency vs offered load, open loop, 100k connections.
//!
//! The paper's headline numbers are per-call costs (Table 1); what an
//! operator actually buys with them is *headroom*: how much offered load
//! a port sustains before tail latency departs. This harness draws that
//! curve for all three ported applications, the way the tail-latency
//! literature prescribes — **open loop**: arrivals come from a seeded
//! Poisson schedule at a configured offered rate and are never gated on
//! completions, so queueing collapse shows up in the tail instead of
//! silently throttling the load.
//!
//! **Section A — knee curves (deterministic virtual time).** Per app
//! (memcached, lighttpd, openVPN) × interface (`hot` = HotCalls on the
//! Auto transport, `sdk` = the plain SDK port), the harness measures the
//! per-call interface cost in *virtual cycles* from the live [`AppEnv`]
//! ledger, then runs an open-loop M/D/c queueing model over the
//! [`VirtualEpoll`] event loop: 100,000 simulated connections each keep
//! one armed next-arrival timer (the loop's `peak_pending` is the
//! witness), arrivals multiplex onto the transport's submission lanes,
//! and per-event latency (completion − scheduled arrival) feeds the
//! PR-5 stage histogram type ([`CycleHist`]), from which each offered
//! rate's p50/p99/p999 row is read. The **knee** of a curve is the
//! highest offered rate whose p99 still sits within 10× of the curve's
//! low-load p99. Self-check: the HotCalls knee must be ≥ 2× the SDK
//! knee for every app — the paper's per-call saving, restated as
//! sustainable load. Virtual time makes this section exactly
//! reproducible across hosts.
//!
//! **Section B — real-plane open loop (wall clock).** The same generator
//! drives a live `RingServer` through the [`Reactor`]: Poisson arrivals
//! issued on schedule against the wall clock, completions reaped
//! asynchronously, latency charged from the *scheduled* instant (the
//! coordinated-omission correction) and harness overload reported as
//! [`Lateness`] rather than averaged into the tail. Tickets are
//! conserved exactly: every submission is retired.
//!
//! Usage: `load_curves [OUT.json] [--smoke] [--trace-out T.json]
//! [--prom-out M.prom] [--baseline-json BASE.json]`. Output: curves on
//! stdout plus `BENCH_load.json`; exits non-zero if any knee check,
//! conservation check, or the telemetry-overhead baseline gate fails.
//! The JSON's `check_point_calls_per_sec` (a zero-config 1-requester
//! grid cell, same shape as `ablation_ctl`'s) is what `--baseline-json`
//! compares against the telemetry-off artifact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use apps::porting::ApiDecl;
use apps::{lighttpd, memcached, openvpn, AppEnv, IfaceMode, RtTransport};
use bench::artifact::ArtifactSink;
use bench::report::{banner, Json};
use bench::stats::{knee_of, rate_grid, CurvePoint};
use bench::telemetry::append_snapshot;
use hotcalls::rt::{CallTable, RingServer};
use hotcalls::telemetry::CycleHist;
use hotcalls::{Controller, HotCallConfig, Reactor, ResponderPolicy, TelemetryRegistry};
use sgx_sim::{Cycles, SimConfig, VirtualEpoll};
use workloads::openloop::{Lateness, OpenLoopPlan};

/// Simulated concurrent connections per Section-A run (the regime the
/// event loop exists for).
const CONNS: usize = 100_000;
/// Virtual core frequency, cycles per second (sgx-sim's 4 GHz core).
const CYCLES_PER_SEC: f64 = 4e9;
/// Cycles per nanosecond on the 4 GHz virtual core.
const CYCLES_PER_NS: u64 = 4;
/// Warm-up calls before the per-call cost probes (routes settle, rings
/// warm — the paper measures warm costs too).
const PROBE_WARMUP: u32 = 32;
/// Measured calls per cost probe.
const PROBE_SAMPLES: u32 = 256;
/// A curve's knee: the highest offered rate whose p99 is still within
/// this factor of the curve's low-load p99.
const KNEE_P99_FACTOR: f64 = 10.0;
/// The headline separation: HotCalls must sustain at least this multiple
/// of the SDK port's knee rate, per application.
const MIN_KNEE_RATIO: f64 = 2.0;
/// Section-B offered rate, events per second (well inside the ring's
/// closed-loop capacity, so lateness stays a health meter, not the
/// story).
const OPEN_LOOP_RATE: f64 = 200_000.0;
/// Ring slots for Section B and the check point (ablation parity).
const RING_CAPACITY: usize = 64;
/// In-flight ceiling for the Section-B reactor: half the ring. The slot
/// a submission claims is positional (seq mod capacity), so its previous
/// occupant — seq `head - capacity` — must already be redeemed. Keeping
/// at most capacity/2 tickets outstanding (drained oldest-first) keeps
/// every blocking occupant out of our own unredeemed set, so `submit`
/// can never spin on a slot only we could free.
const INFLIGHT_CEILING: usize = RING_CAPACITY / 2;
/// Controller tick stride for the check-point cell (ablation parity).
const GRID_TICK_EVERY: u64 = 8_192;
/// The telemetry-overhead budget against `--baseline-json`.
const MIN_BASELINE_RATIO: f64 = 0.97;

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

// ------------------------------------------------------- section A ------

/// A measured interface: service cost and parallelism for the queue
/// model, plus the informational host-time cost of the same call.
struct ModeProbe {
    mode: &'static str,
    lanes: usize,
    cost_cycles: f64,
    host_ns: f64,
}

/// Measures one app × interface: per-call cost in virtual interface
/// cycles (what the queue model charges — deterministic, host-independent)
/// and in host nanoseconds (informational; it includes the simulator's
/// own bookkeeping and is *not* what the knee is computed from).
fn probe_mode(app: &AppSpec, mode: &'static str, iface: IfaceMode) -> ModeProbe {
    let table = (app.api_table)();
    let mut env = AppEnv::with_transport(
        SimConfig::builder().seed(app.seed).build(),
        iface,
        &table,
        app.heap,
        RtTransport::Auto,
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
    let host_ns = env
        .sample_call_cost(app.probe, PROBE_WARMUP, PROBE_SAMPLES)
        .expect("probe api");
    ModeProbe {
        mode,
        lanes: env.lanes(),
        cost_cycles,
        host_ns,
    }
}

/// Runs one open-loop point of the queue model in virtual time.
///
/// Every connection keeps exactly one armed next-arrival timer in the
/// [`VirtualEpoll`] — `peak_pending` therefore witnesses `conns`-way
/// concurrency. When a connection's timer fires, its call is dispatched
/// to its lane (deterministic `conn % lanes` affinity), serves for
/// `cost` cycles behind whatever that lane already owes, and the
/// completion-minus-arrival latency lands in the histogram. Arrival
/// draws are per-connection Poisson streams (the superposition is the
/// offered Poisson rate), with each stream's warm-up arrival at t=0
/// discarded so the run starts stationary instead of with a synchronized
/// 100k-connection burst.
fn simulate_point(
    cost: u64,
    lanes: usize,
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
    let mut lane_busy = vec![0u64; lanes.max(1)];
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
            let lane = conn % lane_busy.len();
            let start = ev.at.get().max(lane_busy[lane]);
            let done = start + cost;
            lane_busy[lane] = done;
            hist.record(done - ev.at.get());
        }
    }
    (hist, ep.peak_pending())
}

/// A full app × interface curve.
struct ModeCurve {
    probe: ModeProbe,
    capacity_per_sec: f64,
    knee_per_sec: f64,
    peak_pending: usize,
    points: Vec<CurvePoint>,
}

/// Sweeps one interface over the shared offered-rate grid.
fn sweep_mode(probe: ModeProbe, grid: &[f64], events_per_conn: usize, seed: u64) -> ModeCurve {
    let cost = (probe.cost_cycles.round() as u64).max(1);
    let capacity_per_sec = probe.lanes as f64 * CYCLES_PER_SEC / cost as f64;
    let mut points = Vec::with_capacity(grid.len());
    let mut peak = 0usize;
    for (i, &rate) in grid.iter().enumerate() {
        let (hist, p) = simulate_point(
            cost,
            probe.lanes,
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
    let knee_per_sec = knee_of(&points, KNEE_P99_FACTOR);
    ModeCurve {
        probe,
        capacity_per_sec,
        knee_per_sec,
        peak_pending: peak,
        points,
    }
}

// ------------------------------------------------------- section B ------

/// What the real-plane open-loop run reports.
struct OpenLoopResult {
    offered_per_sec: f64,
    events: usize,
    issued: u64,
    reaped: u64,
    lateness: Lateness,
    hist: CycleHist,
    tickets_conserved: bool,
}

/// Drives a live ring through the [`Reactor`] from an open-loop plan:
/// issue on schedule, reap asynchronously, charge latency from the
/// scheduled instant.
fn open_loop_section(events: usize, registry: &TelemetryRegistry) -> OpenLoopResult {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x + 1);
    let server = RingServer::spawn_adaptive(
        table,
        RING_CAPACITY,
        ResponderPolicy::auto(),
        HotCallConfig::auto(),
    )
    .expect("valid shape");
    registry.register_plane(server.telemetry_provider("open-loop"));
    let requester = server.requester();
    let mut reactor = Reactor::new(&requester);

    let plan = OpenLoopPlan::new(0x10ad, OPEN_LOOP_RATE, events, 4_096);
    let mut lateness = Lateness::new();
    let mut hist = CycleHist::new();
    // seq → (scheduled instant ns, request payload): latency is measured
    // from the *schedule*, and the response is checked against the
    // payload so a crossed wire cannot hide in the tail.
    let mut pending: HashMap<u64, (u64, u64)> = HashMap::with_capacity(INFLIGHT_CEILING * 2);
    let mut issued = 0u64;
    let mut reaped = 0u64;
    let start = Instant::now();
    macro_rules! retire {
        () => {
            |seq: u64, resp: u64| {
                let (sched_ns, x) = pending.remove(&seq).expect("reaped an unknown seq");
                assert_eq!(resp, x + 1, "response crossed wires");
                let now_ns = start.elapsed().as_nanos() as u64;
                hist.record(now_ns.saturating_sub(sched_ns));
                reaped += 1;
            }
        };
    }
    for (i, sched_ns) in plan.arrivals().enumerate() {
        let sched = start + Duration::from_nanos(sched_ns);
        // Until the next scheduled arrival: reap. Never the other way
        // around — an arrival is issued the moment its instant passes,
        // however deep the completion backlog is.
        while Instant::now() < sched {
            if reactor.inflight() > 0 {
                reactor.drain_until(sched, retire!()).expect("reap");
            } else {
                std::hint::spin_loop();
            }
        }
        while reactor.inflight() >= INFLIGHT_CEILING {
            reactor
                .drain_until(Instant::now() + Duration::from_micros(50), retire!())
                .expect("reap");
        }
        lateness.observe(sched_ns, start.elapsed().as_nanos() as u64);
        let x = i as u64;
        let seq = reactor.submit(id, x).expect("submit");
        pending.insert(seq, (sched_ns, x));
        issued += 1;
    }
    reactor
        .drain_all(Duration::from_millis(5), retire!())
        .expect("final drain");
    let tickets_conserved = issued == reaped && reactor.inflight() == 0 && pending.is_empty();
    server.shutdown();
    OpenLoopResult {
        offered_per_sec: OPEN_LOOP_RATE,
        events,
        issued,
        reaped,
        lateness,
        hist,
        tickets_conserved,
    }
}

// ------------------------------------------------------ check point -----

/// The telemetry-overhead reference cell, same shape as `ablation_ctl`'s:
/// one requester hammering a zero-config adaptive ring, controller ticked
/// on the grid stride. Median of three trials.
fn check_point(measure: Duration) -> f64 {
    let ctl = Controller::auto();
    let mut trials: Vec<f64> = (0..3)
        .map(|_| {
            let mut table: CallTable<u64, u64> = CallTable::new();
            let id = table.register(|x| x + 1);
            let server = RingServer::spawn_adaptive(
                table,
                RING_CAPACITY,
                ResponderPolicy::auto(),
                HotCallConfig::auto(),
            )
            .expect("valid shape");
            let stop = AtomicBool::new(false);
            let start = Instant::now();
            let calls: u64 = std::thread::scope(|s| {
                let r = server.requester();
                let (stop, server, ctl) = (&stop, &server, &ctl);
                let handle = s.spawn(move || {
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        assert_eq!(r.call(id, done).unwrap(), done + 1);
                        done += 1;
                        if done.is_multiple_of(GRID_TICK_EVERY) {
                            let d = ctl.tick(&server.telemetry("check").stats);
                            if let Some(n) = d.responders {
                                server.set_active(n);
                            }
                        }
                    }
                    done
                });
                std::thread::sleep(measure);
                stop.store(true, Ordering::Relaxed);
                handle.join().unwrap()
            });
            let secs = start.elapsed().as_secs_f64();
            server.shutdown();
            calls as f64 / secs
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[trials.len() / 2]
}

// ------------------------------------------------------------- main -----

fn main() {
    let args = ArtifactSink::parse("BENCH_load.json");
    banner("load_curves: latency vs offered load (open loop)");
    let (grid_points, events_per_conn, measure) = if args.smoke {
        (6usize, 2usize, Duration::from_millis(80))
    } else {
        (12, 4, Duration::from_millis(400))
    };
    println!(
        "{CONNS} simulated connections, {grid_points}-point rate grid, \
         {events_per_conn} events/conn, knee at p99 <= {KNEE_P99_FACTOR:.0}x low-load"
    );
    println!();

    let registry = TelemetryRegistry::new();
    let mut ok = true;

    // Section A: the knee curves, one app at a time, both interfaces on
    // a shared grid so their knees are directly comparable.
    struct AppResult {
        name: &'static str,
        probe_api: &'static str,
        curves: Vec<ModeCurve>,
        knee_ratio: f64,
    }
    let mut app_results = Vec::with_capacity(APPS.len());
    for app in &APPS {
        let hot = probe_mode(app, "hot", IfaceMode::HotCalls);
        let sdk = probe_mode(app, "sdk", IfaceMode::Sdk);
        println!(
            "{}: `{}` costs {:.0} cycles/call hot ({} lanes) vs {:.0} sdk",
            app.name, app.probe, hot.cost_cycles, hot.lanes, sdk.cost_cycles
        );
        let capacities = [
            hot.lanes as f64 * CYCLES_PER_SEC / hot.cost_cycles,
            sdk.lanes as f64 * CYCLES_PER_SEC / sdk.cost_cycles,
        ];
        let grid = rate_grid(&capacities, grid_points);
        let curves: Vec<ModeCurve> = [hot, sdk]
            .into_iter()
            .map(|probe| sweep_mode(probe, &grid, events_per_conn, app.seed))
            .collect();
        for curve in &curves {
            println!(
                "  {:>4} knee {:>12.0}/s:",
                curve.probe.mode, curve.knee_per_sec
            );
            for p in &curve.points {
                println!(
                    "    {:>12.0}/s  p50 {:>10} ns  p99 {:>10} ns  p999 {:>10} ns",
                    p.offered_per_sec, p.p50_ns, p.p99_ns, p.p999_ns
                );
            }
            if curve.peak_pending != CONNS {
                eprintln!(
                    "FAIL: {} `{}` multiplexed only {} concurrent connections (want {CONNS})",
                    app.name, curve.probe.mode, curve.peak_pending
                );
                ok = false;
            }
        }
        let knee_ratio = curves[0].knee_per_sec / curves[1].knee_per_sec.max(1.0);
        println!("  hot/sdk knee ratio {knee_ratio:.1}x");
        println!();
        if knee_ratio < MIN_KNEE_RATIO {
            eprintln!(
                "FAIL: {} HotCalls knee is only {knee_ratio:.2}x the SDK knee \
                 (need >= {MIN_KNEE_RATIO:.0}x)",
                app.name
            );
            ok = false;
        }
        app_results.push(AppResult {
            name: app.name,
            probe_api: app.probe,
            curves,
            knee_ratio,
        });
    }

    // Section B: the live plane under the same discipline.
    let open_loop_events = if args.smoke { 20_000 } else { 100_000 };
    let ol = open_loop_section(open_loop_events, &registry);
    println!(
        "open loop on the live ring: {} events at {:.0}/s, p50 {} ns p99 {} ns \
         p999 {} ns, lateness {}",
        ol.events,
        ol.offered_per_sec,
        ol.hist.percentile(0.50),
        ol.hist.percentile(0.99),
        ol.hist.percentile(0.999),
        ol.lateness
    );
    if !ol.tickets_conserved {
        eprintln!(
            "FAIL: open-loop tickets not conserved (issued {} reaped {})",
            ol.issued, ol.reaped
        );
        ok = false;
    }

    // The telemetry-overhead reference point and its gate.
    let check_cps = check_point(measure);
    println!("check point (zero-config, 1 requester): {check_cps:.0} calls/sec");
    ok &= args.baseline_gate("check_point_calls_per_sec", check_cps, MIN_BASELINE_RATIO);

    let snap = registry.snapshot();
    let mut j = Json::bench("load_curves");
    j.field_bool("smoke", args.smoke)
        .field_u64("conns", CONNS as u64)
        .field_u64("events_per_conn", events_per_conn as u64)
        .field_u64("grid_points", grid_points as u64)
        .field_f64("knee_p99_factor", KNEE_P99_FACTOR, 1)
        .field_f64("min_knee_ratio", MIN_KNEE_RATIO, 1);
    j.begin_array("apps");
    for app in &app_results {
        j.begin_item()
            .field_str("app", app.name)
            .field_str("probe_api", app.probe_api)
            .field_f64("knee_ratio", app.knee_ratio, 2)
            .field_bool("knee_ok", app.knee_ratio >= MIN_KNEE_RATIO);
        j.begin_array("modes");
        for curve in &app.curves {
            j.begin_item()
                .field_str("mode", curve.probe.mode)
                .field_u64("lanes", curve.probe.lanes as u64)
                .field_f64("cost_cycles_per_call", curve.probe.cost_cycles, 1)
                .field_f64("host_ns_per_call", curve.probe.host_ns, 1)
                .field_f64("capacity_per_sec", curve.capacity_per_sec, 0)
                .field_f64("knee_per_sec", curve.knee_per_sec, 0)
                .field_u64("peak_pending_conns", curve.peak_pending as u64);
            j.begin_array("points");
            for p in &curve.points {
                j.begin_item()
                    .field_f64("offered_per_sec", p.offered_per_sec, 0)
                    .field_u64("p50_ns", p.p50_ns)
                    .field_u64("p99_ns", p.p99_ns)
                    .field_u64("p999_ns", p.p999_ns)
                    .end_item();
            }
            j.end_array().end_item();
        }
        j.end_array().end_item();
    }
    j.end_array();
    j.begin_object("open_loop")
        .field_f64("offered_per_sec", ol.offered_per_sec, 0)
        .field_u64("events", ol.events as u64)
        .field_u64("issued", ol.issued)
        .field_u64("reaped", ol.reaped)
        .field_f64("late_fraction", ol.lateness.late_fraction(), 4)
        .field_u64("max_late_ns", ol.lateness.max_late_ns)
        .field_f64("mean_late_ns", ol.lateness.mean_late_ns(), 1)
        .field_u64("p50_ns", ol.hist.percentile(0.50))
        .field_u64("p99_ns", ol.hist.percentile(0.99))
        .field_u64("p999_ns", ol.hist.percentile(0.999))
        .field_bool("tickets_conserved", ol.tickets_conserved)
        .end_object();
    j.field_f64("check_point_calls_per_sec", check_cps, 1);
    append_snapshot(&mut j, &snap);
    args.write(&j.finish(), &snap);

    if !ok {
        std::process::exit(1);
    }
    println!(
        "all load-curve claims hold: {CONNS}-way multiplexing witnessed, HotCalls knee \
         >= {MIN_KNEE_RATIO:.0}x SDK on every app, open-loop tickets conserved"
    );
}
