//! `ablation_shard` — the sharded multi-ring data plane against the
//! single-ring pool, across a requesters × shards grid.
//!
//! The paper's Fig. 9 gives every call channel its own mailbox precisely
//! so that concurrent callers never contend on shared plane state. The
//! sharded plane is that idea as a managed runtime object: N independent
//! rings, a router pinning each requester to a home shard, and responders
//! that steal from sibling shards before dozing. This harness witnesses
//! the three claims the design makes:
//!
//! **Section A — scaling grid.** IO workload (the handler blocks ~200 µs,
//! an ocall-shaped body; blocked threads hold no core, so shard wins show
//! even on small hosts). For each requester count, throughput through:
//!
//! * the mutex-slot baseline mailbox (the pre-pool data plane),
//! * a sharded plane of {1, 2, 4} shards (one responder per shard), and
//! * a single-ring pool with the *same thread budget* (responders =
//!   shards), isolating ring sharding itself from mere thread count.
//!
//! The 1-shard column is the single-ring, single-responder plane — the
//! paper's own interface shape — and is the "single ring" that the
//! headline ≥ 2× claim at 4 requesters / 4 shards is checked against.
//!
//! **Section B — skew p99.** 4 requesters on a 4-shard plane, once routed
//! uniformly (round-robin homes) and once all pinned to shard 0. Work
//! stealing must keep the bursty-skewed p99 close to the uniform p99: the
//! three idle home responders probe shard 0 and drain it concurrently.
//!
//! **Section C — adaptive governor.** `ShardPolicy::elastic(1, 4)` vs the
//! best static shard count from Section A at 4 requesters. The governor
//! starts with every shard active and parks only on a useful-work
//! drought, so under sustained load the elastic plane must hold the best
//! static shape.
//!
//! Usage: `ablation_shard [OUT.json] [--smoke] [--trace-out T.json]
//! [--prom-out M.prom] [--baseline-json BASE.json]`. Output: tables on
//! stdout plus `BENCH_shard.json`; exits non-zero if a claim fails. The
//! JSON's `telemetry` section snapshots the check-point, skew and
//! adaptive planes, and its top-level `check_point_calls_per_sec` field
//! is the telemetry-overhead reference: pass a `BENCH_shard.json`
//! produced by a `--features telemetry-off` build via `--baseline-json`
//! and this run gates itself on keeping ≥ 97% of that baseline's
//! throughput at the 4-requester / 4-shard check point.
//!
//! Threshold discipline (same as `tests/governor_regression.rs`): the
//! gates assert *multiples, not percents*, and the smoke gates are looser
//! still, because CI hosts are small, noisy, single-core machines. The
//! full-mode speedup gate (≥ 2×) holds even at one hardware thread
//! because the win being measured is overlapping blocked handlers, not
//! spreading spin loops over cores; the skew gate carries an absolute
//! slack floor because a single preemption on a busy host moves a p99 by
//! milliseconds.

use std::time::{Duration, Instant};

use bench::artifact::ArtifactSink;
use bench::report::{banner, Json};
use bench::rt_baseline::{scaling_throughput, MutexMailbox};
use bench::telemetry::append_snapshot;
use hotcalls::rt::{CallTable, RingServer};
use hotcalls::{
    HotCallConfig, ResponderPolicy, RingStats, ShardPolicy, Snapshot, TelemetryRegistry,
};

/// Slots per shard (and capacity of the single-ring comparison pools).
const RING_CAPACITY: usize = 64;
/// The IO-shaped handler: block, then answer.
const IO_HANDLER_SLEEP: Duration = Duration::from_micros(200);
/// Shard counts swept in the scaling grid.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// The requester/shard point the headline claims are checked at.
const CHECK_REQUESTERS: usize = 4;
const CHECK_SHARDS: usize = 4;
/// The overhead gate: an instrumented run must keep at least this
/// fraction of the telemetry-off baseline's check-point throughput
/// (≤ 3% measured telemetry overhead).
const MIN_BASELINE_RATIO: f64 = 0.97;

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Idle responders doze quickly: with a blocking handler the plane lives
/// off wakeups, not spin polls, and surplus spinners on a small host only
/// steal the core from the threads doing work.
fn pool_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: Some(256),
        drain_batch: 1,
        ..HotCallConfig::patient()
    }
}

fn io_table() -> CallTable<u64, u64> {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| {
        std::thread::sleep(IO_HANDLER_SLEEP);
        x + 1
    });
    assert_eq!(id, 0, "first registration is id 0");
    table
}

fn io_sharded(policy: ShardPolicy) -> RingServer<u64, u64> {
    RingServer::spawn_sharded(io_table(), RING_CAPACITY, policy, pool_config())
        .expect("plane shape is valid")
}

/// calls/sec through a sharded plane with `requesters` concurrent
/// callers, each on its router-assigned home shard (or all pinned to
/// shard 0 when `pin_to_zero`). Returns the rate and the final stats.
/// When `register` names a registry, the plane reports into it (the
/// provider reads `Arc`-shared state, so the snapshot at the end of the
/// run still sees this plane's counters after shutdown).
fn sharded_throughput(
    requesters: usize,
    policy: ShardPolicy,
    pin_to_zero: bool,
    measure: Duration,
    register: Option<(&TelemetryRegistry, &str)>,
) -> (f64, RingStats) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let server = io_sharded(policy);
    if let Some((registry, name)) = register {
        registry.register_plane(server.telemetry_provider(name));
    }
    let callers: Vec<_> = (0..requesters)
        .map(|_| {
            if pin_to_zero {
                server.requester_on(0).expect("shard 0 always exists")
            } else {
                server.requester()
            }
        })
        .collect();
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for r in &callers {
            s.spawn(|| {
                let mut i = 0u64;
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if r.call(0, i).is_ok() {
                        done += 1;
                    }
                    i += 1;
                }
                completed.fetch_add(done, Ordering::Relaxed);
            });
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = server.ring_stats();
    server.shutdown();
    (completed.load(Ordering::Relaxed) as f64 / secs, stats)
}

/// calls/sec through a single-ring pool with `responders` threads — the
/// equal-thread-budget comparison for a `responders`-shard plane.
fn single_ring_throughput(requesters: usize, responders: usize, measure: Duration) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let server = RingServer::spawn_adaptive(
        io_table(),
        RING_CAPACITY,
        ResponderPolicy::fixed(responders),
        pool_config(),
    )
    .expect("pool shape is valid");
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..requesters {
            let r = server.requester();
            let (stop, completed) = (&stop, &completed);
            s.spawn(move || {
                let mut i = 0u64;
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if r.call(0, i).is_ok() {
                        done += 1;
                    }
                    i += 1;
                }
                completed.fetch_add(done, Ordering::Relaxed);
            });
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
    });
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    completed.load(Ordering::Relaxed) as f64 / secs
}

/// calls/sec through the mutex-slot baseline with `requesters` callers.
fn mutex_throughput(requesters: usize, measure: Duration) -> f64 {
    let mb = MutexMailbox::spawn(io_table(), pool_config());
    let rate = scaling_throughput(&mb, 0, requesters, |i| i, measure);
    mb.shutdown();
    rate
}

/// p99 call latency (µs) on a 4-shard plane under uniform or fully
/// skewed routing.
fn skew_p99_us(
    requesters: usize,
    pin_to_zero: bool,
    measure: Duration,
    register: Option<(&TelemetryRegistry, &str)>,
) -> (f64, RingStats) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let server = io_sharded(ShardPolicy::fixed(CHECK_SHARDS));
    if let Some((registry, name)) = register {
        registry.register_plane(server.telemetry_provider(name));
    }
    let callers: Vec<_> = (0..requesters)
        .map(|_| {
            if pin_to_zero {
                server.requester_on(0).expect("shard 0 always exists")
            } else {
                server.requester()
            }
        })
        .collect();
    let stop = AtomicBool::new(false);
    let all = parking_lot::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for r in &callers {
            s.spawn(|| {
                let mut lat = Vec::with_capacity(4_096);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if r.call(0, i).is_ok() {
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    i += 1;
                }
                all.lock().extend_from_slice(&lat);
            });
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
    });
    let stats = server.ring_stats();
    server.shutdown();
    let mut lat = all.into_inner();
    lat.sort_unstable();
    let p99 = if lat.is_empty() {
        0.0
    } else {
        lat[(lat.len() - 1).min(lat.len() * 99 / 100)] as f64
    };
    (p99, stats)
}

struct GridCell {
    requesters: usize,
    shards: usize,
    sharded_cps: f64,
    pool_cps: f64,
    steals: u64,
    steal_hits: u64,
    cross_shard_wakes: u64,
}

fn main() {
    let args = ArtifactSink::parse("BENCH_shard.json");
    let registry = TelemetryRegistry::new();
    // Smoke gates are deliberately loose (CI runs on one noisy core);
    // full gates assert the headline multiples.
    let (measure, min_speedup, skew_ratio, skew_slack_us, min_adaptive_ratio) = if args.smoke {
        (Duration::from_millis(80), 1.5, 1.5, 5_000.0, 0.55)
    } else {
        (Duration::from_millis(400), 2.0, 1.5, 2_000.0, 0.75)
    };
    let requester_counts: &[usize] = if args.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };

    banner("Ablation: sharded multi-ring plane vs single ring vs mutex mailbox");
    println!(
        "io handler: {} us sleep, {} slots/shard, host threads {}",
        IO_HANDLER_SLEEP.as_micros(),
        RING_CAPACITY,
        host_threads()
    );
    println!();

    // Section A: the scaling grid.
    println!("scaling grid (calls/sec; pool = single ring, equal thread budget):");
    let mut mutex_rows = Vec::new();
    let mut grid = Vec::new();
    for &req in requester_counts {
        let mutex_cps = mutex_throughput(req, measure);
        println!("  {req} req | mutex-slot {mutex_cps:>10.0}");
        mutex_rows.push((req, mutex_cps));
        for &shards in &SHARD_COUNTS {
            // The check-requester row reports into the snapshot: the
            // 1-shard plane (the single-ring reference) and the check
            // point the overhead gate reads.
            let plane_name = format!("grid-{req}req-{shards}shards");
            let register = (req == CHECK_REQUESTERS && (shards == 1 || shards == CHECK_SHARDS))
                .then_some((&registry, plane_name.as_str()));
            let (sharded_cps, stats) =
                sharded_throughput(req, ShardPolicy::fixed(shards), false, measure, register);
            let pool_cps = single_ring_throughput(req, shards, measure);
            println!(
                "  {req} req | {shards} shards {sharded_cps:>10.0}  pool({shards} resp) \
                 {pool_cps:>10.0}  (steals {} hits {} xwakes {})",
                stats.steals(),
                stats.steal_hits(),
                stats.cross_shard_wakes()
            );
            grid.push(GridCell {
                requesters: req,
                shards,
                sharded_cps,
                pool_cps,
                steals: stats.steals(),
                steal_hits: stats.steal_hits(),
                cross_shard_wakes: stats.cross_shard_wakes(),
            });
        }
    }
    println!();

    // Section B: bursty skew vs uniform routing.
    let (uniform_p99, _) = skew_p99_us(
        CHECK_REQUESTERS,
        false,
        measure,
        Some((&registry, "skew-uniform")),
    );
    let (skewed_p99, skew_stats) = skew_p99_us(
        CHECK_REQUESTERS,
        true,
        measure,
        Some((&registry, "skew-shard0")),
    );
    println!("skew p99 ({CHECK_REQUESTERS} requesters, {CHECK_SHARDS} shards):");
    println!("  uniform routing : {uniform_p99:>8.0} us");
    println!(
        "  all on shard 0  : {skewed_p99:>8.0} us  (steals {} hits {})",
        skew_stats.steals(),
        skew_stats.steal_hits()
    );
    println!();

    // Section C: adaptive governor vs the best static shape.
    let (adaptive_cps, adaptive_stats) = sharded_throughput(
        CHECK_REQUESTERS,
        ShardPolicy::elastic(1, CHECK_SHARDS),
        false,
        measure,
        Some((&registry, "adaptive")),
    );
    let (best_static_shards, best_static_cps) = grid
        .iter()
        .filter(|c| c.requesters == CHECK_REQUESTERS)
        .map(|c| (c.shards, c.sharded_cps))
        .fold(
            (0, 0.0),
            |best, cand| if cand.1 > best.1 { cand } else { best },
        );
    let adaptive_ratio = adaptive_cps / best_static_cps;
    println!("adaptive governor ({CHECK_REQUESTERS} requesters, elastic 1..{CHECK_SHARDS}):");
    println!(
        "  adaptive    : {adaptive_cps:>10.0} calls/sec (raises {} parks {})",
        adaptive_stats.governor.wakes, adaptive_stats.governor.parks
    );
    println!("  best static : {best_static_cps:>10.0} calls/sec ({best_static_shards} shards)");
    println!("  ratio       : {adaptive_ratio:.2}");
    println!();

    let single_ring_cps = grid
        .iter()
        .find(|c| c.requesters == CHECK_REQUESTERS && c.shards == 1)
        .map(|c| c.sharded_cps)
        .expect("grid covers the check point");
    let check_cps = grid
        .iter()
        .find(|c| c.requesters == CHECK_REQUESTERS && c.shards == CHECK_SHARDS)
        .map(|c| c.sharded_cps)
        .expect("grid covers the check point");
    let speedup = check_cps / single_ring_cps;
    let skew_ok = skewed_p99 <= uniform_p99 * skew_ratio + skew_slack_us;
    let adaptive_ok = adaptive_ratio >= min_adaptive_ratio;

    let snap = registry.snapshot();
    let json = render_json(
        &args,
        measure,
        &mutex_rows,
        &grid,
        uniform_p99,
        skewed_p99,
        &skew_stats,
        adaptive_cps,
        best_static_shards,
        best_static_cps,
        speedup,
        check_cps,
        &snap,
    );
    args.write(&json, &snap);

    // Self-check the claims this artifact exists to witness.
    let mut ok = true;
    if speedup < min_speedup {
        eprintln!(
            "FAIL: {CHECK_SHARDS} shards at {CHECK_REQUESTERS} requesters is only \
             {speedup:.2}x the single ring (need >= {min_speedup:.1}x)"
        );
        ok = false;
    }
    if !skew_ok {
        eprintln!(
            "FAIL: skewed p99 {skewed_p99:.0} us exceeds uniform p99 {uniform_p99:.0} us \
             * {skew_ratio:.1} + {skew_slack_us:.0} us slack — stealing is not absorbing \
             the burst"
        );
        ok = false;
    }
    if !adaptive_ok {
        eprintln!(
            "FAIL: adaptive plane reaches only {adaptive_ratio:.2} of the best static \
             shape (need >= {min_adaptive_ratio:.2})"
        );
        ok = false;
    }
    // The telemetry-overhead gate: against a baseline artifact from a
    // `--features telemetry-off` build, the instrumented check point must
    // keep >= MIN_BASELINE_RATIO of the baseline's throughput.
    ok &= args.baseline_gate("check_point_calls_per_sec", check_cps, MIN_BASELINE_RATIO);

    if !ok {
        std::process::exit(1);
    }
    println!(
        "all shard claims hold: {CHECK_SHARDS} shards >= {min_speedup:.1}x single ring at \
         {CHECK_REQUESTERS} requesters, skewed p99 within bounds, adaptive >= \
         {min_adaptive_ratio:.2}x best static"
    );
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &ArtifactSink,
    measure: Duration,
    mutex_rows: &[(usize, f64)],
    grid: &[GridCell],
    uniform_p99: f64,
    skewed_p99: f64,
    skew_stats: &RingStats,
    adaptive_cps: f64,
    best_static_shards: usize,
    best_static_cps: f64,
    speedup: f64,
    check_cps: f64,
    snap: &Snapshot,
) -> String {
    let mut j = Json::bench("ablation_shard");
    j.field_bool("smoke", args.smoke)
        .field_u64("host_threads", host_threads() as u64)
        .field_u64("measure_ms", measure.as_millis() as u64)
        .field_u64("io_handler_us", IO_HANDLER_SLEEP.as_micros() as u64)
        .field_u64("ring_capacity_per_shard", RING_CAPACITY as u64)
        // The overhead-gate reference: sharded calls/sec at the
        // CHECK_REQUESTERS × CHECK_SHARDS grid cell. `--baseline-json`
        // reads this field out of a telemetry-off run's artifact.
        .field_f64("check_point_calls_per_sec", check_cps, 1);
    j.begin_array("mutex_baseline");
    for &(req, cps) in mutex_rows {
        j.begin_item();
        j.field_u64("requesters", req as u64)
            .field_f64("calls_per_sec", cps, 1);
        j.end_item();
    }
    j.end_array();
    j.begin_array("scaling_grid");
    for c in grid {
        j.begin_item();
        j.field_u64("requesters", c.requesters as u64)
            .field_u64("shards", c.shards as u64)
            .field_f64("sharded_calls_per_sec", c.sharded_cps, 1)
            .field_f64("pool_calls_per_sec", c.pool_cps, 1)
            .field_u64("steals", c.steals)
            .field_u64("steal_hits", c.steal_hits)
            .field_u64("cross_shard_wakes", c.cross_shard_wakes);
        j.end_item();
    }
    j.end_array();
    j.begin_object("skew");
    j.field_u64("requesters", CHECK_REQUESTERS as u64)
        .field_u64("shards", CHECK_SHARDS as u64)
        .field_f64("uniform_p99_us", uniform_p99, 1)
        .field_f64("skewed_p99_us", skewed_p99, 1)
        .field_f64(
            "ratio",
            if uniform_p99 > 0.0 {
                skewed_p99 / uniform_p99
            } else {
                0.0
            },
            3,
        )
        .field_u64("steals", skew_stats.steals())
        .field_u64("steal_hits", skew_stats.steal_hits());
    j.end_object();
    j.begin_object("adaptive");
    j.field_f64("adaptive_calls_per_sec", adaptive_cps, 1)
        .field_u64("best_static_shards", best_static_shards as u64)
        .field_f64("best_static_calls_per_sec", best_static_cps, 1)
        .field_f64("ratio", adaptive_cps / best_static_cps, 3);
    j.end_object();
    j.begin_object("checks");
    j.field_f64("speedup_vs_single_ring", speedup, 2);
    j.end_object();
    append_snapshot(&mut j, snap);
    j.finish()
}
