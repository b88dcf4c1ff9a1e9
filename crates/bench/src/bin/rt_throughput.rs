//! `rt_throughput` — machine-readable throughput matrix for the pooled
//! HotCalls runtime.
//!
//! Sweeps requesters × responders (1/2/4/8 × 1/2/4, ceiling configurable)
//! over the MPMC ring pool under two workloads:
//!
//! * `cpu` — the handler is a trivial increment; measures pure data-plane
//!   overhead. On a shared-core host extra responders cannot add CPU, so
//!   this axis shows the pool costs nothing when it cannot help.
//! * `io`  — the handler blocks ~200 µs (an IO-bound ocall body, e.g. a
//!   `write` the enclave shipped out). Blocked responders hold no core, so
//!   a second responder overlaps the waits and multiplies throughput —
//!   the case batched multi-responder draining exists for.
//!
//! Each workload also gets an **adaptive** row per requester count: the
//! governor (`ResponderPolicy::elastic(1, max)`) parks surplus responders
//! instead of letting them churn, and its park/wake decision counts land
//! in the JSON, so the oversubscription regression stays visible — and
//! fixed — in the artifact.
//!
//! A sharded section runs the same requester sweep against the
//! multi-ring plane (`--shards`, default 2): each requester is pinned to
//! a home shard by the router, responders steal across shards, and the
//! per-shard steal counters land in the JSON.
//!
//! Also times the single-slot mailbox round trip, lock-free vs the
//! preserved mutex-slot baseline, and takes the mutex baseline through
//! the same requester counts so the scaling rows compare like-for-like.
//!
//! Usage:
//!
//! ```text
//! rt_throughput [OUT.json] [--workload cpu|io|all] [--max-responders N]
//!               [--shards N] [--measure-ms N] [--fused] [--zero-config]
//!               [--trace-out T.json] [--prom-out M.prom]
//! ```
//!
//! `--fused` adds a fused-mode row per requester count: the adaptive pool
//! with `FusedMode::Auto`. Under this bin's continuous saturated loops
//! the responders never fall quiescent, so the gate correctly declines
//! every call (`fused_runs` ≈ 0) — the rows measure that leaving `Auto`
//! on costs nothing when the pool is hot. The sparse-traffic regime the
//! fused path wins (paced calls with doze-sized gaps) is
//! `ablation_fused`'s subject. The rows land in the JSON's
//! `fused_throughput` array with the `fused_runs` / `fused_fallbacks`
//! split per cell.
//!
//! `--zero-config` adds the configless row per requester count: the plane
//! an operator gets by writing no numbers at all —
//! `ResponderPolicy::auto()` + `HotCallConfig::auto()` with a
//! `hotcalls::ctl` controller ticking the sizer from requester 0. The
//! rows land in `zero_config_throughput` with the sizer's tick/grow/
//! shrink counts, so the matrix shows what self-tuning costs (or earns)
//! next to every hand-picked shape. The head-to-head claim — zero-config
//! within 0.95× of the best static everywhere, strictly ahead on
//! phase-shifting traffic — is `ablation_ctl`'s subject.
//!
//! Output: human-readable table on stdout plus `BENCH_rt.json` in the
//! current directory (positional argument overrides the path). The JSON
//! carries a `telemetry` section snapshotted from a live exemplar plane
//! (queue/service/reap cycle percentiles per lane); `--trace-out` dumps
//! the run's `chrome://tracing` events and `--prom-out` the Prometheus
//! text exposition.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bench::artifact::ArtifactSink;
use bench::report::Json;
use bench::rt_baseline::{scaling_throughput, MutexMailbox};
use bench::telemetry::append_snapshot;
use hotcalls::rt::{ByteCallTable, ByteRing, CallTable, HotCallServer, RingServer};
use hotcalls::{
    Controller, FusedMode, HotCallConfig, ResponderPolicy, ShardPolicy, Snapshot, TelemetryRegistry,
};

const RING_CAPACITY: usize = 64;
const IO_HANDLER_SLEEP: Duration = Duration::from_micros(200);
const MAILBOX_CALLS: u64 = 50_000;
const ARENA_CALLS: u64 = 50_000;
const ARENA_PAYLOADS: [usize; 4] = [16, 64, 256, 4096];

struct Args {
    sink: ArtifactSink,
    workloads: Vec<&'static str>,
    max_responders: usize,
    shards: usize,
    measure: Duration,
    fused: bool,
    zero_config: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sink: ArtifactSink::new("BENCH_rt.json"),
        workloads: vec!["cpu", "io"],
        max_responders: 4,
        shards: 2,
        measure: Duration::from_millis(250),
        fused: false,
        zero_config: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if args.sink.try_flag(&arg, &mut it) {
            continue;
        }
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                args.workloads = match value("--workload").as_str() {
                    "cpu" => vec!["cpu"],
                    "io" => vec!["io"],
                    "all" => vec!["cpu", "io"],
                    other => panic!("unknown workload `{other}` (cpu|io|all)"),
                }
            }
            "--max-responders" => {
                args.max_responders = value("--max-responders")
                    .parse()
                    .expect("--max-responders takes a positive integer");
                assert!(args.max_responders >= 1, "--max-responders must be >= 1");
            }
            "--shards" => {
                args.shards = value("--shards")
                    .parse()
                    .expect("--shards takes a positive integer");
                assert!(args.shards >= 1, "--shards must be >= 1");
            }
            "--measure-ms" => {
                let ms: u64 = value("--measure-ms")
                    .parse()
                    .expect("--measure-ms takes milliseconds");
                args.measure = Duration::from_millis(ms.max(1));
            }
            "--fused" => args.fused = true,
            "--zero-config" => args.zero_config = true,
            flag if flag.starts_with("--") => panic!("unknown flag `{flag}`"),
            path => args.sink.out_path = path.to_string(),
        }
    }
    args.sink.begin();
    args
}

fn spin_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: None,
        ..HotCallConfig::patient()
    }
}

/// Pool deployments doze when idle: responders beyond the workload's
/// parallelism must release the core, not spin on it.
fn pool_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: Some(256),
        ..HotCallConfig::patient()
    }
}

/// ns per call through the old mutex-slot mailbox.
fn mailbox_baseline_ns() -> f64 {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let inc = table.register(|x| x + 1);
    let mb = MutexMailbox::spawn(table, spin_config());
    for i in 0..1_000 {
        mb.call(inc, i).unwrap();
    }
    let start = Instant::now();
    for i in 0..MAILBOX_CALLS {
        mb.call(inc, i).unwrap();
    }
    let ns = start.elapsed().as_nanos() as f64 / MAILBOX_CALLS as f64;
    mb.shutdown();
    ns
}

/// ns per call through the live lock-free mailbox.
fn mailbox_lockfree_ns() -> f64 {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let inc = table.register(|x| x + 1);
    let server = HotCallServer::spawn(table, spin_config());
    let r = server.requester();
    for i in 0..1_000 {
        r.call(inc, i).unwrap();
    }
    let start = Instant::now();
    for i in 0..MAILBOX_CALLS {
        r.call(inc, i).unwrap();
    }
    let ns = start.elapsed().as_nanos() as f64 / MAILBOX_CALLS as f64;
    server.shutdown();
    ns
}

struct Cell {
    workload: &'static str,
    requesters: usize,
    responders: usize,
    adaptive: bool,
    calls: u64,
    secs: f64,
    calls_per_sec: f64,
    parks: u64,
    wakes: u64,
}

struct ArenaCell {
    payload: usize,
    ns_per_call: f64,
    inline_hit_rate: f64,
    recycle_rate: f64,
    allocs_per_op: f64,
}

/// Runs the byte-payload hot path at one payload size: the handler
/// reverses the bytes in place, the buffer cycles through the caller's
/// arena, and the arena counters say how the payload traveled (inline in
/// the slot vs recycled slab vs fresh allocation).
fn arena_cell(payload: usize) -> ArenaCell {
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let ring = ByteRing::spawn_pool(table, RING_CAPACITY, 1, spin_config()).expect("valid shape");
    let mut caller = ring.caller();
    let data = vec![0x5Au8; payload];
    for _ in 0..1_000 {
        caller.call(id, &data, 0).unwrap();
    }
    let start = Instant::now();
    for _ in 0..ARENA_CALLS {
        caller.call(id, &data, 0).unwrap();
    }
    let ns_per_call = start.elapsed().as_nanos() as f64 / ARENA_CALLS as f64;
    let stats = caller.arena_stats();
    ring.shutdown();
    ArenaCell {
        payload,
        ns_per_call,
        inline_hit_rate: stats.inline_hit_rate(),
        recycle_rate: stats.recycle_rate(),
        allocs_per_op: stats.allocs_per_op(),
    }
}

/// Runs one matrix cell: R requester threads hammer the pool until the
/// deadline, total completed calls over wall time is the throughput.
fn pool_cell(
    workload: &'static str,
    requesters: usize,
    policy: ResponderPolicy,
    measure: Duration,
) -> Cell {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = match workload {
        "cpu" => table.register(|x| x + 1),
        "io" => table.register(|x| {
            std::thread::sleep(IO_HANDLER_SLEEP);
            x + 1
        }),
        _ => unreachable!("unknown workload"),
    };
    let server = RingServer::spawn_adaptive(table, RING_CAPACITY, policy, pool_config())
        .expect("pool shape is valid");

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let calls: u64 = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(requesters);
        for t in 0..requesters as u64 {
            let r = server.requester();
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut done = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = t * 1_000_000 + i;
                    assert_eq!(r.call(id, x).unwrap(), x + 1);
                    done += 1;
                    i += 1;
                }
                done
            }));
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let governor = server.governor_stats();
    server.shutdown();
    Cell {
        workload,
        requesters,
        responders: policy.max,
        adaptive: policy.is_adaptive(),
        calls,
        secs,
        calls_per_sec: calls as f64 / secs,
        parks: governor.parks,
        wakes: governor.wakes,
    }
}

struct ShardCell {
    workload: &'static str,
    requesters: usize,
    shards: usize,
    calls: u64,
    secs: f64,
    calls_per_sec: f64,
    steals: u64,
    steal_hits: u64,
    cross_shard_wakes: u64,
}

/// Runs one sharded-plane cell: R requester threads, each pinned to a
/// router-chosen home shard, against `shards` independent rings with one
/// work-stealing responder each.
fn shard_cell(
    workload: &'static str,
    requesters: usize,
    shards: usize,
    measure: Duration,
) -> ShardCell {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = match workload {
        "cpu" => table.register(|x| x + 1),
        "io" => table.register(|x| {
            std::thread::sleep(IO_HANDLER_SLEEP);
            x + 1
        }),
        _ => unreachable!("unknown workload"),
    };
    let server = RingServer::spawn_sharded(
        table,
        RING_CAPACITY,
        ShardPolicy::fixed(shards),
        pool_config(),
    )
    .expect("shard shape is valid");

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let calls: u64 = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(requesters);
        for t in 0..requesters as u64 {
            let r = server.requester();
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut done = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = t * 1_000_000 + i;
                    assert_eq!(r.call(id, x).unwrap(), x + 1);
                    done += 1;
                    i += 1;
                }
                done
            }));
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let rs = server.ring_stats();
    server.shutdown();
    ShardCell {
        workload,
        requesters,
        shards,
        calls,
        secs,
        calls_per_sec: calls as f64 / secs,
        steals: rs.steals(),
        steal_hits: rs.steal_hits(),
        cross_shard_wakes: rs.cross_shard_wakes(),
    }
}

struct FusedCell {
    workload: &'static str,
    requesters: usize,
    calls: u64,
    calls_per_sec: f64,
    fused_runs: u64,
    fused_fallbacks: u64,
}

/// Runs one fused-mode cell: the same adaptive single-ring pool as the
/// `adapt` column, but with `FusedMode::Auto` — a requester that finds
/// its responders dozing and the ring near-empty executes the handler
/// inline, skipping the publish/wake/transfer handoff entirely.
///
/// This cell's loop is *continuous*, so the pool never falls quiescent:
/// a responder is always mid-drain or mid-spin when the next call reads
/// the gate, and every call correctly rides the pooled path
/// (`fused_runs` ≈ 0, the declines accounted as `fused_fallbacks`).
/// That is the measurement — `Auto` left enabled under saturation
/// tracks the plain adaptive column instead of stealing the pool's
/// work. The sparse regime the gate opens for (call gaps longer than
/// the doze fuse) is measured by `ablation_fused`'s quiet phases.
fn fused_cell(
    workload: &'static str,
    requesters: usize,
    max_responders: usize,
    measure: Duration,
) -> FusedCell {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = match workload {
        "cpu" => table.register(|x| x + 1),
        "io" => table.register(|x| {
            std::thread::sleep(IO_HANDLER_SLEEP);
            x + 1
        }),
        _ => unreachable!("unknown workload"),
    };
    let server = RingServer::spawn_adaptive(
        table,
        RING_CAPACITY,
        ResponderPolicy::elastic(1, max_responders),
        HotCallConfig {
            fused_mode: FusedMode::Auto,
            ..pool_config()
        },
    )
    .expect("pool shape is valid");

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let calls: u64 = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(requesters);
        for t in 0..requesters as u64 {
            let r = server.requester();
            let stop = &stop;
            handles.push(s.spawn(move || {
                let mut done = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = t * 1_000_000 + i;
                    assert_eq!(r.call(id, x).unwrap(), x + 1);
                    done += 1;
                    i += 1;
                }
                done
            }));
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    FusedCell {
        workload,
        requesters,
        calls,
        calls_per_sec: calls as f64 / secs,
        fused_runs: stats.fused_runs,
        fused_fallbacks: stats.fused_fallbacks,
    }
}

struct ZeroConfigCell {
    workload: &'static str,
    requesters: usize,
    calls: u64,
    calls_per_sec: f64,
    ticks: u64,
    grows: u64,
    shrinks: u64,
}

/// Tick stride for the configless cell's control loop — a period, not a
/// per-call tax.
const ZERO_CONFIG_TICK_EVERY: u64 = 1_024;

/// Runs one configless cell: `ResponderPolicy::auto()` +
/// `HotCallConfig::auto()`, with a `hotcalls::ctl` controller ticked from
/// requester 0 and its resize decisions pushed into the governor. What an
/// operator gets for writing zero numbers, measured in the same matrix as
/// every hand-picked shape.
fn zero_config_cell(
    workload: &'static str,
    requesters: usize,
    ctl: &Controller,
    measure: Duration,
) -> ZeroConfigCell {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = match workload {
        "cpu" => table.register(|x| x + 1),
        "io" => table.register(|x| {
            std::thread::sleep(IO_HANDLER_SLEEP);
            x + 1
        }),
        _ => unreachable!("unknown workload"),
    };
    let server = RingServer::spawn_adaptive(
        table,
        RING_CAPACITY,
        ResponderPolicy::auto(),
        HotCallConfig::auto(),
    )
    .expect("auto shape is valid");

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let ticks_before = ctl.stats().ticks;
    let calls: u64 = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(requesters);
        for t in 0..requesters as u64 {
            let r = server.requester();
            let stop = &stop;
            let server = &server;
            handles.push(s.spawn(move || {
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = t * 1_000_000 + done;
                    assert_eq!(r.call(id, x).unwrap(), x + 1);
                    done += 1;
                    if t == 0 && done.is_multiple_of(ZERO_CONFIG_TICK_EVERY) {
                        let d = ctl.tick(&server.telemetry("zero-config").stats);
                        if let Some(n) = d.responders {
                            server.set_active(n);
                        }
                    }
                }
                done
            }));
        }
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = ctl.stats();
    server.shutdown();
    ZeroConfigCell {
        workload,
        requesters,
        calls,
        calls_per_sec: calls as f64 / secs,
        ticks: stats.ticks - ticks_before,
        grows: stats.grows,
        shrinks: stats.shrinks,
    }
}

struct BaselineCell {
    requesters: usize,
    calls_per_sec: f64,
}

/// The mutex-slot baseline at each requester count — the like-for-like
/// leg of the scaling rows (it used to be measured at one requester
/// only).
fn baseline_scaling(requesters: usize, measure: Duration) -> BaselineCell {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let inc = table.register(|x| x + 1);
    let mb = MutexMailbox::spawn(table, spin_config());
    let calls_per_sec = scaling_throughput(&mb, inc, requesters, |i| i, measure);
    mb.shutdown();
    BaselineCell {
        requesters,
        calls_per_sec,
    }
}

/// Calls driven through the exemplar plane whose live telemetry lands in
/// the artifact's `telemetry` section.
const EXEMPLAR_CALLS: u64 = 20_000;

/// One live sharded byte plane, snapshotted *while its responders run*:
/// the matrix cells above shut their servers down before their stats can
/// be registered, so the artifact's stage histograms (queue/service/reap
/// percentiles per lane) come from this dedicated run.
fn telemetry_exemplar(shards: usize) -> Snapshot {
    let mut table = ByteCallTable::new();
    let id = table.register(|n, buf| {
        buf[..n].reverse();
        n
    });
    let ring = ByteRing::spawn_sharded(
        table,
        RING_CAPACITY,
        ShardPolicy::fixed(shards),
        pool_config(),
    )
    .expect("plane shape is valid");
    let mut caller = ring.caller();
    let data = [0x5Au8; 64];
    for _ in 0..EXEMPLAR_CALLS {
        caller.call(id, &data, data.len()).unwrap();
    }
    let registry = TelemetryRegistry::new();
    registry.register_plane(ring.telemetry_provider("rt-exemplar"));
    registry.register_arena("rt-exemplar", move || caller.arena_stats());
    let snap = registry.snapshot();
    ring.shutdown();
    snap
}

fn main() {
    let args = parse_args();

    println!("rt_throughput: pooled HotCalls runtime matrix");
    println!("host threads available: {}", host_threads());
    println!(
        "measure window: {} ms, responder ceiling: {}",
        args.measure.as_millis(),
        args.max_responders
    );
    println!();

    let baseline_ns = mailbox_baseline_ns();
    let lockfree_ns = mailbox_lockfree_ns();
    println!("single mailbox round trip ({MAILBOX_CALLS} calls):");
    println!("  mutex-slot baseline : {baseline_ns:10.1} ns/call");
    println!("  lock-free (live)    : {lockfree_ns:10.1} ns/call");
    println!();

    println!("mutex-slot baseline scaling (calls/sec):");
    let mut baseline_cells = Vec::new();
    for requesters in [1usize, 2, 4] {
        let cell = baseline_scaling(requesters, args.measure);
        println!("  {requesters:>6} req | {:>12.0}", cell.calls_per_sec);
        baseline_cells.push(cell);
    }
    println!();

    let static_shapes: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&n| n <= args.max_responders)
        .collect();
    let mut cells = Vec::new();
    for workload in args.workloads.iter().copied() {
        println!("workload `{workload}` (calls/sec):");
        let mut header = format!("  {:>10} |", "");
        for n in &static_shapes {
            let _ = write!(header, " {:>12}", format!("{n} resp"));
        }
        let _ = write!(
            header,
            " {:>16}",
            format!("adapt 1..{}", args.max_responders)
        );
        println!("{header}");
        for requesters in [1usize, 2, 4, 8] {
            let mut row = format!("  {requesters:>6} req |");
            for &responders in &static_shapes {
                let cell = pool_cell(
                    workload,
                    requesters,
                    ResponderPolicy::fixed(responders),
                    args.measure,
                );
                let _ = write!(row, " {:>12.0}", cell.calls_per_sec);
                cells.push(cell);
            }
            // The adaptive row: same ceiling as the widest static shape,
            // but the governor decides how many responders actually run.
            let cell = pool_cell(
                workload,
                requesters,
                ResponderPolicy::elastic(1, args.max_responders),
                args.measure,
            );
            let _ = write!(
                row,
                " {:>10.0} (p{} w{})",
                cell.calls_per_sec, cell.parks, cell.wakes
            );
            cells.push(cell);
            println!("{row}");
        }
        println!();
    }

    let mut shard_cells = Vec::new();
    for workload in args.workloads.iter().copied() {
        println!(
            "workload `{workload}`, sharded plane ({} shards, calls/sec):",
            args.shards
        );
        for requesters in [1usize, 2, 4, 8] {
            let cell = shard_cell(workload, requesters, args.shards, args.measure);
            println!(
                "  {requesters:>6} req | {:>12.0} (steals {} hits {} xwakes {})",
                cell.calls_per_sec, cell.steals, cell.steal_hits, cell.cross_shard_wakes
            );
            shard_cells.push(cell);
        }
        println!();
    }

    let mut fused_cells = Vec::new();
    if args.fused {
        for workload in args.workloads.iter().copied() {
            println!(
                "workload `{workload}`, fused auto (elastic 1..{}, calls/sec):",
                args.max_responders
            );
            for requesters in [1usize, 2, 4, 8] {
                let cell = fused_cell(workload, requesters, args.max_responders, args.measure);
                println!(
                    "  {requesters:>6} req | {:>12.0} (fused {} fallbacks {})",
                    cell.calls_per_sec, cell.fused_runs, cell.fused_fallbacks
                );
                fused_cells.push(cell);
            }
            println!();
        }
    }

    let mut zero_cells = Vec::new();
    if args.zero_config {
        let ctl = Controller::auto();
        for workload in args.workloads.iter().copied() {
            println!("workload `{workload}`, zero-config (auto policies + ctl, calls/sec):");
            for requesters in [1usize, 2, 4, 8] {
                let cell = zero_config_cell(workload, requesters, &ctl, args.measure);
                println!(
                    "  {requesters:>6} req | {:>12.0} (ticks {} grows {} shrinks {})",
                    cell.calls_per_sec, cell.ticks, cell.grows, cell.shrinks
                );
                zero_cells.push(cell);
            }
            println!();
        }
    }

    println!("byte-payload arena ({ARENA_CALLS} calls per size):");
    println!(
        "  {:>8} | {:>10} {:>12} {:>12} {:>10}",
        "payload", "ns/call", "inline hits", "recycles", "allocs/op"
    );
    let mut arena = Vec::new();
    for payload in ARENA_PAYLOADS {
        let cell = arena_cell(payload);
        println!(
            "  {:>8} | {:>10.1} {:>11.1}% {:>11.1}% {:>10.5}",
            cell.payload,
            cell.ns_per_call,
            100.0 * cell.inline_hit_rate,
            100.0 * cell.recycle_rate,
            cell.allocs_per_op
        );
        arena.push(cell);
    }
    println!();

    let snap = telemetry_exemplar(args.shards);
    let json = render_json(
        &args,
        baseline_ns,
        lockfree_ns,
        &baseline_cells,
        &cells,
        &shard_cells,
        &fused_cells,
        &zero_cells,
        &arena,
        &snap,
    );
    args.sink.write(&json, &snap);
}

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The artifact goes through the shared `BENCH_*.json` serializer
/// ([`Json`]), so it carries the same `schema_version` envelope as every
/// other bench output.
#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &Args,
    baseline_ns: f64,
    lockfree_ns: f64,
    baseline_cells: &[BaselineCell],
    cells: &[Cell],
    shard_cells: &[ShardCell],
    fused_cells: &[FusedCell],
    zero_cells: &[ZeroConfigCell],
    arena: &[ArenaCell],
    snap: &Snapshot,
) -> String {
    let mut j = Json::bench("rt_throughput");
    j.field_u64("host_threads", host_threads() as u64)
        .field_u64("measure_ms", args.measure.as_millis() as u64)
        .field_u64("io_handler_us", IO_HANDLER_SLEEP.as_micros() as u64)
        .field_u64("ring_capacity", RING_CAPACITY as u64)
        .field_u64("max_responders", args.max_responders as u64)
        .field_u64("shards", args.shards as u64);
    j.begin_object("mailbox_roundtrip_ns");
    j.field_f64("mutex_slot_baseline", baseline_ns, 1)
        .field_f64("lock_free", lockfree_ns, 1);
    j.end_object();
    j.begin_array("mutex_baseline_scaling");
    for c in baseline_cells {
        j.begin_item();
        j.field_u64("requesters", c.requesters as u64).field_f64(
            "calls_per_sec",
            c.calls_per_sec,
            1,
        );
        j.end_item();
    }
    j.end_array();
    j.begin_array("ring_pool_throughput");
    for c in cells {
        j.begin_item();
        j.field_str("workload", c.workload)
            .field_u64("requesters", c.requesters as u64)
            .field_u64("responders", c.responders as u64)
            .field_bool("adaptive", c.adaptive)
            .field_u64("calls", c.calls)
            .field_f64("secs", c.secs, 4)
            .field_f64("calls_per_sec", c.calls_per_sec, 1)
            .field_u64("governor_parks", c.parks)
            .field_u64("governor_wakes", c.wakes);
        j.end_item();
    }
    j.end_array();
    j.begin_array("sharded_throughput");
    for c in shard_cells {
        j.begin_item();
        j.field_str("workload", c.workload)
            .field_u64("requesters", c.requesters as u64)
            .field_u64("shards", c.shards as u64)
            .field_u64("calls", c.calls)
            .field_f64("secs", c.secs, 4)
            .field_f64("calls_per_sec", c.calls_per_sec, 1)
            .field_u64("steals", c.steals)
            .field_u64("steal_hits", c.steal_hits)
            .field_u64("cross_shard_wakes", c.cross_shard_wakes);
        j.end_item();
    }
    j.end_array();
    j.begin_array("fused_throughput");
    for c in fused_cells {
        j.begin_item();
        j.field_str("workload", c.workload)
            .field_u64("requesters", c.requesters as u64)
            .field_u64("calls", c.calls)
            .field_f64("calls_per_sec", c.calls_per_sec, 1)
            .field_u64("fused_runs", c.fused_runs)
            .field_u64("fused_fallbacks", c.fused_fallbacks);
        j.end_item();
    }
    j.end_array();
    j.begin_array("zero_config_throughput");
    for c in zero_cells {
        j.begin_item();
        j.field_str("workload", c.workload)
            .field_u64("requesters", c.requesters as u64)
            .field_u64("calls", c.calls)
            .field_f64("calls_per_sec", c.calls_per_sec, 1)
            .field_u64("ctl_ticks", c.ticks)
            .field_u64("ctl_grows", c.grows)
            .field_u64("ctl_shrinks", c.shrinks);
        j.end_item();
    }
    j.end_array();
    j.begin_array("arena");
    for c in arena {
        j.begin_item();
        j.field_u64("payload_bytes", c.payload as u64)
            .field_f64("ns_per_call", c.ns_per_call, 1)
            .field_f64("inline_hit_rate", c.inline_hit_rate, 4)
            .field_f64("recycle_rate", c.recycle_rate, 4)
            .field_f64("allocs_per_op", c.allocs_per_op, 5);
        j.end_item();
    }
    j.end_array();
    append_snapshot(&mut j, snap);
    j.finish()
}
