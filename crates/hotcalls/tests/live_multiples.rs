//! The live multiples: what pipelining, sharding and fusing buy on a real
//! host, as regression guards.
//!
//! Each of these mechanisms wins by a *multiple* on the workload it exists
//! for — overlapping a blocking handler across responders, giving every
//! requester its own ring, skipping the handoff when the pool is asleep —
//! and loses it completely if the mechanism breaks (a pipeline that
//! serializes, shards that share a head word, an inline path that still
//! wakes a responder). Read over 25 release runs of this file on the
//! 2-vCPU development host: pipelined 7–11× sync, 4 shards 3.7–5× one
//! ring, fused 40–150× pooled, adaptive bursts 1.9–3.1× forced-inline
//! bursts, sparse adaptive calls 20–340× faster than pooled ones.
//!
//! Threshold discipline as in `governor_regression.rs`: the gates are
//! multiples, not percents, and sit far below the readings, because CI
//! machines are noisy and this also runs unoptimized. The blocking-handler
//! wins hold even on one hardware thread — blocked responders hold no
//! core. Every section also checks conservation: the plane executed
//! exactly the calls the requesters saw complete.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hotcalls::rt::{CallTable, RingRequester, RingServer, Ticket};
use hotcalls::{FusedMode, HotCallConfig, ResponderPolicy, ShardPolicy, TelemetryRegistry};

type Server = RingServer<u64, u64>;
type Requester = RingRequester<u64, u64>;

/// Slots per ring (and per shard).
const RING_CAPACITY: usize = 64;
/// One timed window.
const MEASURE: Duration = Duration::from_millis(150);
/// Handler id of `x + 1` computed at once.
const CPU: u32 = 0;
/// Handler id of `x + 1` behind a blocking sleep — an io-bound ocall body.
const IO: u32 = 1;

/// The harness runs a file's tests on parallel threads, and two timed
/// sections sharing two cores would measure each other.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TIMED: Mutex<()> = Mutex::new(());
    TIMED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn table(io_sleep: Duration) -> CallTable<u64, u64> {
    let mut table = CallTable::new();
    assert_eq!(table.register(|x| x + 1), CPU);
    let io = table.register(move |x| {
        std::thread::sleep(io_sleep);
        x + 1
    });
    assert_eq!(io, IO);
    table
}

/// Responders doze quickly when idle, so the ones a workload cannot feed
/// release the core; `drain_batch: 1` keeps each blocking call on its own
/// responder (a batch of N claimed slots is N serialized sleeps).
fn pool_config(fused_mode: FusedMode) -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: Some(256),
        drain_batch: 1,
        fused_mode,
        ..HotCallConfig::patient()
    }
}

/// Back-to-back synchronous calls until `done()`; returns the count.
fn sync_calls(r: &Requester, id: u32, done: impl Fn() -> bool) -> u64 {
    let mut calls = 0;
    while !done() {
        assert_eq!(r.call(id, calls).unwrap(), calls + 1);
        calls += 1;
    }
    calls
}

/// `depth` submissions kept in flight until `done()`, then drained so
/// every submission is completed and counted; returns the count.
///
/// `wait_any` hands completions back in pool order, so a ticket whose
/// responder was descheduled can fall behind while younger ones cycle.
/// A submission that lapped the ring onto that ticket's slot would wait
/// for a redeem only this thread can perform, so a ticket half a ring
/// old is redeemed by name first (the lap rule in `submit`'s docs).
fn pipelined_calls(r: &Requester, id: u32, depth: usize, done: impl Fn() -> bool) -> u64 {
    assert!(depth <= RING_CAPACITY / 2);
    let (mut submitted, mut completed, mut newest) = (0, 0, 0);
    let mut tickets: Vec<Ticket> = Vec::with_capacity(depth);
    while !done() {
        while tickets.len() < depth {
            let ticket = r.submit(id, submitted).unwrap();
            newest = ticket.seq();
            tickets.push(ticket);
            submitted += 1;
        }
        r.wait_any(&mut tickets).unwrap();
        completed += 1;
        let lapping = |t: &Ticket| t.seq() + RING_CAPACITY as u64 / 2 <= newest;
        while let Some(at) = tickets.iter().position(lapping) {
            r.wait(tickets.swap_remove(at)).unwrap();
            completed += 1;
        }
    }
    while !tickets.is_empty() {
        r.wait_any(&mut tickets).unwrap();
        completed += 1;
    }
    completed
}

/// Runs `drive` on one thread per requester for [`MEASURE`]; returns the
/// completed-call rate and the completions counted.
fn timed(
    requesters: Vec<Requester>,
    drive: impl Fn(&Requester, &dyn Fn() -> bool) -> u64 + Sync,
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let completed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = requesters
            .iter()
            .map(|r| s.spawn(|| drive(r, &|| stop.load(Ordering::Relaxed))))
            .collect();
        std::thread::sleep(MEASURE);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    (completed as f64 / start.elapsed().as_secs_f64(), completed)
}

/// [`timed`] over a whole plane's life: conservation checked, plane shut
/// down, rate returned.
fn plane_rate(
    server: Server,
    requesters: usize,
    drive: impl Fn(&Requester, &dyn Fn() -> bool) -> u64 + Sync,
) -> f64 {
    let handles = (0..requesters).map(|_| server.requester()).collect();
    let (rate, completed) = timed(handles, drive);
    assert_eq!(
        server.stats().calls,
        completed,
        "the plane executed a different number of calls than completed"
    );
    server.shutdown();
    rate
}

/// One requester, 8 responders, a handler that blocks 200 µs. `call` in a
/// loop keeps one request in flight and seven responders dozing;
/// `submit`/`wait_any` with 16 tickets lets the pool overlap the waits.
#[test]
fn pipelining_overlaps_a_blocking_handler() {
    let _timed = one_at_a_time();
    let server = || {
        RingServer::spawn_adaptive(
            table(Duration::from_micros(200)),
            RING_CAPACITY,
            ResponderPolicy::fixed(8),
            pool_config(FusedMode::Off),
        )
        .unwrap()
    };
    let sync = plane_rate(server(), 1, |r, done| sync_calls(r, IO, done));
    let pipelined = plane_rate(server(), 1, |r, done| pipelined_calls(r, IO, 16, done));
    let gain = pipelined / sync;
    eprintln!("sync {sync:.0} calls/s, pipelined {pipelined:.0} calls/s ({gain:.1}x)");
    assert!(
        gain >= 2.0,
        "pipelined submit/wait_any is only {gain:.2}x sync call on a blocking handler"
    );
}

/// Four requesters of synchronous calls on the same blocking handler:
/// one ring with its one responder serializes them, four shards (one
/// responder each) serve them side by side.
#[test]
fn four_shards_outrun_one_ring_at_four_requesters() {
    let _timed = one_at_a_time();
    let rate = |shards| {
        let server = RingServer::spawn_sharded(
            table(Duration::from_micros(200)),
            RING_CAPACITY,
            ShardPolicy::fixed(shards),
            pool_config(FusedMode::Off),
        )
        .unwrap();
        plane_rate(server, 4, |r, done| sync_calls(r, IO, done))
    };
    let (one, four) = (rate(1), rate(4));
    let gain = four / one;
    eprintln!("1 shard {one:.0} calls/s, 4 shards {four:.0} calls/s ({gain:.1}x)");
    assert!(
        gain >= 1.5,
        "4 shards are only {gain:.2}x one ring at 4 requesters"
    );
}

/// One requester, one responder, a trivial handler: the fused call is a
/// function call plus two counter bumps, the pooled call a full
/// publish/wake/transfer round trip. The inline runs must also show up
/// where operators look for them.
#[test]
fn fused_always_beats_the_pooled_handoff() {
    let _timed = one_at_a_time();
    let registry = TelemetryRegistry::new();
    let rate = |mode| {
        let server = RingServer::spawn_adaptive(
            table(Duration::ZERO),
            RING_CAPACITY,
            ResponderPolicy::fixed(1),
            pool_config(mode),
        )
        .unwrap();
        registry.register_plane(server.telemetry_provider(format!("single-{mode:?}")));
        plane_rate(server, 1, |r, done| sync_calls(r, CPU, done))
    };
    let (pooled, fused) = (rate(FusedMode::Off), rate(FusedMode::Always));
    let gain = fused / pooled;
    eprintln!("pooled {pooled:.0} calls/s, fused {fused:.0} calls/s ({gain:.1}x)");
    assert!(
        gain >= 1.2,
        "fused single-requester rate is only {gain:.2}x the pooled rate"
    );
    let exposition = registry.snapshot().to_prometheus();
    assert!(
        exposition.contains("hotcalls_fused_runs_total{plane=\"single-Always\""),
        "fused runs missing from the exposition:\n{exposition}"
    );
}

/// What one fused mode made of the phase-shifting workload.
struct Phases {
    /// Median in-call latency of the sparse quiet calls.
    quiet_ns: f64,
    /// Completed-call rate of the bursts.
    burst_rate: f64,
}

/// A 4-shard elastic plane under alternating *quiet* phases (one caller,
/// a synchronous cpu call every 300 µs — long enough for the responders
/// to doze in between, so each pooled call re-pays a wake and each fused
/// call pays nothing) and *burst* phases (2 threads × 8 pipelined
/// submissions of a 100 µs blocking handler — fewer submitters than
/// shards, so the pool overlaps more sleeps than inline execution can).
fn phase_workload(fused: FusedMode) -> Phases {
    const PAIRS: usize = 3;
    const QUIET_GAP: Duration = Duration::from_micros(300);
    let server = RingServer::spawn_sharded(
        table(Duration::from_micros(100)),
        RING_CAPACITY,
        ShardPolicy::elastic(1, 4),
        pool_config(fused),
    )
    .unwrap();
    let mut quiet_ns: Vec<u64> = Vec::new();
    let (mut burst_calls, mut burst_secs) = (0, 0.0);
    for _ in 0..PAIRS {
        let r = server.requester();
        let deadline = Instant::now() + MEASURE;
        while Instant::now() < deadline {
            let x = quiet_ns.len() as u64;
            let t0 = Instant::now();
            assert_eq!(r.call(CPU, x).unwrap(), x + 1);
            quiet_ns.push(t0.elapsed().as_nanos() as u64);
            std::thread::sleep(QUIET_GAP);
        }

        // One ring each: the quiet phase parked every shard but the
        // first, so the router would home both submitters there — and two
        // pipelined requesters on one ring can lap onto *each other's*
        // unredeemed tickets, which no rule local to one of them prevents.
        let t0 = Instant::now();
        let burst = vec![
            server.requester_on(0).unwrap(),
            server.requester_on(1).unwrap(),
        ];
        burst_calls += timed(burst, |r, done| pipelined_calls(r, IO, 8, done)).1;
        burst_secs += t0.elapsed().as_secs_f64();
    }
    assert_eq!(
        server.stats().calls,
        quiet_ns.len() as u64 + burst_calls,
        "{fused:?}: tickets were lost or run twice across the fused/pooled flip"
    );
    server.shutdown();
    // Median, not mean: only a few hundred paced calls land per run, and
    // one scheduler stall would otherwise swing the figure.
    quiet_ns.sort_unstable();
    Phases {
        quiet_ns: quiet_ns[quiet_ns.len() / 2].max(1) as f64,
        burst_rate: burst_calls as f64 / burst_secs,
    }
}

/// `FusedMode::Auto` takes the better side of the break-even in both
/// phases: it hands bursts to the pool, which `Always` serializes inline,
/// and runs sparse calls inline, which `Off` pays a doze wake for.
#[test]
fn fused_auto_wins_both_sides_of_the_break_even() {
    let _timed = one_at_a_time();
    let auto = phase_workload(FusedMode::Auto);
    let off = phase_workload(FusedMode::Off);
    let always = phase_workload(FusedMode::Always);
    let burst_gain = auto.burst_rate / always.burst_rate;
    let quiet_gain = off.quiet_ns / auto.quiet_ns;
    eprintln!(
        "bursts: auto {:.0} vs always {:.0} calls/s ({burst_gain:.1}x); sparse call: \
         off {:.0} vs auto {:.0} ns ({quiet_gain:.1}x)",
        auto.burst_rate, always.burst_rate, off.quiet_ns, auto.quiet_ns
    );
    assert!(
        burst_gain >= 1.2,
        "adaptive bursts gain only {burst_gain:.2}x over forced-inline bursts"
    );
    assert!(
        quiet_gain >= 2.0,
        "fusing cuts sparse-call latency only {quiet_gain:.2}x"
    );
}
