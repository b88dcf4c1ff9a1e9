//! The live multiples: what pipelining and fusing buy on a real host, as
//! regression guards.
//!
//! Each of these mechanisms wins by a *multiple* on the workload it exists
//! for — overlapping a blocking handler across responders, skipping the
//! handoff when the pool is asleep — and loses it completely if the
//! mechanism breaks (a pipeline that serializes, an inline path that still
//! wakes a responder). Read over 6 release runs of this file on a 2-vCPU
//! Xeon host: pipelined 7.9–11.0× sync, a lone caller's fused calls over a
//! dozed responder 79–550× the pooled handoff to a responder that cannot
//! doze, sparse calls on a dozing plane 4.7–36× faster than on one that
//! cannot doze; bursts from one submitter with 16 in flight read
//! 0.87–1.02× the other plane's bursts.
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
use hotcalls::{HotCallConfig, ResponderPolicy, TelemetryRegistry};

type Server = RingServer<u64, u64>;
type Requester = RingRequester<u64, u64>;

/// Slots per ring.
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

/// Responders that doze quickly when idle: the ones a workload cannot
/// feed release the core, and once all of them doze a synchronous call
/// runs inline.
const DOZING: Option<u64> = Some(256);
/// Responders that never doze: every call rides the pool.
const SPINNING: Option<u64> = None;

/// A plane whose responders doze after `idle_polls_before_sleep` empty
/// polls ([`DOZING`] or [`SPINNING`]); `drain_batch: 1` keeps each
/// blocking call on its own responder (a batch of N claimed slots is N
/// serialized sleeps).
fn pool_config(idle_polls_before_sleep: Option<u64>) -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep,
        drain_batch: 1,
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

/// [`timed`] over the rest of a plane's life: conservation checked, plane
/// shut down, rate returned.
fn plane_rate(
    server: Server,
    requesters: usize,
    drive: impl Fn(&Requester, &dyn Fn() -> bool) -> u64 + Sync,
) -> f64 {
    let handles = (0..requesters).map(|_| server.requester()).collect();
    let before = server.stats().calls;
    let (rate, completed) = timed(handles, drive);
    assert_eq!(
        server.stats().calls - before,
        completed,
        "the plane executed a different number of calls than completed"
    );
    server.shutdown();
    rate
}

/// One requester, 8 responders, a handler that blocks 200 µs. `call` in a
/// loop keeps one request in flight and seven responders dozing (and runs
/// inline, one 200 µs sleep at a time, whenever the eighth dozes too);
/// `submit`/`wait_any` with 16 tickets lets the pool overlap the waits.
#[test]
fn pipelining_overlaps_a_blocking_handler() {
    let _timed = one_at_a_time();
    let server = || {
        RingServer::spawn_adaptive(
            table(Duration::from_micros(200)),
            RING_CAPACITY,
            ResponderPolicy::fixed(8),
            pool_config(DOZING),
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

/// Calls until one runs inline: the responders then doze, and a
/// fused call wakes nobody, so every later call on a quiet plane fuses too.
fn await_fusing(server: &Server) {
    let r = server.requester();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fused = server.stats().fused_runs;
        r.call(CPU, 0).unwrap();
        if server.stats().fused_runs > fused {
            return;
        }
        assert!(Instant::now() < deadline, "the responders never dozed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One requester, one responder, a trivial handler: once the responder
/// has dozed, the call is a function call plus a few loads and counter
/// bumps; on a plane that cannot doze it is a full publish/transfer round
/// trip to a spinning responder. The inline runs must also show up where
/// operators look for them.
#[test]
fn fused_calls_beat_the_pooled_handoff() {
    let _timed = one_at_a_time();
    let registry = TelemetryRegistry::new();
    let rate = |name: &str, idle| {
        let server = RingServer::spawn_adaptive(
            table(Duration::ZERO),
            RING_CAPACITY,
            ResponderPolicy::fixed(1),
            pool_config(idle),
        )
        .unwrap();
        registry.register_plane(server.telemetry_provider(format!("single-{name}")));
        if idle == DOZING {
            await_fusing(&server);
        }
        plane_rate(server, 1, |r, done| sync_calls(r, CPU, done))
    };
    let (pooled, fused) = (rate("spinning", SPINNING), rate("dozing", DOZING));
    let gain = fused / pooled;
    eprintln!("pooled {pooled:.0} calls/s, fused {fused:.0} calls/s ({gain:.1}x)");
    assert!(
        gain >= 1.2,
        "fused single-requester rate is only {gain:.2}x the pooled rate"
    );
    let exposition = registry.snapshot().to_prometheus();
    assert!(
        exposition.contains("hotcalls_fused_runs_total{plane=\"single-dozing\""),
        "fused runs missing from the exposition:\n{exposition}"
    );
}

/// What one plane made of the phase-shifting workload.
struct Phases {
    /// Median in-call latency of the sparse quiet calls.
    quiet_ns: f64,
    /// Completed-call rate of the bursts.
    burst_rate: f64,
}

/// A one-to-four-responder elastic plane under alternating *quiet* phases
/// (one caller, a synchronous cpu call every 300 µs — long enough for
/// dozing responders to doze in between, so each call runs inline and
/// pays nothing, while a plane that cannot doze hands each one off) and
/// *burst* phases (one thread keeping 16 submissions of a 100 µs blocking
/// handler in flight — the pool overlaps sleeps the submitter could only
/// run one at a time inline; pipelined submissions never fuse).
fn phase_workload(idle_polls_before_sleep: Option<u64>) -> Phases {
    const PAIRS: usize = 3;
    const QUIET_GAP: Duration = Duration::from_micros(300);
    let server = RingServer::spawn_adaptive(
        table(Duration::from_micros(100)),
        RING_CAPACITY,
        ResponderPolicy::elastic(1, 4),
        pool_config(idle_polls_before_sleep),
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

        // One pipelined submitter: two on one ring could lap onto *each
        // other's* unredeemed tickets, which no rule local to one of them
        // prevents.
        let t0 = Instant::now();
        let burst = vec![server.requester()];
        burst_calls += timed(burst, |r, done| pipelined_calls(r, IO, 16, done)).1;
        burst_secs += t0.elapsed().as_secs_f64();
    }
    assert_eq!(
        server.stats().calls,
        quiet_ns.len() as u64 + burst_calls,
        "{idle_polls_before_sleep:?}: tickets were lost or run twice across the fused/pooled flip"
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

/// A dozing plane takes the better side of the break-even in both
/// phases: it hands bursts to the pool exactly as a plane that cannot doze
/// does, and runs sparse calls inline, which the other plane pays a
/// handoff for.
#[test]
fn a_dozing_plane_wins_both_sides_of_the_break_even() {
    let _timed = one_at_a_time();
    let dozing = phase_workload(DOZING);
    let spinning = phase_workload(SPINNING);
    let burst_ratio = dozing.burst_rate / spinning.burst_rate;
    let quiet_gain = spinning.quiet_ns / dozing.quiet_ns;
    eprintln!(
        "bursts: dozing {:.0} vs spinning {:.0} calls/s ({burst_ratio:.2}x); sparse call: \
         spinning {:.0} vs dozing {:.0} ns ({quiet_gain:.1}x)",
        dozing.burst_rate, spinning.burst_rate, spinning.quiet_ns, dozing.quiet_ns
    );
    assert!(
        burst_ratio >= 0.5,
        "dozing-plane bursts run at only {burst_ratio:.2}x the pooled bursts"
    );
    assert!(
        quiet_gain >= 2.0,
        "fusing cuts sparse-call latency only {quiet_gain:.2}x"
    );
}
