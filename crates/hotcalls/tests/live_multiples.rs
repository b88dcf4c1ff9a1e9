//! The live multiples: what fusing buys on a real host, as regression
//! guards.
//!
//! Each of these mechanisms wins by a *multiple* on the workload it exists
//! for — skipping the handoff when the responder is asleep, serving
//! bursts through the ring either way — and loses it completely if the
//! mechanism breaks (an inline path that still wakes the responder, a
//! dozing plane that stops draining bursts). Read over 6 release runs of
//! this file on a 2-vCPU Xeon host: a lone caller's fused calls over a
//! dozed responder 13.9–116× the handoff to a responder that cannot doze,
//! sparse calls on a dozing plane 3.2–30.1× faster than on one that
//! cannot doze; bursts from one submitter with 16 in flight read
//! 0.69–1.19× the other plane's bursts.
//!
//! Threshold discipline: the gates are multiples, not percents, and sit
//! far below the readings, because CI machines are noisy and this also
//! runs unoptimized; the regressions they guard against cost a multiple
//! (a mechanism that breaks loses its whole win), never a few percent.
//! Every section also checks conservation: the plane executed exactly
//! the calls the requesters saw complete.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hotcalls::rt::{CallTable, RingRequester, RingServer};
use hotcalls::{HotCallConfig, TELEMETRY_ENABLED};

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

/// A responder that dozes quickly when idle: it releases the core when a
/// workload cannot feed it, and while it dozes a synchronous call runs
/// inline.
const DOZING: Option<u64> = Some(256);
/// A responder that never dozes: every call rides the ring.
const SPINNING: Option<u64> = None;

/// A plane whose responder dozes after `idle_polls_before_sleep` empty
/// polls ([`DOZING`] or [`SPINNING`]).
fn plane_config(idle_polls_before_sleep: Option<u64>) -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep,
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

/// A window of `depth` submissions kept in flight until `done()`, then
/// drained so every submission is completed and counted; returns the
/// count.
fn pipelined_calls(r: &Requester, id: u32, depth: usize, done: impl Fn() -> bool) -> u64 {
    let mut window = r.clone().window(depth).unwrap();
    let mut completed = 0;
    while !done() {
        completed += u64::from(window.submit(id, completed).unwrap().is_some());
    }
    completed + window.drain(drop).unwrap()
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

/// Calls until one runs inline: the responder then dozes, and a fused
/// call wakes nobody, so every later call on a quiet plane fuses too.
fn await_fusing(server: &Server) {
    let r = server.requester();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fused = server.stats().fused_runs;
        r.call(CPU, 0).unwrap();
        if server.stats().fused_runs > fused {
            return;
        }
        assert!(Instant::now() < deadline, "the responder never dozed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One requester, one responder, a trivial handler: once the responder
/// has dozed, the call is a function call plus a few loads and counter
/// bumps; on a plane that cannot doze it is a full publish/transfer round
/// trip to a spinning responder. The inline runs must also show up where
/// operators look for them: in the plane's telemetry, read through a
/// provider taken before the plane shut down.
#[test]
fn fused_calls_beat_the_pooled_handoff() {
    let _timed = one_at_a_time();
    let rate = |idle| {
        let server =
            RingServer::spawn_pool(table(Duration::ZERO), RING_CAPACITY, 1, plane_config(idle))
                .unwrap();
        let telemetry = server.telemetry_provider("single");
        if idle == DOZING {
            await_fusing(&server);
        }
        let rate = plane_rate(server, 1, |r, done| sync_calls(r, CPU, done));
        (rate, telemetry())
    };
    let ((pooled, spinning), (fused, dozing)) = (rate(SPINNING), rate(DOZING));
    let gain = fused / pooled;
    eprintln!("pooled {pooled:.0} calls/s, fused {fused:.0} calls/s ({gain:.1}x)");
    assert!(
        gain >= 1.2,
        "fused single-requester rate is only {gain:.2}x the pooled rate"
    );
    assert!(dozing.stats.totals.fused_runs > 0, "{:?}", dozing.stats);
    assert_eq!(
        spinning.stats.totals.fused_runs, 0,
        "a spinning plane fused"
    );
    if TELEMETRY_ENABLED {
        // An inline run records no stage sample: the responder's queue
        // histogram holds exactly the calls that rode the ring.
        for t in [&spinning, &dozing] {
            let totals = t.stats.totals;
            assert_eq!(
                t.queue.count(),
                totals.calls - totals.fused_runs,
                "{totals:?}"
            );
        }
    }
}

/// What one plane made of the phase-shifting workload.
struct Phases {
    /// Median in-call latency of the sparse quiet calls.
    quiet_ns: f64,
    /// Completed-call rate of the bursts.
    burst_rate: f64,
}

/// A plane under alternating *quiet* phases (one caller, a synchronous
/// cpu call every 300 µs — long enough for a dozing responder to doze in
/// between, so each call runs inline and pays nothing, while a plane that
/// cannot doze hands each one off) and *burst* phases (one thread keeping
/// 16 submissions of a 100 µs blocking handler in flight — pipelined
/// submissions never fuse, so the responder serves the burst on either
/// plane).
fn phase_workload(idle_polls_before_sleep: Option<u64>) -> Phases {
    const PAIRS: usize = 3;
    const QUIET_GAP: Duration = Duration::from_micros(300);
    let server = RingServer::spawn_pool(
        table(Duration::from_micros(100)),
        RING_CAPACITY,
        1,
        plane_config(idle_polls_before_sleep),
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
/// phases: it hands bursts to the responder exactly as a plane that cannot
/// doze does, and runs sparse calls inline, which the other plane pays a
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
