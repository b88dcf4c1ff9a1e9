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
use hotcalls::telemetry::TELEMETRY_ENABLED;
use hotcalls::HotCallConfig;

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
fn pipelined_calls(r: Requester, id: u32, depth: usize, done: impl Fn() -> bool) -> u64 {
    let mut window = r.window(depth).unwrap();
    let mut completed = 0;
    while !done() {
        completed += u64::from(window.submit(id, completed).unwrap().is_some());
    }
    completed + window.drain(drop).unwrap()
}

/// Runs `drive` with the plane's requester on a thread of its own for
/// [`MEASURE`]; returns the completed-call rate and the completions
/// counted.
fn timed(
    requester: Requester,
    drive: impl FnOnce(Requester, &dyn Fn() -> bool) -> u64 + Send,
) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let completed: u64 = std::thread::scope(|s| {
        let handle = s.spawn(|| drive(requester, &|| stop.load(Ordering::Relaxed)));
        std::thread::sleep(MEASURE);
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap()
    });
    (completed as f64 / start.elapsed().as_secs_f64(), completed)
}

/// [`timed`] over the rest of a plane's life: conservation checked, plane
/// shut down, rate returned.
fn plane_rate(
    server: Server,
    drive: impl FnOnce(Requester, &dyn Fn() -> bool) -> u64 + Send,
) -> f64 {
    let before = server.stats().calls;
    let (rate, completed) = timed(server.requester(), drive);
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
/// Returns the calls made.
fn await_fusing(server: &Server) -> u64 {
    let r = server.requester();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut calls = 0;
    loop {
        let fused = server.stats().fused_runs;
        r.call(CPU, 0).unwrap();
        calls += 1;
        if server.stats().fused_runs > fused {
            return calls;
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
        let rate = plane_rate(server, |r, done| sync_calls(&r, CPU, done));
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

/// What one plane made of one quiet+burst pair of the phase-shifting
/// workload.
struct Phases {
    /// Median in-call latency of the sparse quiet calls.
    quiet_ns: f64,
    /// Completed-call rate of the burst.
    burst_rate: f64,
}

/// On a plane whose [`IO`] handler blocks for 100 µs: one *quiet* phase
/// (one caller, a synchronous cpu call every 300 µs — long enough for a
/// dozing responder to doze in between, so each call runs inline and pays
/// nothing, while a plane that cannot doze hands each one off) then one
/// *burst* phase (one thread keeping 16 submissions of the blocking
/// handler in flight — pipelined submissions never fuse, so the responder
/// serves the burst on either plane). Returns the pair's readings and the
/// calls it completed.
fn phase_pair(server: &Server) -> (Phases, u64) {
    const QUIET_GAP: Duration = Duration::from_micros(300);
    let r = server.requester();
    let mut quiet_ns: Vec<u64> = Vec::new();
    let deadline = Instant::now() + MEASURE;
    while Instant::now() < deadline {
        let x = quiet_ns.len() as u64;
        let t0 = Instant::now();
        assert_eq!(r.call(CPU, x).unwrap(), x + 1);
        quiet_ns.push(t0.elapsed().as_nanos() as u64);
        std::thread::sleep(QUIET_GAP);
    }

    let t0 = Instant::now();
    let burst_calls = timed(r, |r, done| pipelined_calls(r, IO, 16, done)).1;
    let burst_secs = t0.elapsed().as_secs_f64();
    // Median, not mean: only a few hundred paced calls land per phase,
    // and one scheduler stall would otherwise swing the figure.
    quiet_ns.sort_unstable();
    let phases = Phases {
        quiet_ns: quiet_ns[quiet_ns.len() / 2].max(1) as f64,
        burst_rate: burst_calls as f64 / burst_secs,
    };
    (phases, quiet_ns.len() as u64 + burst_calls)
}

/// The middle value of an odd number of readings.
fn median(mut readings: Vec<f64>) -> f64 {
    readings.sort_by(f64::total_cmp);
    readings[readings.len() / 2]
}

/// A dozing plane takes the better side of the break-even in both
/// phases: it hands bursts to the responder exactly as a plane that cannot
/// doze does, and runs sparse calls inline, which the other plane pays a
/// handoff for.
///
/// The two planes take turns, one quiet+burst pair each per round, so a
/// load episode on the host lands in one round's readings rather than in
/// all of one plane's, and the median of the per-round ratios drops it.
/// Each pair runs on a plane of its own, built for it: a spinning plane
/// kept alive through the dozing plane's turn would be one more runnable
/// thread in the readings it is compared against. The dozing plane's
/// quiet phase starts once its responder has dozed, which on a loaded
/// host takes up to a second of idle polls that yield the core, and after
/// its burst the plane must doze and fuse again: conservation covers the
/// calls of both flips, fused to pooled and back.
#[test]
fn a_dozing_plane_wins_both_sides_of_the_break_even() {
    const ROUNDS: usize = 3;
    const IDLE: [Option<u64>; 2] = [DOZING, SPINNING];
    let _timed = one_at_a_time();
    let (mut burst_ratios, mut quiet_gains) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let [dozing, spinning] = IDLE.map(|idle| {
            let server = RingServer::spawn_pool(
                table(Duration::from_micros(100)),
                RING_CAPACITY,
                1,
                plane_config(idle),
            )
            .unwrap();
            if idle == DOZING {
                await_fusing(&server);
            }
            let before = server.stats().calls;
            let (phases, mut calls) = phase_pair(&server);
            if idle == DOZING {
                // The burst woke the responder; once it dozes again a
                // sparse call must run inline once more.
                calls += await_fusing(&server);
            }
            assert_eq!(
                server.stats().calls - before,
                calls,
                "{idle:?}: tickets were lost or run twice across the fused/pooled flip"
            );
            server.shutdown();
            phases
        });
        burst_ratios.push(dozing.burst_rate / spinning.burst_rate);
        quiet_gains.push(spinning.quiet_ns / dozing.quiet_ns);
        eprintln!(
            "bursts: dozing {:.0} vs spinning {:.0} calls/s; sparse call: spinning {:.0} vs \
             dozing {:.0} ns",
            dozing.burst_rate, spinning.burst_rate, spinning.quiet_ns, dozing.quiet_ns
        );
    }
    let burst_ratio = median(burst_ratios);
    let quiet_gain = median(quiet_gains);
    eprintln!("median per round: bursts {burst_ratio:.2}x, sparse call {quiet_gain:.1}x");
    assert!(
        burst_ratio >= 0.5,
        "dozing-plane bursts run at only {burst_ratio:.2}x the pooled bursts"
    );
    assert!(
        quiet_gain >= 2.0,
        "fusing cuts sparse-call latency only {quiet_gain:.2}x"
    );
}
