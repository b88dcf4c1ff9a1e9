//! Regression guard for the CPU oversubscription cliff.
//!
//! The PR 1 throughput matrix once showed the 1-requester × 4-responder
//! CPU cell running 2.6× *slower* than 1 × 1: on a shared-core host every
//! per-call doze wake dragged three useless responders through the
//! scheduler, and they churned the core the one useful responder needed. The adaptive
//! governor exists to close that cliff — surplus responders park on a
//! separate doze that per-call wakes never touch — so a pool with
//! `max = 4` must stay within noise of the best static shape instead of
//! 2.6× behind it.
//!
//! Thresholds are deliberately loose (CI machines are noisy and this runs
//! unoptimized); the regression being guarded against is multiples, not
//! percents.

use std::time::{Duration, Instant};

use hotcalls::rt::{CallTable, RingServer};
use hotcalls::{HotCallConfig, ResponderPolicy};

const RING_CAPACITY: usize = 64;
const WARMUP: Duration = Duration::from_millis(30);
const MEASURE: Duration = Duration::from_millis(200);

fn pool_config() -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: Some(256),
        ..HotCallConfig::patient()
    }
}

/// Single-requester CPU-workload throughput under the given policy.
fn cpu_calls_per_sec(policy: ResponderPolicy) -> f64 {
    let (cps, stats) = cpu_run(policy);
    eprintln!("policy {policy:?}: {cps:.0} calls/s, governor {stats:?}");
    cps
}

fn cpu_run(policy: ResponderPolicy) -> (f64, hotcalls::GovernorStats) {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x + 1);
    let server = RingServer::spawn_adaptive(table, RING_CAPACITY, policy, pool_config()).unwrap();
    let r = server.requester();

    let deadline = Instant::now() + WARMUP;
    let mut i = 0u64;
    while Instant::now() < deadline {
        assert_eq!(r.call(id, i).unwrap(), i + 1);
        i += 1;
    }

    let start = Instant::now();
    let deadline = start + MEASURE;
    let mut calls = 0u64;
    while Instant::now() < deadline {
        assert_eq!(r.call(id, calls).unwrap(), calls + 1);
        calls += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = server.governor_stats();
    server.shutdown();
    (calls as f64 / secs, stats)
}

/// An elastic pool with ceiling 4 must stay within noise of the best
/// static shape on a CPU-bound workload — the governor parks the three
/// responders that cannot help, so the old 2.6× oversubscription penalty
/// cannot come back unnoticed.
#[test]
fn adaptive_pool_tracks_best_static_shape_on_cpu_work() {
    let static_best = cpu_calls_per_sec(ResponderPolicy::fixed(1));
    let adaptive = cpu_calls_per_sec(ResponderPolicy::elastic(1, 4));

    // The guarded regression was a 2.6× cliff (ratio ≈ 0.38). Anything
    // above 0.55 is scheduler noise, not oversubscription churn.
    let ratio = adaptive / static_best;
    assert!(
        ratio > 0.55,
        "adaptive(1..4) at {adaptive:.0} calls/s is {ratio:.2}x the best \
         static shape ({static_best:.0} calls/s) — oversubscription is back"
    );
}
