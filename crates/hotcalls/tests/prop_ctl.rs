//! Property tests of the control plane's per-API router.
//!
//! Two invariants, each over arbitrary workload shapes:
//!
//! * **Convergence** — under a *stationary* workload (fixed transport
//!   costs plus bounded noise, fixed inter-arrival), the routing table
//!   settles: the flip count stays bounded by hysteresis, the route
//!   stops moving, and when one transport's break-even score clearly
//!   dominates, the router lands on it. A router that oscillates on
//!   noise, or converges to the wrong side of the paper's break-even,
//!   fails here.
//! * **Conservation across flips** — a call site that re-consults the
//!   router before every call and pipelines its switchless calls loses
//!   nothing when the route flips mid-stream: every submission reaps
//!   exactly one response carrying its own stamp, and the ring's
//!   serviced totals account for exactly the calls that were routed
//!   switchless — no ticket is dropped or double-run at a transport
//!   boundary.
//!
//! The router decides from the cycles its caller hands it, so both tests
//! run the same under `telemetry-off` builds.

use std::collections::HashMap;

use proptest::prelude::*;

use hotcalls::ctl::{ApiRouter, Transport};
use hotcalls::rt::{CallTable, RingServer, Ticket};
use hotcalls::HotCallConfig;

const MAGIC: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic noise in `[-spread, +spread]` around zero, from a
/// xorshift64* stream — the workload is stationary, not noiseless.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(seed: u64) -> Self {
        Jitter { state: seed | 1 }
    }

    fn next(&mut self, spread: u64) -> i64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        if spread == 0 {
            return 0;
        }
        (r % (2 * spread + 1)) as i64 - spread as i64
    }
}

/// The router's own break-even arithmetic: what each transport's
/// converged score should be under a stationary workload. Every
/// switchless transport pays the router's standby tax of 5 % of the
/// inter-arrival gap (a private constant of `hotcalls::ctl`, restated
/// here).
fn expected_score(transport: Transport, cost: u64, interarrival: u64) -> f64 {
    let standby = if transport == Transport::Sdk {
        0.0
    } else {
        0.05 * interarrival as f64
    };
    cost as f64 + standby
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stationary workloads converge: bounded flips, a quiet tail, and —
    /// whenever one side clearly wins the break-even — the right route.
    #[test]
    fn stationary_workload_converges_with_bounded_flips(
        sdk_cost in 2_000u64..20_000,
        hot_cost in 150u64..1_800,
        interarrival in 1_000u64..400_000,
        seed in any::<u64>(),
    ) {
        let mut router = ApiRouter::new();
        let api = router.register("api", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        let mut jitter = Jitter::new(seed);

        // Enough observations that the SDK arm — sampled only through
        // exploration probes — clears `min_samples` with a long tail to
        // spare, then converges its EWMA.
        const OBSERVATIONS: u64 = 8_192;
        let mut now = 0u64;
        let mut flips_at_three_quarters = 0u64;
        for n in 0..OBSERVATIONS {
            now += interarrival;
            let t = router.route(api);
            let base = if t == Transport::Sdk { sdk_cost } else { hot_cost };
            // ±10% noise: inside the 15% flip margin, so a converged
            // estimate cannot be dislodged by noise alone.
            let cycles = base.saturating_add_signed(jitter.next(base / 10)).max(1);
            router.observe(api, t, cycles, now);
            if n == OBSERVATIONS * 3 / 4 {
                flips_at_three_quarters = router.flips_of(api);
            }
        }

        // Hysteresis bounds churn outright: a stationary workload may flip
        // while estimates warm up, then must stop.
        let flips = router.flips_of(api);
        prop_assert!(
            flips <= 3,
            "router churned: {} flips under a stationary workload",
            flips
        );

        let hot = expected_score(Transport::Hot, hot_cost, interarrival);
        let sdk = expected_score(Transport::Sdk, sdk_cost, interarrival);
        let ratio = hot.max(sdk) / hot.min(sdk).max(1.0);
        // Within the hysteresis band either side is a legitimate resting
        // place; outside it the verdict — and the tail — must be settled.
        if ratio >= 1.3 {
            let expected = if hot < sdk { Transport::Hot } else { Transport::Sdk };
            prop_assert_eq!(
                router.current(api), expected,
                "router converged to the wrong side of break-even \
                 (hot score {:.0}, sdk score {:.0})",
                hot, sdk
            );
            prop_assert_eq!(
                flips, flips_at_three_quarters,
                "route still moving in the final quarter of a stationary workload"
            );
        }
    }

    /// Route flips mid-stream lose and duplicate nothing: every call
    /// reaps its own stamp, and the ring serviced exactly the calls that
    /// were routed switchless.
    #[test]
    fn transport_flips_lose_and_duplicate_nothing(
        capacity in 2usize..8,
        depth in 1usize..6,
        // Cost regimes alternate per phase: hot-favored, then sdk-favored,
        // then back. The router samples the SDK arm only through one
        // exploration probe per 128 calls and needs eight samples before
        // it trusts one, so a phase of 600 observations or more moves the
        // route at the router's own constants; at 200-400, some runs
        // never flip.
        phases in 2usize..5,
        phase_len in 1_000u64..2_000,
        seed in any::<u64>(),
    ) {
        // An unreaped ticket still owns its ring slot, so a pipeline
        // deeper than the ring deadlocks by construction.
        let depth = depth.min(capacity);
        let mut table: CallTable<u64, u64> = CallTable::new();
        let id = table.register(|x| x ^ MAGIC);
        let server = RingServer::spawn_pool(table, capacity, 1, HotCallConfig::patient()).unwrap();
        let r = server.requester();

        let mut router = ApiRouter::new();
        let api = router.register("api", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        let mut jitter = Jitter::new(seed);

        let mut tickets: Vec<Ticket> = Vec::new();
        let mut pending: HashMap<u64, u64> = HashMap::new();
        let reap = |tickets: &mut Vec<Ticket>, pending: &mut HashMap<u64, u64>| {
            let (seq, resp) = r.wait_any(tickets).unwrap();
            let stamp = pending.remove(&seq).expect("reaped an unknown ticket");
            prop_assert_eq!(resp, stamp ^ MAGIC, "response from another call");
        };

        let mut now = 0u64;
        let (mut issued, mut hot_issued, mut sdk_issued) = (0u64, 0u64, 0u64);
        for phase in 0..phases {
            // Even phases favor the switchless side, odd phases the SDK —
            // the interesting moments are the boundaries in between.
            let (hot_cost, sdk_cost) = if phase % 2 == 0 {
                (500u64, 9_000u64)
            } else {
                (9_000u64, 500u64)
            };
            for _ in 0..phase_len {
                now += 1_000;
                let t = router.route(api);
                let stamp = MAGIC.wrapping_mul(issued + 1);
                if t == Transport::Sdk {
                    // The non-switchless path: executed at the call site,
                    // never touching the ring.
                    sdk_issued += 1;
                } else {
                    if tickets.len() == depth {
                        reap(&mut tickets, &mut pending);
                    }
                    let ticket = r.submit(id, stamp).unwrap();
                    pending.insert(ticket.seq(), stamp);
                    tickets.push(ticket);
                    hot_issued += 1;
                }
                issued += 1;
                let base = if t == Transport::Sdk { sdk_cost } else { hot_cost };
                let cycles = base.saturating_add_signed(jitter.next(base / 10)).max(1);
                router.observe(api, t, cycles, now);
            }
        }
        while !tickets.is_empty() {
            reap(&mut tickets, &mut pending);
        }

        prop_assert!(pending.is_empty(), "tickets lost across flips: {:?}", pending);
        prop_assert!(
            router.flips_of(api) >= 1,
            "cost regimes alternated but the route never flipped — the \
             boundary this test exists for never happened"
        );
        prop_assert_eq!(issued, hot_issued + sdk_issued);
        let stats = server.stats();
        prop_assert_eq!(
            stats.calls, hot_issued,
            "ring serviced a different number of calls than were routed to it"
        );
        server.shutdown();
    }
}
