//! `ablation_ctl` — break-even routing by the configless control plane,
//! in deterministic virtual time.
//!
//! The paper's Table 1 fixes the break-even arithmetic per *mechanism* (an
//! 8,200+-cycle SDK crossing vs a ~620-cycle HotCall); the Configless line
//! of work (PAPERS.md) argues the choice should be made per call site from
//! the runtime's own telemetry. An [`AppEnv`] on the Auto transport runs a
//! dense API next to a rare one: the router must demote the rare call to
//! the SDK path (its standby tax outweighs the switchless saving), keep
//! the dense call switchless, and promote the rare call back when it turns
//! dense — and every decision must be visible where operators look, in
//! the Prometheus exposition and the trace.

use apps::porting::ApiDecl;
use apps::{AppEnv, IfaceMode, RtTransport};
use hotcalls::ctl::CtlTelemetry;
use hotcalls::telemetry::{tracer, DEFAULT_TRACE_CAPACITY};
use hotcalls::TelemetryRegistry;
use sgx_sim::SimConfig;

use super::{say, Outcome, Scale};

fn route_of(t: &CtlTelemetry, api: &str) -> String {
    t.routes
        .iter()
        .find(|r| r.api == api)
        .map(|r| r.transport.clone())
        .unwrap_or_default()
}

/// `getpid` runs dense (eight calls per loop), `clock_gettime` runs rare
/// behind a 400k-cycle compute block — an interarrival gap whose 5 %
/// standby tax dwarfs the SDK crossing. Then `clock_gettime` turns dense.
/// The walk is the same at every scale: the rare arm's SDK side accrues
/// samples only through exploration probes (~every 128 of its own
/// routings), so the loop count is what buys it past `min_samples`.
pub fn ablation_ctl(_scale: Scale) -> Outcome {
    let apis = vec![
        ApiDecl::plain("getpid", 80),
        ApiDecl::plain("clock_gettime", 80),
    ];
    let mut env = AppEnv::with_transport(
        SimConfig::builder().deterministic().build(),
        IfaceMode::HotCalls,
        &apis,
        1 << 20,
        RtTransport::Auto,
    )
    .expect("auto env builds");
    env.enter_main().expect("enter main");
    let registry = TelemetryRegistry::new();
    registry.register_ctl(env.ctl_provider("app-auto").expect("auto env has ctl"));
    tracer().enable(DEFAULT_TRACE_CAPACITY);

    for i in 0..8_192u64 {
        for _ in 0..8 {
            env.api_call("getpid", &[]).expect("getpid");
        }
        env.compute(400_000);
        if i % 8 == 0 {
            env.api_call("clock_gettime", &[]).expect("clock_gettime");
        }
    }
    let sparse = env.ctl_telemetry("app-auto").expect("auto env has ctl");
    let rare_sparse = route_of(&sparse, "clock_gettime");

    // Dense phase: the rare call's interarrival collapses, the standby
    // tax with it — the switchless side wins the break-even again.
    for _ in 0..4_096u64 {
        env.api_call("clock_gettime", &[]).expect("clock_gettime");
    }
    let dense = env.ctl_telemetry("app-auto").expect("auto env has ctl");
    let rare_dense = route_of(&dense, "clock_gettime");
    let dense_route = route_of(&dense, "getpid");
    let stats = env.ctl_stats().expect("auto env has ctl");
    tracer().disable();
    let trace = tracer().export_chrome_json();
    let prom = registry.snapshot().to_prometheus();

    let mut out = Outcome::titled("break-even router (virtual time, deterministic)");
    say!(
        out,
        "  dense `getpid`       -> {dense_route} | rare `clock_gettime` sparse -> \
         {rare_sparse}, dense -> {rare_dense}"
    );
    say!(
        out,
        "  {} decisions, {} flips, {} sdk demotions, {} promotions, {} probes",
        stats.decisions,
        stats.flips,
        stats.sdk_demotions,
        stats.promotions,
        stats.explore_probes
    );
    out.check(
        rare_sparse == "sdk" && stats.sdk_demotions > 0,
        format!("rare API demoted to the SDK path while sparse (route `{rare_sparse}`)"),
    );
    out.check(
        rare_dense == "hot" && stats.promotions > 0,
        format!("rare API promoted back once dense (route `{rare_dense}`)"),
    );
    out.check(
        dense_route == "hot",
        format!("dense API stays switchless (route `{dense_route}`)"),
    );
    for series in [
        "hotcalls_ctl_decisions_total",
        "hotcalls_ctl_route_flips_total",
        "hotcalls_ctl_sdk_demotions_total",
    ] {
        out.check(
            prom.contains(series),
            format!("`{series}` in the Prometheus exposition"),
        );
    }
    out.check(
        trace.contains("ctl_flip"),
        "a `ctl_flip` event in the exported trace".into(),
    );
    out
}
