//! The measurement protocol, shared by every workload.
//!
//! 1. Generate inputs from the seed (untimed).
//! 2. Build the workload `R >= 5` times, for at least 2 s; `setup_s` is
//!    the fastest build. Interference only ever adds time, so the minimum
//!    is the estimate least moved by the host — provided the builds span
//!    enough time to catch the host in a quiet moment.
//! 3. Sim half: fixed op count, once, in virtual cycles. Exact per seed.
//! 4. Host half: short fixed-work trials (fixed op count, never fixed
//!    time) until `--seconds` have passed; a host metric is the
//!    [`floor`] over trials of the per-trial value: the fastest trial of
//!    the host's usual regime (README has the measurements behind it).
//!    `peak_rss_mib` is read once the fixed work is done (builds, sim
//!    half, warm-up, the first `min_trials` trials): the simulator's
//!    state grows with the lines it has touched, so a reading at exit
//!    would depend on how many trials the host managed in `--seconds`.
//! 5. Traced run only: every other trial carries spans, then the
//!    workload's isolated probes run.

use std::time::{Duration, Instant};

use crate::emit::JsonWriter;
use crate::metrics::Metrics;
use crate::procfs::{cpu_ns, peak_rss_mib};
use crate::stats::{floor, min, quantile, quantile_u64, ratio};
use crate::trace::{NoProbe, SpanProbe};
use crate::workload::{Scale, SetupNotes, SimReport, SimSide, Trial, Workload};

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the host half.
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Fewest builds `setup_s` is taken over, and the time they must
    /// span.
    pub min_setups: usize,
    pub setup_floor: Duration,
    /// Fewest host trials a run makes; `peak_rss_mib` is read after
    /// exactly this many.
    pub min_trials: usize,
}

impl RunConfig {
    pub fn measured(seed: u64, seconds: f64, traced: bool) -> Self {
        RunConfig {
            seed,
            seconds,
            traced,
            scale: Scale::FULL,
            min_setups: 5,
            setup_floor: Duration::from_secs(2),
            min_trials: 8,
        }
    }

    /// `--check`: 1/50 of the work, just enough repeats to exercise the
    /// protocol.
    pub fn check(seed: u64, traced: bool) -> Self {
        RunConfig {
            seed,
            seconds: 0.0,
            traced,
            scale: Scale::CHECK,
            min_setups: 2,
            setup_floor: Duration::ZERO,
            min_trials: 4,
        }
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    pub sim: SimReport,
    /// chrome://tracing JSON of the traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").boolean(self.correct());
        w.key("attempted").number(self.attempted as f64);
        w.key("failed").number(self.failed as f64);
        w.key("metrics").begin_object();
        for (def, value) in self.metrics.iter() {
            w.key(def.name).begin_object();
            w.key("value").number(value);
            w.key("unit").string(def.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

struct HostTrials {
    ns_per_op: Vec<f64>,
    traced_ns_per_op: Vec<f64>,
    /// Wall and CPU ns summed over the untraced trials.
    wall_ns: u64,
    cpu_ns: u64,
    attempted: u64,
    failed: u64,
    /// `VmHWM` after the first `min_trials` trials.
    peak_rss_mib: f64,
}

impl HostTrials {
    fn tally(&mut self, t: Trial) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, u64, u64), String> {
    let cpu = cpu_ns();
    let t = Instant::now();
    let r = f()?;
    let ns = t.elapsed().as_nanos() as u64;
    Ok((r, ns, cpu_ns().saturating_sub(cpu)))
}

fn host_half<W: Workload>(
    w: &mut W,
    inputs: &W::Inputs,
    cfg: &RunConfig,
    mut probe: Option<&mut SpanProbe>,
) -> Result<HostTrials, String> {
    let mut out = HostTrials {
        ns_per_op: Vec::new(),
        traced_ns_per_op: Vec::new(),
        wall_ns: 0,
        cpu_ns: 0,
        attempted: 0,
        failed: 0,
        peak_rss_mib: 0.0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut trial = 0u64;
    loop {
        let (t, ns, cpu) = timed(|| w.host_trial(inputs, trial, &mut NoProbe))?;
        out.ns_per_op.push(ns as f64 / t.ops);
        out.wall_ns += ns;
        out.cpu_ns += cpu;
        out.tally(t);
        // Interleaved, so the traced and untraced quartiles see the same
        // host conditions and their ratio is the tracing overhead.
        if let Some(p) = probe.as_deref_mut() {
            let (t, ns, _) = timed(|| w.host_trial(inputs, trial, p))?;
            out.traced_ns_per_op.push(ns as f64 / t.ops);
            out.tally(t);
        }
        trial += 1;
        if out.ns_per_op.len() == cfg.min_trials {
            out.peak_rss_mib = peak_rss_mib();
        }
        if out.ns_per_op.len() >= cfg.min_trials && Instant::now() >= deadline {
            return Ok(out);
        }
    }
}

fn miss_share(pair: (u64, u64)) -> f64 {
    ratio(pair.1 as f64, (pair.0 + pair.1) as f64)
}

fn cycles_per_op(side: &SimSide) -> f64 {
    ratio(side.cycles as f64, side.ops)
}

/// The per-layer metrics that follow from the sim half's counters alone.
fn set_sim_layers(out: &mut Metrics, sim: &SimReport, notes: &SetupNotes) {
    let hot = &sim.hot;
    out.set("sgx-sim.cache.llc_miss_share", miss_share(hot.llc));
    out.set("sgx-sim.mee.node_miss_share", miss_share(hot.mee));
    out.set("sgx-sim.tlb.miss_share", miss_share(hot.tlb));
    out.set(
        "sgx-sim.epc.paging_cycles_per_op",
        ratio(hot.paging_cycles as f64, hot.ops),
    );
    out.set(
        "sgx-sim.epc.faults_per_op",
        ratio(hot.epc_faults as f64, hot.ops),
    );
    out.set(
        "sgx-sim.enclave.build_cycles",
        notes.enclave_build_cycles as f64,
    );
    out.set(
        "sgx-sim.enclave.build_host_ms",
        notes.enclave_build_host_ns as f64 / 1e6,
    );
    out.set(
        "sgx-sim.enclave.aex_per_kop",
        ratio(hot.aex as f64, hot.ops / 1e3),
    );
    out.set(
        "sgx-sdk.calls.ocall_cycles_p50",
        quantile_u64(&sim.sdk.call_cycles, 0.5),
    );
    out.set(
        "hotcalls.sim.hot_ocall_cycles_p50",
        quantile_u64(&hot.call_cycles, 0.5),
    );
    out.set(
        "hotcalls.sim.hot_ocall_cycles_p99",
        quantile_u64(&hot.call_cycles, 0.99),
    );
    out.set(
        "hotcalls.sim.fallback_share",
        ratio(
            hot.hot_fallbacks as f64,
            (hot.hot_calls + hot.hot_fallbacks) as f64,
        ),
    );
    out.set(
        "hotcalls.sim.speedup_vs_sdk",
        ratio(cycles_per_op(&sim.sdk), cycles_per_op(hot)),
    );
    out.set(
        "apps.env.edge_calls_per_op",
        ratio(hot.edge_calls as f64, hot.ops),
    );
    out.set(
        "apps.env.iface_share",
        ratio(hot.iface_cycles as f64, hot.cycles as f64),
    );
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Result<Outcome, String> {
    let inputs = W::generate(cfg.seed, cfg.scale);

    let mut setup_s = Vec::new();
    let mut notes = SetupNotes::default();
    let setups_began = Instant::now();
    let mut w = loop {
        let t = Instant::now();
        let built = W::build(&inputs, &mut notes)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() >= cfg.min_setups && setups_began.elapsed() >= cfg.setup_floor {
            break built;
        }
        // Tear down (joining the plane's threads) before building again:
        // a build is measured with nothing of the previous one alive.
        drop(built);
    };

    let sim = w.sim(&inputs)?;
    w.warm_host(&inputs)?;
    let mut probe = cfg.traced.then(SpanProbe::new);
    let host = host_half(&mut w, &inputs, cfg, probe.as_mut())?;

    let host_ns_per_op = floor(&host.ns_per_op);
    // CPUs the process kept busy, over the whole host half. (A per-trial
    // CPU reading is too coarse to take a floor of: the kernel advances a
    // spinning thread's run time once per tick, and a trial is one to
    // thirty ticks long.)
    let cpus_busy = ratio(host.cpu_ns as f64, host.wall_ns as f64);
    let attempted = sim.hot.attempted + sim.sdk.attempted + host.attempted;
    let mut failed = sim.hot.failed + sim.sdk.failed + host.failed;

    let (metrics, trace_json) = match &probe {
        None => {
            let mut m = Metrics::end_to_end();
            m.set("setup_s", min(&setup_s));
            m.set("sim_cycles_per_op", cycles_per_op(&sim.hot));
            m.set("sim_sdk_cycles_per_op", cycles_per_op(&sim.sdk));
            m.set("host_ns_per_op", host_ns_per_op);
            m.set("host_cpus_busy", cpus_busy);
            m.set("peak_rss_mib", host.peak_rss_mib);
            (m, None)
        }
        Some(probe) => {
            let mut m = Metrics::per_layer();
            set_sim_layers(&mut m, &sim, &notes);
            let explained = w.layers(&inputs, &sim, probe, &mut m)?;
            // A leaked stream ticket is a wrong output even though every
            // byte arrived.
            if m.get("hotcalls.rt.stream.ticket_leak").unwrap_or(0.0) != 0.0 {
                failed += 1;
            }
            m.set("harness.host_trials", host.ns_per_op.len() as f64);
            m.set("harness.host_cpu_ns_per_op", host_ns_per_op * cpus_busy);
            m.set(
                "harness.failed_ops_share",
                ratio(failed as f64, attempted as f64),
            );
            m.set(
                "trace.overhead_share",
                ratio(floor(&host.traced_ns_per_op), host_ns_per_op) - 1.0,
            );
            m.set("trace.dropped_spans", probe.dropped() as f64);
            // Unit costs are span medians and probe means, so they are
            // reconciled against the median trial, not the floor.
            let typical = quantile(&host.ns_per_op, 0.5);
            m.set("layers.sum_share", ratio(explained, typical));
            m.set("layers.unattributed_ns_per_op", typical - explained);
            m.fill_unset_with_zero();
            (m, Some(probe.chrome_json(W::NAME)))
        }
    };

    Ok(Outcome {
        workload: W::NAME,
        attempted,
        failed,
        metrics,
        sim,
        trace_json,
    })
}
