//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repo root is `hotbench --manifest` verbatim (a test holds it to that),
//! and every run is checked to print exactly these names.

use crate::emit::JsonWriter;

/// Seconds one run spends in its host phase (`run_seconds`). The driver
/// passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

pub const BENCH_DIR: &str = "benchmark";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rt_call",
        "bare 64 B call, one in flight: per-call overhead of the mailbox plane and of the ~620-cycle sim HotCall dominates; memory model and arena idle",
    ),
    (
        "rt_pipe",
        "1 KiB in+out, 16 in flight on the byte ring: shows a sync-latency gain that costs pipelined throughput (spin, doze, batching, arena, memset/NRZ); bypasses the mailbox",
    ),
    (
        "kv_memtier",
        "the paper's memcached: 8192 keys x 2 KiB > modelled LLC, SET:GET 1:1, uniform, replies value-checked; cache/MEE/TLB model and apps::env do the work, 3 live calls per request",
    ),
    (
        "store_stream",
        "bandwidth: 16 MiB object over an 8 MiB EPC (sim) and SecureStore put+get of mixed 64 KiB-1 MiB objects (host); EPC paging, stream/SgList and crypto do the work, calls are few",
    ),
];

/// Virtual-cycle metrics repeat to the last digit for a fixed seed
/// (`--check` asserts it); across seeds they move by well under 0.1 %, so
/// 2 % still flags any real model change. `host_ns_per_op` is a floor
/// over fixed-work trials; on the 2-vCPU shared host its spread over ten
/// runs is 2-24 % depending on the workload and the hour (README,
/// NOISE.md), so it gets the widest bound the contract allows.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("sim_cycles_per_op", "cycles", 0.02),
    e2e("sim_sdk_cycles_per_op", "cycles", 0.02),
    e2e("host_ns_per_op", "ns", 0.25),
    e2e("host_cpus_busy", "cpus", 0.1),
    e2e("peak_rss_mib", "MiB", 0.1),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [MetricDef; 54] = [
    // sgx-sim
    layer("sgx-sim.machine.host_ns_per_access", "ns", Lower),
    layer("sgx-sim.cache.llc_miss_share", "fraction", Lower),
    layer("sgx-sim.mee.node_miss_share", "fraction", Lower),
    layer("sgx-sim.tlb.miss_share", "fraction", Lower),
    layer("sgx-sim.epc.paging_cycles_per_op", "cycles", Lower),
    layer("sgx-sim.epc.faults_per_op", "count", Lower),
    layer("sgx-sim.enclave.build_cycles", "cycles", Lower),
    layer("sgx-sim.enclave.build_host_ms", "ms", Lower),
    layer("sgx-sim.enclave.aex_per_kop", "count", Lower),
    // sgx-sdk
    layer("sgx-sdk.calls.ocall_cycles_p50", "cycles", Lower),
    layer("sgx-sdk.marshal.zeroed_bytes_per_op", "bytes", Lower),
    layer("sgx-sdk.marshal.elided_bytes_per_op", "bytes", Higher),
    layer("sgx-sdk.edl.host_us", "us", Lower),
    // hotcalls::sim
    layer("hotcalls.sim.hot_ocall_cycles_p50", "cycles", Lower),
    layer("hotcalls.sim.hot_ocall_cycles_p99", "cycles", Lower),
    layer("hotcalls.sim.fallback_share", "fraction", Lower),
    layer("hotcalls.sim.speedup_vs_sdk", "ratio", Higher),
    // hotcalls::rt
    layer("hotcalls.rt.mailbox.call_p50_ns", "ns", Lower),
    layer("hotcalls.rt.mailbox.call_p99_ns", "ns", Lower),
    layer("hotcalls.rt.mailbox.wakeups_per_kop", "count", Lower),
    layer("hotcalls.rt.mailbox.fallbacks_per_kop", "count", Lower),
    layer("hotcalls.rt.mailbox.idle_poll_share", "fraction", Lower),
    layer("hotcalls.rt.bytes.submit_p50_ns", "ns", Lower),
    layer("hotcalls.rt.bytes.wait_any_p50_ns", "ns", Lower),
    layer("hotcalls.rt.bytes.call_p99_ns", "ns", Lower),
    layer("hotcalls.rt.arena.allocs_per_kop", "count", Lower),
    layer("hotcalls.rt.arena.inline_hit_share", "fraction", Higher),
    layer("hotcalls.rt.arena.stale_recycles", "count", Lower),
    layer("hotcalls.rt.ring.idle_poll_share", "fraction", Lower),
    layer("hotcalls.rt.ring.wakeups_per_kop", "count", Lower),
    layer("hotcalls.rt.governor.parks_per_kop", "count", Lower),
    layer("hotcalls.rt.stream.plane_ns_per_mib", "ns", Lower),
    layer("hotcalls.rt.stream.chunks_per_op", "count", Lower),
    layer("hotcalls.rt.stream.resizes_per_op", "count", Lower),
    layer("hotcalls.rt.stream.ticket_leak", "count", Lower),
    // hotcalls::telemetry
    layer("hotcalls.telemetry.queue_p50_cycles", "cycles", Lower),
    layer("hotcalls.telemetry.service_p50_cycles", "cycles", Lower),
    layer("hotcalls.telemetry.reap_p50_cycles", "cycles", Lower),
    // apps
    layer("apps.memcached.serve_p50_ns", "ns", Lower),
    layer("apps.memcached.serve_p99_ns", "ns", Lower),
    layer("apps.env.edge_calls_per_op", "count", Lower),
    layer("apps.env.iface_share", "fraction", Lower),
    layer("apps.env.api_call_host_ns", "ns", Lower),
    layer("apps.storage.put_ns_per_mib", "ns", Lower),
    layer("apps.storage.get_ns_per_mib", "ns", Lower),
    layer("apps.storage.seal_reference_ns_per_mib", "ns", Lower),
    layer("apps.storage.dedup_hit_share", "fraction", Higher),
    // harness
    layer("harness.host_trials", "count", Higher),
    layer("harness.host_cpu_ns_per_op", "ns", Lower),
    layer("harness.failed_ops_share", "fraction", Lower),
    layer("trace.overhead_share", "fraction", Lower),
    layer("trace.dropped_spans", "count", Lower),
    layer("layers.sum_share", "fraction", Higher),
    layer("layers.unattributed_ns_per_op", "ns", Lower),
];

/// The contract's rule for workload and metric names.
pub fn name_ok(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.as_bytes()[0].is_ascii_alphanumeric()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The metric values of one run, in manifest order once complete.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::for_defs(&END_TO_END)
    }

    pub fn per_layer() -> Self {
        Self::for_defs(&PER_LAYER)
    }

    fn for_defs(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name`. A name outside the manifest, or one set twice, is
    /// a harness bug: every metric is printed exactly once.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the manifest"));
        assert!(self.values[i].is_none(), "metric {name:?} set twice");
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// Metrics a workload does not exercise report 0 (README: "0 means
    /// the layer is not on this workload's path").
    pub fn fill_unset_with_zero(&mut self) {
        for v in &mut self.values {
            v.get_or_insert(0.0);
        }
    }

    /// `(definition, value)` in manifest order.
    ///
    /// # Panics
    ///
    /// If a metric was never set — the run must not print a partial set.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            (
                d,
                v.unwrap_or_else(|| panic!("metric {:?} was never set", d.name)),
            )
        })
    }
}

fn write_defs(w: &mut JsonWriter, key: &str, defs: &[MetricDef]) {
    w.newline(2).key(key).begin_array();
    for d in defs {
        w.newline(4).begin_object();
        w.key("name").string(d.name);
        w.key("unit").string(d.unit);
        w.key("better").string(d.better.as_str());
        if let Some(b) = d.bound {
            w.key("bound").number(b);
        }
        w.end_object();
    }
    w.newline(2).end_array();
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.newline(2).key("command").begin_array();
    for arg in [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        w.string(arg);
    }
    w.end_array();
    w.newline(2).key("paths").begin_array().string(BENCH_DIR);
    w.end_array();
    w.newline(2).key("run_seconds").number(RUN_SECONDS as f64);
    w.newline(2).key("workloads").begin_array();
    for (name, why) in WORKLOADS {
        w.newline(4).begin_object();
        w.key("name").string(name);
        w.key("why").string(why);
        w.end_object();
    }
    w.newline(2).end_array();
    write_defs(&mut w, "end_to_end", &END_TO_END);
    write_defs(&mut w, "per_layer", &PER_LAYER);
    w.newline(0).end_object();
    let mut s = w.finish();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name} why too long"
            );
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // `assert!`, not `assert_eq!`: a mismatch should not dump both
        // 8 KiB files.
        assert!(
            committed == manifest_json(),
            "BENCHMARK.json is stale: regenerate with `hotbench --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_cannot_be_set_twice() {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
    }
}
