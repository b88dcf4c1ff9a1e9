//! Application-level runners for Table 2 and Figures 10/11.

use apps::lighttpd::{self, Lighttpd};
use apps::memcached::{self, Memcached};
use apps::openvpn::{self, OpenVpn};
use apps::ApiCensus;
use apps::{AppEnv, IfaceMode};
use sgx_sim::SimConfig;
use workloads::{http_load, iperf, memtier, ping, RunResult};

/// The paper's "each ocall … takes roughly 8,300 cycles" estimate used in
/// Table 2's Core Time column.
const TABLE2_CYCLES_PER_CALL: f64 = 8_300.0;

/// Workload scale knobs (smaller than the paper's multi-million-request
/// runs so the full harness finishes quickly; rates are insensitive to
/// duration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppScale {
    /// memtier requests.
    pub(crate) memcached_requests: u64,
    /// http_load fetches.
    pub(crate) lighttpd_fetches: u64,
    /// iperf packet events.
    pub(crate) openvpn_packets: u64,
    /// flood-ping echoes.
    pub(crate) ping_count: u64,
}

impl AppScale {
    /// The `--smoke` scale: enough requests for every rate and ordering
    /// to settle, few enough for tier-1.
    pub(crate) const SMOKE: AppScale = AppScale {
        memcached_requests: 400,
        lighttpd_fetches: 200,
        openvpn_packets: 200,
        ping_count: 200,
    };
}

impl Default for AppScale {
    fn default() -> Self {
        AppScale {
            memcached_requests: 3_000,
            lighttpd_fetches: 1_500,
            openvpn_packets: 1_500,
            ping_count: 800,
        }
    }
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig::builder().seed(seed).build()
}

/// Runs memtier against memcached under `mode` on a machine seeded with
/// `seed`. Returns the environment, the virtual seconds it had elapsed
/// when the driver started (Table 2 times everything after, memtier's
/// prefill included), and the run.
fn memtier_run(
    mode: IfaceMode,
    seed: u64,
    keyspace: u64,
    requests: u64,
) -> (AppEnv, f64, RunResult) {
    let mut env = AppEnv::new(sim_config(seed), mode, &memcached::api_table(), 64 << 20)
        .expect("memcached env");
    let mut server = Memcached::new(&mut env, 8_192, 2_048).expect("server");
    let before = env.elapsed_secs();
    let result = memtier::run(
        &mut env,
        &mut server,
        memtier::MemtierConfig {
            requests,
            keyspace,
            ..memtier::MemtierConfig::default()
        },
    )
    .expect("memtier run");
    (env, before, result)
}

/// Runs http_load against lighttpd under `mode` on a machine seeded with
/// `seed`; returns what [`memtier_run`] does.
fn http_load_run(mode: IfaceMode, seed: u64, fetches: u64) -> (AppEnv, f64, RunResult) {
    let mut env = AppEnv::new(sim_config(seed), mode, &lighttpd::api_table(), 64 << 20)
        .expect("lighttpd env");
    env.enter_main().expect("enter");
    let mut server = Lighttpd::new(&mut env).expect("server");
    let before = env.elapsed_secs();
    let result = http_load::run(
        &mut env,
        &mut server,
        http_load::HttpLoadConfig {
            fetches,
            pages: 32,
            ..http_load::HttpLoadConfig::default()
        },
    )
    .expect("http_load run");
    (env, before, result)
}

/// Runs iperf through the tunnel under `mode`, the endpoint's machine
/// seeded with `seed` and its native peer's with `seed + 1`; returns what
/// [`memtier_run`] does.
fn iperf_run(mode: IfaceMode, seed: u64, packets: u64) -> (AppEnv, f64, RunResult) {
    let (mut env, mut endpoint, _peer_env, mut peer) = vpn_pair(mode, seed);
    let before = env.elapsed_secs();
    let cfg = iperf::IperfConfig {
        packets,
        ..iperf::IperfConfig::default()
    };
    let result = iperf::run(&mut env, &mut endpoint, &mut peer, cfg).expect("iperf run");
    (env, before, result)
}

/// Runs memtier against memcached under `mode`.
pub(crate) fn run_memcached(mode: IfaceMode, requests: u64) -> RunResult {
    memtier_run(mode, 101, 2_048, requests).2
}

/// Runs http_load against lighttpd under `mode`.
pub(crate) fn run_lighttpd(mode: IfaceMode, fetches: u64) -> RunResult {
    http_load_run(mode, 102, fetches).2
}

fn vpn_pair(mode: IfaceMode, seed: u64) -> (AppEnv, OpenVpn, AppEnv, OpenVpn) {
    let secret = [0x5Au8; 32];
    let mut env =
        AppEnv::new(sim_config(seed), mode, &openvpn::api_table(), 16 << 20).expect("vpn env");
    env.enter_main().expect("enter");
    let endpoint = OpenVpn::new(&mut env, &secret).expect("endpoint");
    let mut peer_env = AppEnv::new(
        sim_config(seed + 1),
        IfaceMode::Native,
        &openvpn::api_table(),
        1 << 20,
    )
    .expect("peer env");
    let peer = OpenVpn::new(&mut peer_env, &secret).expect("peer");
    (env, endpoint, peer_env, peer)
}

/// Runs iperf through the tunnel under `mode`; returns the run plus the
/// achieved bandwidth in Mbit/s.
pub(crate) fn run_openvpn_iperf(mode: IfaceMode, packets: u64) -> (RunResult, f64) {
    let result = iperf_run(mode, 103, packets).2;
    let mbps = iperf::bandwidth_mbps(&result, iperf::IperfConfig::default().payload_bytes);
    (result, mbps)
}

/// Runs the flood ping through the tunnel under `mode`.
pub(crate) fn run_openvpn_ping(mode: IfaceMode, count: u64) -> RunResult {
    let (mut env, mut endpoint, _peer_env, mut peer) = vpn_pair(mode, 105);
    ping::run(
        &mut env,
        &mut endpoint,
        &mut peer,
        ping::PingConfig {
            count,
            ..ping::PingConfig::default()
        },
    )
    .expect("ping run")
}

/// One application's Table 2 row.
#[derive(Debug, Clone)]
pub(crate) struct Table2Row {
    /// Application name.
    pub(crate) app: &'static str,
    /// (call name, thousands of calls per second), most frequent first.
    pub(crate) frequent: Vec<(String, f64)>,
    /// Total calls ×1000/s.
    pub(crate) total_kcalls: f64,
    /// Fraction of core time spent facilitating calls, by the paper's
    /// `N_calls × 8,300 / 4 GHz` estimate.
    pub(crate) core_time: f64,
}

fn table2_row(app: &'static str, env: &AppEnv, elapsed_secs: f64, top: usize) -> Table2Row {
    let mut frequent: Vec<(String, f64)> = env
        .api_counts()
        .iter()
        .map(|(&name, &count)| (name.to_owned(), count as f64 / elapsed_secs / 1e3))
        .filter(|(_, k)| *k > 0.0)
        .collect();
    frequent.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite rates"));
    let total_kcalls: f64 = frequent.iter().map(|(_, k)| k).sum();
    frequent.truncate(top);
    let core_time = total_kcalls * 1e3 * TABLE2_CYCLES_PER_CALL / 4e9;
    Table2Row {
        app,
        frequent,
        total_kcalls,
        core_time,
    }
}

/// Reproduces Table 2: API-call frequencies of the three *unoptimized*
/// SGX ports at peak load.
pub(crate) fn table2(scale: AppScale) -> Vec<Table2Row> {
    let row = |app, (env, before, _): (AppEnv, f64, RunResult), top| {
        table2_row(app, &env, env.elapsed_secs() - before, top)
    };
    vec![
        row(
            "Memcached",
            memtier_run(IfaceMode::Sdk, 201, 1_024, scale.memcached_requests),
            3,
        ),
        row(
            "OpenVPN",
            iperf_run(IfaceMode::Sdk, 202, scale.openvpn_packets),
            7,
        ),
        row(
            "Lighttpd",
            http_load_run(IfaceMode::Sdk, 203, scale.lighttpd_fetches),
            14,
        ),
    ]
}

/// The interface configurations the census compares: the plain SDK port
/// and HotCalls over the plane [`AppEnv::new`] builds ("hot").
pub(crate) const CENSUS_MODES: [IfaceMode; 2] = [IfaceMode::Sdk, IfaceMode::HotCalls];

/// The full API census: all three applications under each of
/// [`CENSUS_MODES`] — six Table-2-style reports.
pub(crate) fn api_census_all(scale: AppScale) -> Vec<ApiCensus> {
    let mut out = Vec::with_capacity(CENSUS_MODES.len() * 3);
    for mode in CENSUS_MODES {
        let (env, ..) = memtier_run(mode, 301, 1_024, scale.memcached_requests);
        out.push(env.api_census(memcached::NAME));
        let (env, ..) = iperf_run(mode, 303, scale.openvpn_packets);
        out.push(env.api_census(openvpn::NAME));
        let (env, ..) = http_load_run(mode, 302, scale.lighttpd_fetches);
        out.push(env.api_census(lighttpd::NAME));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::paper;

    #[test]
    fn fig10_shape_memcached() {
        let rps: Vec<f64> = IfaceMode::ALL
            .iter()
            .map(|&mode| run_memcached(mode, 800).ops_per_sec)
            .collect();
        // Normalized shape: native 1.0 > nrz >= hot > sdk.
        assert!(
            rps[0] > rps[3] && rps[3] >= rps[2] && rps[2] > rps[1],
            "ordering violated: {rps:?}"
        );
        let sdk_frac = rps[1] / rps[0];
        assert!(
            (0.1..0.45).contains(&sdk_frac),
            "paper: SGX memcached at ~0.21 of native; got {sdk_frac}"
        );
        let hot_gain = rps[2] / rps[1];
        assert!(
            (1.7..3.8).contains(&hot_gain),
            "paper: 2.4x HotCalls gain; got {hot_gain}"
        );
    }

    #[test]
    fn census_covers_both_modes_with_separable_interface_cost() {
        let censuses: Vec<ApiCensus> = CENSUS_MODES
            .iter()
            .map(|&mode| {
                memtier_run(mode, 301, 1_024, 400)
                    .0
                    .api_census(memcached::NAME)
            })
            .collect();
        assert_eq!(
            censuses.iter().map(|c| c.mode.as_str()).collect::<Vec<_>>(),
            ["sdk", "hot"]
        );
        for c in &censuses {
            assert_eq!(c.app, "memcached");
            assert!(c.total_calls > 0, "{}: no calls", c.mode);
            assert!(c.interface_cycles > 0, "{}: no interface cost", c.mode);
            assert!(!c.rows.is_empty());
            // Rows are sorted most-frequent first.
            assert!(c.rows.windows(2).all(|w| w[0].calls >= w[1].calls));
        }
        // The same workload pays far more interface cycles per call under
        // the SDK than over HotCalls — Table 2's point.
        let per_call = |c: &ApiCensus| c.interface_cycles as f64 / c.total_calls as f64;
        assert!(
            per_call(&censuses[0]) > 3.0 * per_call(&censuses[1]),
            "sdk {} vs hot {}",
            per_call(&censuses[0]),
            per_call(&censuses[1])
        );
    }

    #[test]
    fn table2_totals_and_core_time_in_band() {
        let rows = table2(AppScale {
            memcached_requests: 1_000,
            lighttpd_fetches: 600,
            openvpn_packets: 600,
            ping_count: 0,
        });
        assert_eq!(rows.len(), 3);
        for (row, (&paper_total, &paper_core)) in rows.iter().zip(
            paper::TABLE2_TOTAL_KCALLS
                .iter()
                .zip(paper::TABLE2_CORE_TIME.iter()),
        ) {
            assert!(
                row.total_kcalls > paper_total * 0.4 && row.total_kcalls < paper_total * 2.5,
                "{}: total {}k vs paper {}k",
                row.app,
                row.total_kcalls,
                paper_total
            );
            assert!(
                row.core_time > paper_core * 0.4 && row.core_time < paper_core.min(1.0) * 2.0,
                "{}: core time {} vs paper {}",
                row.app,
                row.core_time,
                paper_core
            );
        }
    }
}
