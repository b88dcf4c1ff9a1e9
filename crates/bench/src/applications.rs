//! Application-level runners for Table 2 and Figures 10/11.

use apps::lighttpd::{self, Lighttpd};
use apps::memcached::{self, Memcached};
use apps::openvpn::{self, OpenVpn};
use apps::{AppEnv, IfaceMode};
use hotcalls::telemetry::ApiCensus;
use sgx_sim::SimConfig;
use workloads::{http_load, iperf, memtier, ping, RunResult};

/// The paper's "each ocall … takes roughly 8,300 cycles" estimate used in
/// Table 2's Core Time column.
const TABLE2_CYCLES_PER_CALL: f64 = 8_300.0;

/// Workload scale knobs (smaller than the paper's multi-million-request
/// runs so the full harness finishes quickly; rates are insensitive to
/// duration).
#[derive(Debug, Clone, Copy)]
pub struct AppScale {
    /// memtier requests.
    pub memcached_requests: u64,
    /// http_load fetches.
    pub lighttpd_fetches: u64,
    /// iperf packet events.
    pub openvpn_packets: u64,
    /// flood-ping echoes.
    pub ping_count: u64,
}

impl AppScale {
    /// The `--smoke` scale: enough requests for every rate and ordering
    /// to settle, few enough for tier-1.
    pub const SMOKE: AppScale = AppScale {
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

/// One application measurement under one interface mode.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Interface configuration.
    pub mode: IfaceMode,
    /// Workload outcome.
    pub result: RunResult,
}

/// Runs memtier against memcached under `mode`.
pub fn run_memcached(mode: IfaceMode, requests: u64) -> AppRun {
    let mut env = AppEnv::new(sim_config(101), mode, &memcached::api_table(), 64 << 20)
        .expect("memcached env");
    let mut server = Memcached::new(&mut env, 8_192, 2_048).expect("server");
    let result = memtier::run(
        &mut env,
        &mut server,
        memtier::MemtierConfig {
            requests,
            keyspace: 2_048,
            ..memtier::MemtierConfig::default()
        },
    )
    .expect("memtier run");
    AppRun { mode, result }
}

/// Runs http_load against lighttpd under `mode`.
pub fn run_lighttpd(mode: IfaceMode, fetches: u64) -> AppRun {
    let mut env =
        AppEnv::new(sim_config(102), mode, &lighttpd::api_table(), 64 << 20).expect("lighttpd env");
    env.enter_main().expect("enter");
    let mut server = Lighttpd::new(&mut env).expect("server");
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
    AppRun { mode, result }
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
pub fn run_openvpn_iperf(mode: IfaceMode, packets: u64) -> (AppRun, f64) {
    let (mut env, mut endpoint, _peer_env, mut peer) = vpn_pair(mode, 103);
    let cfg = iperf::IperfConfig {
        packets,
        ..iperf::IperfConfig::default()
    };
    let result = iperf::run(&mut env, &mut endpoint, &mut peer, cfg).expect("iperf run");
    let mbps = iperf::bandwidth_mbps(&result, cfg.payload_bytes);
    (AppRun { mode, result }, mbps)
}

/// Runs the flood ping through the tunnel under `mode`.
pub fn run_openvpn_ping(mode: IfaceMode, count: u64) -> AppRun {
    let (mut env, mut endpoint, _peer_env, mut peer) = vpn_pair(mode, 105);
    let result = ping::run(
        &mut env,
        &mut endpoint,
        &mut peer,
        ping::PingConfig {
            count,
            ..ping::PingConfig::default()
        },
    )
    .expect("ping run");
    AppRun { mode, result }
}

/// One application's Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// (call name, thousands of calls per second), most frequent first.
    pub frequent: Vec<(String, f64)>,
    /// Total calls ×1000/s.
    pub total_kcalls: f64,
    /// Fraction of core time spent facilitating calls, by the paper's
    /// `N_calls × 8,300 / 4 GHz` estimate.
    pub core_time: f64,
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
pub fn table2(scale: AppScale) -> Vec<Table2Row> {
    let mut rows = Vec::new();

    {
        let mut env = AppEnv::new(
            sim_config(201),
            IfaceMode::Sdk,
            &memcached::api_table(),
            64 << 20,
        )
        .expect("env");
        let mut server = Memcached::new(&mut env, 8_192, 2_048).expect("server");
        let before = env.elapsed_secs();
        memtier::run(
            &mut env,
            &mut server,
            memtier::MemtierConfig {
                requests: scale.memcached_requests,
                keyspace: 1_024,
                ..memtier::MemtierConfig::default()
            },
        )
        .expect("memtier");
        rows.push(table2_row(
            "Memcached",
            &env,
            env.elapsed_secs() - before,
            3,
        ));
    }
    {
        let (mut env, mut endpoint, _pe, mut peer) = vpn_pair(IfaceMode::Sdk, 202);
        let before = env.elapsed_secs();
        iperf::run(
            &mut env,
            &mut endpoint,
            &mut peer,
            iperf::IperfConfig {
                packets: scale.openvpn_packets,
                ..iperf::IperfConfig::default()
            },
        )
        .expect("iperf");
        rows.push(table2_row("OpenVPN", &env, env.elapsed_secs() - before, 7));
    }
    {
        let mut env = AppEnv::new(
            sim_config(203),
            IfaceMode::Sdk,
            &lighttpd::api_table(),
            64 << 20,
        )
        .expect("env");
        env.enter_main().expect("enter");
        let mut server = Lighttpd::new(&mut env).expect("server");
        let before = env.elapsed_secs();
        http_load::run(
            &mut env,
            &mut server,
            http_load::HttpLoadConfig {
                fetches: scale.lighttpd_fetches,
                pages: 32,
                ..http_load::HttpLoadConfig::default()
            },
        )
        .expect("http_load");
        rows.push(table2_row(
            "Lighttpd",
            &env,
            env.elapsed_secs() - before,
            14,
        ));
    }
    rows
}

/// The interface configurations the census compares: the plain SDK port
/// and HotCalls over the plane [`AppEnv::new`] builds ("hot").
pub const CENSUS_MODES: [IfaceMode; 2] = [IfaceMode::Sdk, IfaceMode::HotCalls];

/// Drives memtier against memcached under one mode and returns the
/// environment's Table-2-style census.
pub fn census_memcached(mode: IfaceMode, requests: u64) -> ApiCensus {
    let mut env = AppEnv::new(sim_config(301), mode, &memcached::api_table(), 64 << 20)
        .expect("memcached env");
    let mut server = Memcached::new(&mut env, 8_192, 2_048).expect("server");
    memtier::run(
        &mut env,
        &mut server,
        memtier::MemtierConfig {
            requests,
            keyspace: 1_024,
            ..memtier::MemtierConfig::default()
        },
    )
    .expect("memtier run");
    env.api_census(memcached::NAME)
}

/// Drives http_load against lighttpd under one mode.
pub fn census_lighttpd(mode: IfaceMode, fetches: u64) -> ApiCensus {
    let mut env =
        AppEnv::new(sim_config(302), mode, &lighttpd::api_table(), 64 << 20).expect("lighttpd env");
    env.enter_main().expect("enter");
    let mut server = Lighttpd::new(&mut env).expect("server");
    http_load::run(
        &mut env,
        &mut server,
        http_load::HttpLoadConfig {
            fetches,
            pages: 32,
            ..http_load::HttpLoadConfig::default()
        },
    )
    .expect("http_load run");
    env.api_census(lighttpd::NAME)
}

/// Drives iperf through the openVPN tunnel under one mode.
pub fn census_openvpn(mode: IfaceMode, packets: u64) -> ApiCensus {
    let secret = [0x5Au8; 32];
    let mut env =
        AppEnv::new(sim_config(303), mode, &openvpn::api_table(), 16 << 20).expect("vpn env");
    env.enter_main().expect("enter");
    let mut endpoint = OpenVpn::new(&mut env, &secret).expect("endpoint");
    let mut peer_env = AppEnv::new(
        sim_config(304),
        IfaceMode::Native,
        &openvpn::api_table(),
        1 << 20,
    )
    .expect("peer env");
    let mut peer = OpenVpn::new(&mut peer_env, &secret).expect("peer");
    iperf::run(
        &mut env,
        &mut endpoint,
        &mut peer,
        iperf::IperfConfig {
            packets,
            ..iperf::IperfConfig::default()
        },
    )
    .expect("iperf run");
    env.api_census(openvpn::NAME)
}

/// The full API census: all three applications under each of
/// [`CENSUS_MODES`] — six Table-2-style reports.
pub fn api_census_all(scale: AppScale) -> Vec<ApiCensus> {
    let mut out = Vec::with_capacity(CENSUS_MODES.len() * 3);
    for mode in CENSUS_MODES {
        out.push(census_memcached(mode, scale.memcached_requests));
        out.push(census_openvpn(mode, scale.openvpn_packets));
        out.push(census_lighttpd(mode, scale.lighttpd_fetches));
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
            .map(|&mode| run_memcached(mode, 800).result.ops_per_sec)
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
            .map(|&mode| census_memcached(mode, 400))
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
