//! Output formatting and the paper's reference numbers.

use crate::experiments::{say, Outcome};

/// Reference values from the paper, for side-by-side reporting.
pub(crate) mod paper {
    /// Table 1 row 1: ecall, warm cache (median cycles).
    pub(crate) const ECALL_WARM: u64 = 8_640;
    /// Table 1 row 2: ecall, cold cache.
    pub(crate) const ECALL_COLD: u64 = 14_170;
    /// Table 1 row 3: ecall + 2 KB buffer, modes in / out / in&out.
    pub(crate) const ECALL_BUF_2K: [u64; 3] = [9_861, 11_172, 10_827];
    /// Table 1 row 4: ocall, warm cache.
    pub(crate) const OCALL_WARM: u64 = 8_314;
    /// Table 1 row 5: ocall, cold cache.
    pub(crate) const OCALL_COLD: u64 = 14_160;
    /// Table 1 row 6: ocall + 2 KB buffer, modes to / from / to&from.
    pub(crate) const OCALL_BUF_2K: [u64; 3] = [9_252, 11_418, 9_801];
    /// Table 1 row 7: 2 KB consecutive read, encrypted / plaintext.
    pub(crate) const READ_2K: [u64; 2] = [1_124, 727];
    /// Table 1 row 8: 2 KB consecutive write, encrypted / plaintext.
    pub(crate) const WRITE_2K: [u64; 2] = [6_875, 6_458];
    /// Table 1 row 9: cache load miss, encrypted / plaintext.
    pub(crate) const LOAD_MISS: [u64; 2] = [400, 308];
    /// Table 1 row 10: cache store miss, encrypted / plaintext.
    pub(crate) const STORE_MISS: [u64; 2] = [575, 481];
    /// §4.3: HotCalls p78 latency.
    pub(crate) const HOTCALL_P78: u64 = 620;
    /// §4.3: HotCalls p99.97 latency.
    pub(crate) const HOTCALL_P9997: u64 = 1_400;
    /// Fig. 6 read overheads (%) for 2/4/8/16/32 KB buffers.
    pub(crate) const FIG6_READ_OVERHEAD_PCT: [f64; 5] = [54.5, 68.0, 71.0, 94.0, 102.0];
    /// Fig. 8 SPEC slowdowns: mcf, libquantum.
    pub(crate) const MCF_SLOWDOWN: f64 = 1.55;
    /// libquantum's EPC-overflow collapse.
    pub(crate) const LIBQUANTUM_SLOWDOWN: f64 = 5.2;
    /// §6.2 memcached requests/second: native, SGX, +HotCalls, +NRZ.
    pub(crate) const MEMCACHED_RPS: [f64; 4] = [316_500.0, 66_500.0, 162_000.0, 185_000.0];
    /// §6.2 memcached latency (ms).
    pub(crate) const MEMCACHED_LAT_MS: [f64; 4] = [0.63, 2.97, 1.23, 1.08];
    /// §6.3 openVPN bandwidth (Mbit/s).
    pub(crate) const OPENVPN_MBPS: [f64; 4] = [866.0, 309.0, 694.0, 823.0];
    /// §6.3 openVPN flood-ping RTT (ms).
    pub(crate) const OPENVPN_RTT_MS: [f64; 4] = [1.427, 4.579, 1.873, 1.747];
    /// §6.4 lighttpd pages/second.
    pub(crate) const LIGHTTPD_RPS: [f64; 4] = [53_400.0, 12_100.0, 40_400.0, 44_800.0];
    /// §6.4 lighttpd latency (ms).
    pub(crate) const LIGHTTPD_LAT_MS: [f64; 4] = [1.52, 8.25, 2.40, 2.13];
    /// Table 2 total calls x1000/s: memcached, openVPN, lighttpd.
    pub(crate) const TABLE2_TOTAL_KCALLS: [f64; 3] = [200.0, 275.0, 270.0];
    /// Table 2 core-time fractions.
    pub(crate) const TABLE2_CORE_TIME: [f64; 3] = [0.42, 0.57, 0.56];
}

/// Appends one paper-vs-measured row of cycle counts with the ratio.
pub(crate) fn compare_cycles(out: &mut Outcome, label: &str, paper: u64, measured: u64) {
    let (paper, measured) = (paper as f64, measured as f64);
    let ratio = if paper != 0.0 { measured / paper } else { 0.0 };
    say!(
        out,
        "{label:<42} paper {paper:>12.1} cycles   measured {measured:>12.1} cycles   (x{ratio:.2})"
    );
}

/// Formats a throughput series normalized to its first (native) entry —
/// the form Figs. 10/11 plot.
pub(crate) fn normalized(series: &[f64]) -> Vec<f64> {
    let base = series.first().copied().unwrap_or(1.0);
    series
        .iter()
        .map(|v| if base != 0.0 { v / base } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_anchors_at_one() {
        let n = normalized(&[200.0, 50.0, 100.0]);
        assert!((n[0] - 1.0).abs() < 1e-12);
        assert!((n[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_constants_are_consistent() {
        // The paper's own derived ratios should hold in the constants.
        const {
            assert!(paper::ECALL_COLD > paper::ECALL_WARM);
            assert!(paper::MEMCACHED_RPS[0] > paper::MEMCACHED_RPS[3]);
            assert!(paper::MEMCACHED_RPS[3] > paper::MEMCACHED_RPS[1]);
        }
        let speedup = paper::ECALL_WARM as f64 / paper::HOTCALL_P78 as f64;
        assert!(speedup > 13.0, "the 13-27x claim: {speedup}");
    }
}
