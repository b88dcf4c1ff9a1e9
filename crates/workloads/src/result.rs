//! Result types shared by the workload drivers and the benchmark harness.

use serde::{Deserialize, Serialize};

/// Outcome of a throughput/latency run (memtier, http_load, iperf, ping).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Operations (requests / pages / packets) completed.
    pub operations: u64,
    /// Virtual seconds elapsed.
    pub(crate) elapsed_secs: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Average end-to-end latency in milliseconds (Little's law over the
    /// workload's outstanding-request window, the same relationship the
    /// paper's client tools measure).
    pub latency_ms: f64,
    /// Total edge calls issued by the application during the run.
    pub edge_calls: u64,
    /// Fraction of core time spent in the call interface.
    pub(crate) interface_fraction: f64,
}

impl RunResult {
    /// Derives a result from raw counters.
    pub(crate) fn from_counts(
        operations: u64,
        elapsed_secs: f64,
        outstanding: f64,
        base_latency_ms: f64,
        edge_calls: u64,
        interface_fraction: f64,
    ) -> Self {
        let ops_per_sec = if elapsed_secs > 0.0 {
            operations as f64 / elapsed_secs
        } else {
            0.0
        };
        let latency_ms = if ops_per_sec > 0.0 {
            base_latency_ms + outstanding / ops_per_sec * 1e3
        } else {
            0.0
        };
        RunResult {
            operations,
            elapsed_secs,
            ops_per_sec,
            latency_ms,
            edge_calls,
            interface_fraction,
        }
    }

    /// Throughput in megabits/second given bytes moved per operation.
    pub(crate) fn mbits_per_sec(&self, bytes_per_op: u64) -> f64 {
        self.ops_per_sec * bytes_per_op as f64 * 8.0 / 1e6
    }
}

/// Outcome of a SPEC-like kernel run (one memory placement).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel operations performed.
    pub(crate) operations: u64,
    /// Virtual cycles consumed.
    pub(crate) cycles: u64,
    /// Cycles per operation.
    pub cycles_per_op: f64,
}

impl KernelResult {
    /// Builds a result from counters.
    pub(crate) fn new(operations: u64, cycles: u64) -> Self {
        KernelResult {
            operations,
            cycles,
            cycles_per_op: if operations > 0 {
                cycles as f64 / operations as f64
            } else {
                0.0
            },
        }
    }

    /// Slowdown of `self` (encrypted placement) relative to `plain`.
    pub fn slowdown_vs(&self, plain: &KernelResult) -> f64 {
        if plain.cycles_per_op > 0.0 {
            self.cycles_per_op / plain.cycles_per_op
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn littles_law_latency() {
        // 200 outstanding at 316.5k ops/s => ~0.632 ms (the paper's native
        // memcached numbers).
        let r = RunResult::from_counts(4_000_000, 4_000_000.0 / 316_500.0, 200.0, 0.0, 0, 0.0);
        assert!((r.latency_ms - 0.632).abs() < 0.01, "{}", r.latency_ms);
    }

    #[test]
    fn mbits_conversion() {
        let r = RunResult::from_counts(72_000, 1.0, 100.0, 0.0, 0, 0.0);
        let mbit = r.mbits_per_sec(1_500);
        assert!((mbit - 864.0).abs() < 1.0, "{mbit}");
    }

    #[test]
    fn kernel_slowdown() {
        let plain = KernelResult::new(100, 10_000);
        let enc = KernelResult::new(100, 15_500);
        assert!((enc.slowdown_vs(&plain) - 1.55).abs() < 1e-9);
    }

    #[test]
    fn zero_division_is_guarded() {
        let r = RunResult::from_counts(0, 0.0, 10.0, 0.0, 0, 0.0);
        assert_eq!(r.ops_per_sec, 0.0);
        assert_eq!(r.latency_ms, 0.0);
        let k = KernelResult::new(0, 0);
        assert_eq!(k.cycles_per_op, 0.0);
    }
}
