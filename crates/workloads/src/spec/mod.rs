//! SPEC CPU2006-like memory-intensive kernels (paper §3.4 / Fig. 8).
//!
//! The paper runs `mcf`, `libquantum` and `astar` inside and outside the
//! enclave to expose the MEE's behaviour under realistic access patterns —
//! including libquantum's catastrophic 5.2× collapse when its 96 MB
//! working set overflows the 93 MB EPC. The kernels here reproduce each
//! benchmark's *access pattern* with real data structures: sparse pointer
//! chasing (mcf), full-register streaming (libquantum), and neighborhood
//! search with a priority queue (astar).

mod astar;
mod libquantum;
mod mcf;

pub use astar::{run as run_astar, AstarConfig};
pub use libquantum::{run as run_libquantum, LibquantumConfig};
pub use mcf::{run as run_mcf, McfConfig};

use sgx_sim::{Addr, EnclaveBuildOptions, Machine, SgxError, SimConfig};

/// Where a kernel's working set lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Ordinary (plaintext) memory.
    Plain,
    /// Enclave (encrypted EPC) memory.
    Enclave,
}

/// Builds a machine and allocates a kernel working set of `bytes` under
/// the given placement. Enclave placement commits real EPC pages, so a
/// working set beyond the EPC capacity will page (EWB/ELDU).
///
/// # Errors
///
/// Fails if the enclave cannot be built.
pub fn machine_with_region(
    config: SimConfig,
    placement: Placement,
    bytes: u64,
) -> Result<(Machine, Addr), SgxError> {
    let mut m = Machine::new(config);
    let region = match placement {
        Placement::Plain => m.alloc_untrusted(bytes, 4096),
        Placement::Enclave => {
            let eid = m.build_enclave(EnclaveBuildOptions {
                code_bytes: 4096,
                heap_bytes: bytes + (1 << 20),
                stack_bytes_per_tcs: 4096,
                tcs_count: 1,
            })?;
            m.alloc_enclave_heap(eid, bytes, 4096)?
        }
    };
    Ok((m, region))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_allocate_in_their_regions() {
        let cfg = SimConfig::builder().deterministic().build();
        let (m, plain) = machine_with_region(cfg.clone(), Placement::Plain, 1 << 20).unwrap();
        assert!(!m.is_enclave_addr(plain));
        let (m, enc) = machine_with_region(cfg, Placement::Enclave, 1 << 20).unwrap();
        assert!(m.is_enclave_addr(enc));
    }

    #[test]
    fn all_three_kernels_slow_down_in_enclave() {
        let cfg = SimConfig::builder().deterministic().build();
        let mcf = McfConfig {
            nodes: 4_096,
            ops: 20_000,
            ..McfConfig::default()
        };
        let lq = LibquantumConfig {
            register_bytes: 1 << 20,
            sweeps: 4,
            ..LibquantumConfig::default()
        };
        let astar = AstarConfig {
            width: 128,
            height: 128,
            searches: 16,
            ..AstarConfig::default()
        };

        let run_pair = |f: &dyn Fn(&mut Machine, Addr) -> crate::result::KernelResult| {
            let (mut m, r) = machine_with_region(cfg.clone(), Placement::Plain, 128 << 20).unwrap();
            let plain = f(&mut m, r);
            let (mut m, r) =
                machine_with_region(cfg.clone(), Placement::Enclave, 128 << 20).unwrap();
            let enc = f(&mut m, r);
            enc.slowdown_vs(&plain)
        };

        let mcf_slow = run_pair(&|m, r| run_mcf(m, r, mcf).unwrap());
        let lq_slow = run_pair(&|m, r| run_libquantum(m, r, lq).unwrap());
        let astar_slow = run_pair(&|m, r| run_astar(m, r, astar).unwrap());
        assert!(mcf_slow > 1.1, "mcf slowdown {mcf_slow}");
        assert!(lq_slow > 1.1, "libquantum slowdown {lq_slow}");
        assert!(astar_slow > 1.05, "astar slowdown {astar_slow}");
    }

    #[test]
    fn libquantum_epc_overflow_is_catastrophic() {
        // 96 MB register vs a small EPC: the paging cliff of Fig. 8.
        let small_epc = SimConfig::builder()
            .deterministic()
            .epc_bytes(8 << 20)
            .build();
        let lq = LibquantumConfig {
            register_bytes: 12 << 20,
            sweeps: 2,
            ..LibquantumConfig::default()
        };
        let (mut m, r) =
            machine_with_region(small_epc.clone(), Placement::Plain, 16 << 20).unwrap();
        let plain = run_libquantum(&mut m, r, lq).unwrap();
        let (mut m, r) = machine_with_region(small_epc, Placement::Enclave, 16 << 20).unwrap();
        let enc = run_libquantum(&mut m, r, lq).unwrap();
        let slowdown = enc.slowdown_vs(&plain);
        assert!(
            slowdown > 3.0,
            "overflowing the EPC must thrash (paper: 5.2x): {slowdown}"
        );
        assert!(m.epc_stats().ewb > 0);
    }
}
