//! Simulator configuration.
//!
//! Every latency constant in the cost model lives here, with the value it was
//! calibrated against (Table 1 of the paper, measured on an i7-6700k with SGX
//! SDK 1.5.80). The *mechanisms* — cache lookups, MEE tree walks, EPC
//! paging — are simulated structurally; these constants set the per-event
//! price.

use serde::{Deserialize, Serialize};

/// Geometry of one level of the simulated cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero line size or ways).
    pub(crate) fn sets(&self) -> u64 {
        assert!(self.line > 0 && self.ways > 0, "degenerate cache geometry");
        self.capacity / (self.line * u64::from(self.ways))
    }
}

/// Costs of the Memory Encryption Engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeeConfig {
    /// Entries in the MEE-internal cache of integrity-tree nodes.
    ///
    /// The real MEE cache is small; its capacity is what makes the encrypted
    /// read overhead *grow* with buffer footprint (54.5% at 2 KB to 102% at
    /// 32 KB in Fig. 6).
    pub cache_entries: usize,
    /// Arity of the integrity tree (children per node). SGX uses 8.
    pub(crate) arity: u64,
    /// Cycles to decrypt + MAC-check one 64 B line on a demand (random) load.
    pub crypto_load: u64,
    /// Cycles of crypto exposed per line on a *streamed* (prefetched) load.
    pub(crate) crypto_stream: u64,
    /// Cycles of crypto exposed per line on a streamed write-back.
    pub(crate) crypto_writeback: u64,
    /// Cycles to fetch one missed integrity-tree node during a walk.
    pub node_fetch: u64,
    /// Extra cycles a demand store (RFO to EPC) pays over a demand load.
    pub(crate) store_extra: u64,
}

/// Costs of EPC paging (EWB / ELDU leaf functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PagingConfig {
    /// Usable EPC capacity in bytes (93 MB on the paper's machine: 128 MB
    /// PRM minus MEE metadata).
    pub epc_bytes: u64,
    /// Cycles for EWB: encrypt + MAC + version a 4 KB page out to RAM.
    pub ewb: u64,
    /// Cycles for ELDU: load + decrypt + verify a 4 KB page back in.
    pub eldu: u64,
    /// Cycles of kernel/driver overhead per page fault that triggers paging.
    pub fault_overhead: u64,
}

/// Cost decomposition of the SGX entry/exit microcode and the SDK software
/// layers around it. Memory accesses made by these paths go through the
/// simulated cache hierarchy, so only *compute* bases are listed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct EntryConfig {
    /// EENTER microcode base (checks of SECS/TCS, debug suppression,
    /// register save/restore) excluding its memory accesses.
    pub(crate) eenter_base: u64,
    /// EEXIT microcode base.
    pub(crate) eexit_base: u64,
    /// ERESUME microcode base (slightly heavier than EENTER: restores the
    /// full SSA frame).
    pub(crate) eresume_base: u64,
    /// AEX microcode base (synchronous part of an asynchronous exit).
    pub(crate) aex_base: u64,
    /// Number of distinct EPC cache lines the microcode touches per
    /// entry/exit pair (SECS, TCS, SSA/GPRSGX, trusted stack, entry
    /// trampoline code).
    pub(crate) epc_lines_touched: u64,
    /// Number of regular-memory lines touched (untrusted stack, ocall
    /// tables, saved AVX state).
    pub(crate) regular_lines_touched: u64,
}

/// Per-measurement noise model, reproducing the spread of the paper's CDFs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Uniform jitter (cycles) added to every timed region, reflecting bus
    /// and pipeline nondeterminism. The paper's warm-cache ecall CDF spans
    /// ~80 cycles at the 99.9th percentile.
    pub jitter: u64,
    /// Uniform jitter added to every DRAM demand miss (row-buffer state,
    /// scheduling). This is what widens the *cold*-cache CDFs of Fig. 2
    /// relative to the warm ones.
    pub per_miss_jitter: u64,
    /// Probability that a measurement suffers an Asynchronous Exit (the
    /// paper saw 200-300 of 200,000 runs).
    pub aex_probability: f64,
    /// Cycles consumed by an AEX + OS interrupt handling + ERESUME, added to
    /// contaminated runs.
    pub aex_penalty: u64,
}

/// Full simulator configuration.
///
/// Construct with [`SimConfig::default`] for the paper's machine (Supermicro
/// X11SSZ-QF, i7-6700k @ 4 GHz, 8 MB LLC, SDK 1.5.80) or adjust fields via
/// [`SimConfigBuilder`].
///
/// # Examples
///
/// ```
/// use sgx_sim::SimConfig;
///
/// let config = SimConfig::builder().seed(7).build();
/// assert_eq!(config.core_ghz, 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed for reproducible jitter and AEX injection.
    pub(crate) seed: u64,
    /// Core frequency in GHz (4.0 on the paper's machine).
    pub core_ghz: f64,
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// L2 cache geometry.
    pub l2: CacheGeometry,
    /// Last-level cache geometry.
    pub llc: CacheGeometry,
    /// DRAM latency for a demand (random) access, cycles.
    pub(crate) dram_random: u64,
    /// Effective per-line DRAM cost for streamed (prefetched) accesses.
    pub(crate) dram_stream: u64,
    /// Cycles a store miss occupies the store buffer. Write misses do not
    /// stall the pipeline; their real cost surfaces only when a line is
    /// forced out (clflush + mfence), which is how the paper's write
    /// benchmark measures them.
    pub(crate) store_buffer: u64,
    /// Per-line cost of a *forced* write-back during a sequential flush
    /// (the write benchmark's clflush loop).
    pub(crate) writeback_stream: u64,
    /// Cost of a forced write-back of a single (demand) dirty line.
    pub(crate) writeback_demand: u64,
    /// MEE cost model.
    pub mee: MeeConfig,
    /// EPC paging cost model.
    pub paging: PagingConfig,
    /// Entry/exit cost decomposition.
    pub(crate) entry: EntryConfig,
    /// SDK software-layer compute bases (cycles, excluding memory accesses).
    pub sdk: SdkCostConfig,
    /// Noise model.
    pub(crate) noise: NoiseConfig,
    /// Cost of the RDTSCP instruction pair bracketing a measurement. The
    /// paper's numbers include this harness overhead.
    pub(crate) rdtscp: u64,
    /// Cost of an MFENCE.
    pub(crate) mfence: u64,
    /// Cost of a PAUSE (Skylake pre-errata value used in spin loops).
    pub pause: u64,
    /// TLB capacity in page translations (Skylake L2 STLB: 1536).
    pub(crate) tlb_entries: usize,
    /// Cycles of page-walk latency on a TLB miss (page tables are read
    /// through the — possibly cold — cache).
    pub(crate) tlb_miss: u64,
}

/// Compute bases of the (simulated) Intel SGX SDK software layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdkCostConfig {
    /// Untrusted ecall prologue: enclave-table lookup, read/write lock,
    /// TCS selection, AVX state save, FP exception check.
    pub ecall_untrusted_sw: u64,
    /// Trusted-side ecall dispatch (index check, call-table jump).
    pub ecall_trusted_dispatch: u64,
    /// Trusted ocall prologue: marshalling setup and pointer checks.
    pub ocall_trusted_sw: u64,
    /// Untrusted ocall dispatch (ocall-table jump, stack setup).
    pub ocall_untrusted_dispatch: u64,
    /// Per-8-bytes cost of the SDK's word-wise `memcpy`.
    pub memcpy_per_word: u64,
    /// Per-byte cost of the SDK's byte-wise `memset` (the inefficiency the
    /// paper's No-Redundant-Zeroing removes).
    pub memset_per_byte: u64,
    /// Fixed overhead of a `malloc` on the secure heap.
    pub secure_malloc: u64,
    /// Fixed overhead of allocating on the untrusted stack (ocall path).
    pub untrusted_stack_alloc: u64,
    /// Per-buffer bookkeeping of the No-Redundant-Zeroing marshaller:
    /// deciding (from the EDL direction) that a staging region will be
    /// fully overwritten and may skip its `memset`. Charged *instead of*
    /// the zeroing, so the NRZ and SDK-faithful variants carry distinct,
    /// comparable costs.
    pub nrz_track_per_buffer: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed_0001,
            core_ghz: 4.0,
            l1: CacheGeometry {
                capacity: 32 * 1024,
                ways: 8,
                line: 64,
                hit_latency: 4,
            },
            l2: CacheGeometry {
                capacity: 256 * 1024,
                ways: 4,
                line: 64,
                hit_latency: 12,
            },
            llc: CacheGeometry {
                capacity: 8 * 1024 * 1024,
                ways: 16,
                line: 64,
                hit_latency: 42,
            },
            // Calibration: Table 1 row 9, plaintext cache-load miss = 308
            // cycles including ~100 cycles of harness (rdtscp pair+mfence).
            dram_random: 125,
            // Row 7: 2 KB plaintext consecutive read = 727 cycles =>
            // (727-harness)/32 lines ~= 19.6/line with prefetching.
            dram_stream: 12,
            store_buffer: 8,
            // Row 8: 2 KB plaintext write+flush = 6458 cycles => ~190/line
            // of forced write-back during the clflush loop.
            writeback_stream: 182,
            // Row 10: plaintext store miss + single clflush+mfence = 481.
            writeback_demand: 289,
            mee: MeeConfig {
                cache_entries: 24,
                arity: 8,
                // Row 9: encrypted load miss 400 vs plaintext 308.
                crypto_load: 80,
                // Fig 6 @2 KB: +12.4 cycles/line when tree nodes hit.
                crypto_stream: 9,
                // Fig 7: ~6% write overhead => ~13 cycles/line of encrypt
                // exposed during forced write-back.
                crypto_writeback: 13,
                // Fig 6 growth to 102% @32 KB when the MEE cache thrashes.
                node_fetch: 25,
                // Row 10: encrypted store miss 575 = 481 + ~94 of MEE
                // work on the demand write-back path.
                store_extra: 81,
            },
            paging: PagingConfig {
                epc_bytes: 93 * 1024 * 1024,
                ewb: 7_000,
                eldu: 7_000,
                fault_overhead: 5_000,
            },
            entry: EntryConfig {
                eenter_base: 3_200,
                eexit_base: 2_900,
                eresume_base: 3_100,
                aex_base: 3_300,
                epc_lines_touched: 8,
                regular_lines_touched: 4,
            },
            sdk: SdkCostConfig {
                ecall_untrusted_sw: 1_730,
                ecall_trusted_dispatch: 500,
                ocall_trusted_sw: 1_550,
                ocall_untrusted_dispatch: 380,
                memcpy_per_word: 1,
                memset_per_byte: 1,
                secure_malloc: 250,
                untrusted_stack_alloc: 60,
                nrz_track_per_buffer: 15,
            },
            noise: NoiseConfig {
                jitter: 80,
                per_miss_jitter: 150,
                aex_probability: 0.00125,
                aex_penalty: 9_500,
            },
            rdtscp: 64,
            mfence: 33,
            pause: 70,
            tlb_entries: 1536,
            tlb_miss: 150,
        }
    }
}

impl SimConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }
}

/// Builder for [`SimConfig`].
///
/// # Examples
///
/// ```
/// use sgx_sim::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .seed(42)
///     .epc_bytes(32 * 1024 * 1024)
///     .build();
/// assert_eq!(cfg.paging.epc_bytes, 32 * 1024 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the usable EPC capacity in bytes.
    pub fn epc_bytes(mut self, bytes: u64) -> Self {
        self.config.paging.epc_bytes = bytes;
        self
    }

    /// Disables all measurement noise (jitter and AEX injection), for
    /// deterministic unit tests.
    pub fn deterministic(mut self) -> Self {
        self.config.noise = NoiseConfig {
            jitter: 0,
            per_miss_jitter: 0,
            aex_probability: 0.0,
            aex_penalty: 0,
        };
        self
    }

    /// Replaces the noise model.
    pub fn noise(mut self, noise: NoiseConfig) -> Self {
        self.config.noise = noise;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry is degenerate (zero sets) or the EPC is
    /// smaller than one page.
    pub fn build(self) -> SimConfig {
        let c = &self.config;
        assert!(c.l1.sets() > 0 && c.l2.sets() > 0 && c.llc.sets() > 0);
        assert!(c.paging.epc_bytes >= 4096, "EPC smaller than one page");
        assert!(c.core_ghz > 0.0, "core frequency must be positive");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_skylake() {
        let c = SimConfig::default();
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc.sets(), 8192);
        assert_eq!(c.llc.capacity, 8 * 1024 * 1024);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = SimConfig::builder().seed(9).epc_bytes(32 << 20).build();
        assert_eq!(c.seed, 9);
        assert_eq!(c.paging.epc_bytes, 32 << 20);
    }

    #[test]
    fn deterministic_builder_zeroes_noise() {
        let c = SimConfig::builder().deterministic().build();
        assert_eq!(c.noise.jitter, 0);
        assert_eq!(c.noise.aex_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "EPC smaller")]
    fn tiny_epc_rejected() {
        let _ = SimConfig::builder().epc_bytes(1024).build();
    }

    #[test]
    fn debug_is_nonempty() {
        let c = SimConfig::default();
        assert!(format!("{c:?}").contains("SimConfig"));
    }
}
