//! Microbenchmark runners for Table 1 and Figures 2, 4, 5, 6, 7.
//!
//! Each runner rebuilds the machine + enclave + SDK context, warms the
//! relevant paths, and then measures `n` iterations with the paper's
//! RDTSCP methodology (AEX-contaminated runs discarded). The paper used
//! 200,000 measurements per microbenchmark; the defaults here are smaller
//! so the whole suite finishes quickly — pass a larger `n` to match the
//! paper exactly.

use sgx_sdk::edl::parse_edl;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Addr, EnclaveBuildOptions, Machine, SgxError, SimConfig};

use crate::stats::Samples;

/// EDL used by the call microbenchmarks: empty calls plus one buffered
/// variant per transfer mode.
const MICRO_EDL: &str = "enclave {
    trusted {
        public void ecall_empty();
        public void ecall_in([in, size=n] const uint8_t* b, size_t n);
        public void ecall_out([out, size=n] uint8_t* b, size_t n);
        public void ecall_inout([in, out, size=n] uint8_t* b, size_t n);
        public void ecall_uc([user_check] void* p);
    };
    untrusted {
        void ocall_empty();
        void ocall_in([in, size=n] const uint8_t* b, size_t n);
        void ocall_out([out, size=n] uint8_t* b, size_t n);
        void ocall_inout([in, out, size=n] uint8_t* b, size_t n);
        void ocall_uc([user_check] void* p);
    };
};";

/// Buffer transfer mode under test (paper's EDL attribute names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// `[in]`
    In,
    /// `[out]`
    Out,
    /// `[in, out]`
    InOut,
    /// `[user_check]` (zero copy)
    UserCheck,
}

impl TransferMode {
    /// The three copying modes of Figs. 4/5, in plot order.
    pub const COPYING: [TransferMode; 3] =
        [TransferMode::In, TransferMode::Out, TransferMode::InOut];

    fn ecall_name(&self) -> &'static str {
        match self {
            TransferMode::In => "ecall_in",
            TransferMode::Out => "ecall_out",
            TransferMode::InOut => "ecall_inout",
            TransferMode::UserCheck => "ecall_uc",
        }
    }

    fn ocall_name(&self) -> &'static str {
        match self {
            TransferMode::In => "ocall_in",
            TransferMode::Out => "ocall_out",
            TransferMode::InOut => "ocall_inout",
            TransferMode::UserCheck => "ocall_uc",
        }
    }

    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            TransferMode::In => "in",
            TransferMode::Out => "out",
            TransferMode::InOut => "in&out",
            TransferMode::UserCheck => "user_check",
        }
    }
}

fn setup(seed: u64) -> (Machine, EnclaveCtx) {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let eid = m
        .build_enclave(EnclaveBuildOptions::default())
        .expect("enclave build");
    let edl = parse_edl(MICRO_EDL).expect("micro EDL parses");
    let ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).expect("ctx");
    (m, ctx)
}

fn collect<F>(m: &mut Machine, n: usize, mut iteration: F) -> Samples
where
    F: FnMut(&mut Machine) -> Result<(), SgxError>,
{
    let mut samples = Samples::default();
    for _ in 0..n {
        let measured = m.measure(|m| iteration(m)).expect("measurement");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

/// Microbenchmarks 1 & 2: empty ecall latency, warm or cold cache.
pub fn ecall_latency(cold: bool, n: usize, seed: u64) -> Samples {
    let (mut m, mut ctx) = setup(seed);
    for _ in 0..10 {
        ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
            .expect("warmup");
    }
    collect(&mut m, n, |m| {
        if cold {
            m.flush_all_caches();
        }
        ctx.ecall(m, "ecall_empty", &[], |_, _, _| Ok(()))
            .map_err(|_| SgxError::NotEntered)?;
        Ok(())
    })
}

/// Microbenchmarks 4 & 5: empty ocall latency, warm or cold cache.
pub fn ocall_latency(cold: bool, n: usize, seed: u64) -> Samples {
    let (mut m, mut ctx) = setup(seed);
    ctx.enter_main(&mut m).expect("enter");
    for _ in 0..10 {
        ctx.ocall(&mut m, "ocall_empty", &[], |_, _, _| Ok(()))
            .expect("warmup");
    }
    collect(&mut m, n, |m| {
        if cold {
            m.flush_all_caches();
        }
        ctx.ocall(m, "ocall_empty", &[], |_, _, _| Ok(()))
            .map_err(|_| SgxError::NotEntered)?;
        Ok(())
    })
}

/// Microbenchmark 3 / Fig. 4: ecall + buffer transfer of `bytes` under
/// `mode`. The transferred buffers are flushed from the cache before every
/// measurement (§3.2.1), while the call structures stay warm.
pub fn ecall_buffer(mode: TransferMode, bytes: u64, n: usize, seed: u64) -> Samples {
    let (mut m, mut ctx) = setup(seed);
    let buf = m.alloc_untrusted(bytes.max(64), 64);
    let args = [BufArg::new(buf, bytes)];
    for _ in 0..10 {
        ctx.ecall(&mut m, mode.ecall_name(), &args, |_, _, _| Ok(()))
            .expect("warmup");
    }
    let mut samples = Samples::default();
    for _ in 0..n {
        // Evict the transferred buffer outside the timed window (§3.2.1).
        m.clflush_span(buf, bytes);
        m.mfence();
        m.reset_stream_detector();
        let measured = m
            .measure(|m| {
                ctx.ecall(m, mode.ecall_name(), &args, |_, _, _| Ok(()))
                    .map_err(|_| SgxError::NotEntered)?;
                Ok(())
            })
            .expect("measure");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

/// Microbenchmark 6 / Fig. 5: ocall + buffer transfer of `bytes`. The
/// source buffers stay warm (the enclave just produced them), matching the
/// paper's lower `to`-mode numbers.
pub fn ocall_buffer(mode: TransferMode, bytes: u64, n: usize, seed: u64) -> Samples {
    let (mut m, mut ctx) = setup(seed);
    let buf = m
        .alloc_enclave_heap(ctx.eid, bytes.max(64), 64)
        .expect("secure buffer");
    let args = [BufArg::new(buf, bytes)];
    ctx.enter_main(&mut m).expect("enter");
    for _ in 0..10 {
        ctx.ocall(&mut m, mode.ocall_name(), &args, |_, _, _| Ok(()))
            .expect("warmup");
    }
    collect(&mut m, n, |m| {
        ctx.ocall(m, mode.ocall_name(), &args, |_, _, _| Ok(()))
            .map_err(|_| SgxError::NotEntered)?;
        Ok(())
    })
}

/// Where a memory microbenchmark's buffer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Ordinary plaintext memory.
    Plain,
    /// Encrypted enclave memory.
    Encrypted,
}

impl Region {
    /// Both regions in the order the paper tabulates (encrypted first).
    pub const BOTH: [Region; 2] = [Region::Encrypted, Region::Plain];

    /// Label for output.
    pub fn label(&self) -> &'static str {
        match self {
            Region::Plain => "plaintext",
            Region::Encrypted => "encrypted",
        }
    }
}

fn region_buffer(m: &mut Machine, region: Region, bytes: u64) -> Addr {
    match region {
        Region::Plain => m.alloc_untrusted(bytes, 64),
        Region::Encrypted => {
            let eid = m
                .build_enclave(EnclaveBuildOptions {
                    heap_bytes: bytes + (1 << 20),
                    ..EnclaveBuildOptions::default()
                })
                .expect("enclave");
            m.alloc_enclave_heap(eid, bytes, 64).expect("heap")
        }
    }
}

/// Microbenchmark 7 / Fig. 6: consecutive 64-bit reads over a buffer of
/// `bytes`. The buffer is evicted from the cache before each measurement
/// (outside the timed window), and an `mfence` precedes the closing
/// RDTSCP, as in §3.4.
pub fn memory_read_windowed(region: Region, bytes: u64, n: usize, seed: u64) -> Samples {
    memory_read_windowed_on(SimConfig::builder().seed(seed).build(), region, bytes, n)
}

/// [`memory_read_windowed`] on a machine built from `config` (the MEE
/// ablation overrides the node-cache capacity).
pub fn memory_read_windowed_on(config: SimConfig, region: Region, bytes: u64, n: usize) -> Samples {
    let mut m = Machine::new(config);
    let buf = region_buffer(&mut m, region, bytes);
    m.read(buf, bytes).expect("warm");
    let mut samples = Samples::default();
    for _ in 0..n {
        m.clflush_span(buf, bytes);
        m.mfence();
        m.reset_stream_detector();
        let measured = m
            .measure(|m| {
                m.read(buf, bytes)?;
                m.mfence();
                Ok(())
            })
            .expect("measure");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

/// Microbenchmark 8 / Fig. 7: consecutive 64-bit writes; the measurement
/// is completed by `clflush`ing the buffer + `mfence` (§3.4), so the
/// forced write-backs are inside the timed window.
pub fn memory_write_windowed(region: Region, bytes: u64, n: usize, seed: u64) -> Samples {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let buf = region_buffer(&mut m, region, bytes);
    m.write(buf, bytes).expect("warm");
    m.clflush_span(buf, bytes);
    let mut samples = Samples::default();
    for _ in 0..n {
        m.reset_stream_detector();
        let measured = m
            .measure(|m| {
                m.write(buf, bytes)?;
                m.clflush_span(buf, bytes);
                m.mfence();
                Ok(())
            })
            .expect("measure");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

/// Microbenchmark 9: one 8-byte load from a line evicted from the LLC.
pub fn cache_load_miss(region: Region, n: usize, seed: u64) -> Samples {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let buf = region_buffer(&mut m, region, 64);
    m.read(buf, 8).expect("warm");
    let mut samples = Samples::default();
    for _ in 0..n {
        m.clflush(buf);
        m.mfence();
        m.reset_stream_detector();
        let measured = m
            .measure(|m| {
                m.read(buf, 8)?;
                m.mfence();
                Ok(())
            })
            .expect("measure");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

/// Microbenchmark 10: one 8-byte store, completed by `clflush` + `mfence`
/// inside the timed window.
pub fn cache_store_miss(region: Region, n: usize, seed: u64) -> Samples {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let buf = region_buffer(&mut m, region, 64);
    m.write(buf, 8).expect("warm");
    m.clflush(buf);
    let mut samples = Samples::default();
    for _ in 0..n {
        m.reset_stream_detector();
        let measured = m
            .measure(|m| {
                m.write(buf, 8)?;
                m.clflush(buf);
                m.mfence();
                Ok(())
            })
            .expect("measure");
        if measured.aex {
            samples.discarded_aex += 1;
        } else {
            samples.values.push(measured.cycles.get());
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::paper;

    const N: usize = 400;

    #[test]
    fn ecall_warm_matches_paper_band() {
        let s = ecall_latency(false, N, 1);
        let med = s.median();
        assert!(
            (paper::ECALL_WARM * 80 / 100..paper::ECALL_WARM * 120 / 100).contains(&med),
            "warm ecall median {med} vs paper {}",
            paper::ECALL_WARM
        );
    }

    #[test]
    fn ecall_cold_is_substantially_slower() {
        let warm = ecall_latency(false, N, 2).median();
        let cold = ecall_latency(true, N, 3).median();
        assert!(
            cold as f64 > warm as f64 * 1.35,
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn ocall_warm_close_to_ecall_warm() {
        let e = ecall_latency(false, N, 4).median();
        let o = ocall_latency(false, N, 5).median();
        let ratio = o as f64 / e as f64;
        assert!((0.8..1.1).contains(&ratio), "ocall/ecall ratio {ratio}");
    }

    #[test]
    fn out_mode_is_most_expensive_for_ecalls() {
        let t_in = ecall_buffer(TransferMode::In, 2048, N, 6).median();
        let t_out = ecall_buffer(TransferMode::Out, 2048, N, 7).median();
        let t_inout = ecall_buffer(TransferMode::InOut, 2048, N, 8).median();
        let t_uc = ecall_buffer(TransferMode::UserCheck, 2048, N, 9).median();
        assert!(
            t_out > t_inout && t_inout > t_in && t_in > t_uc,
            "expected uc < in < in&out < out, got uc={t_uc} in={t_in} inout={t_inout} out={t_out}"
        );
    }

    #[test]
    fn encrypted_reads_cost_more_and_overhead_grows() {
        let small_plain = memory_read_windowed(Region::Plain, 2048, N, 10).median();
        let small_enc = memory_read_windowed(Region::Encrypted, 2048, N, 11).median();
        let big_plain = memory_read_windowed(Region::Plain, 32 * 1024, 60, 12).median();
        let big_enc = memory_read_windowed(Region::Encrypted, 32 * 1024, 60, 13).median();
        let small_ov = small_enc as f64 / small_plain as f64 - 1.0;
        let big_ov = big_enc as f64 / big_plain as f64 - 1.0;
        assert!(small_ov > 0.25, "2KB read overhead {small_ov}");
        assert!(
            big_ov > small_ov,
            "overhead must grow with footprint: {small_ov} -> {big_ov}"
        );
    }

    #[test]
    fn write_overhead_is_small() {
        let plain = memory_write_windowed(Region::Plain, 2048, N, 14).median();
        let enc = memory_write_windowed(Region::Encrypted, 2048, N, 15).median();
        let ov = enc as f64 / plain as f64 - 1.0;
        assert!((0.0..0.25).contains(&ov), "write overhead {ov}");
    }

    #[test]
    fn miss_penalties_match_paper_bands() {
        let lp = cache_load_miss(Region::Plain, N, 16).median();
        let le = cache_load_miss(Region::Encrypted, N, 17).median();
        let sp = cache_store_miss(Region::Plain, N, 18).median();
        let se = cache_store_miss(Region::Encrypted, N, 19).median();
        assert!(le > lp, "encrypted load miss {le} vs plain {lp}");
        assert!(se > sp, "encrypted store miss {se} vs plain {sp}");
        assert!((200..600).contains(&lp), "plain load miss {lp}");
        assert!((300..800).contains(&se), "encrypted store miss {se}");
    }
}
