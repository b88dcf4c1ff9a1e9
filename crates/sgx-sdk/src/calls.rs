//! The SDK ecall/ocall runtime: the full cost path of SGX SDK 1.5.80.
//!
//! An [`EnclaveCtx`] binds a built enclave to the proxy plans generated from
//! its EDL and executes calls against the machine model:
//!
//! * **ecall** — untrusted prologue (enclave-table lookup, rwlock, TCS
//!   selection, AVX save), parameter-struct marshalling, `EENTER`, trusted
//!   dispatch, pointer boundary checks, per-buffer copies by transfer mode,
//!   the trusted body, out-copies, `EEXIT`.
//! * **ocall** — trusted marshalling and checks, copies into untrusted
//!   stack buffers (including the redundant zeroing of `out` buffers the
//!   paper's *No-Redundant-Zeroing* removes), `EEXIT`, untrusted dispatch,
//!   the OS body, re-entry, copy-back.

use sgx_sim::{Addr, Cycles, EnclaveId, Machine};

use crate::edger8r::{edger8r, Proxies, ProxyPlan};
use crate::edl::Edl;
use crate::error::{Result, SdkError};
use crate::marshal::{stage, unstage, CallerSide, StagingArea};
use crate::stats::CallStats;

/// A buffer argument supplied by the caller, in the order of the EDL
/// declaration's buffer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufArg {
    /// Caller-side address of the buffer.
    pub addr: Addr,
    /// Length in bytes (the "size parameter supplied by the untrusted
    /// code").
    pub len: u64,
}

impl BufArg {
    /// Convenience constructor.
    pub fn new(addr: Addr, len: u64) -> Self {
        BufArg { addr, len }
    }
}

/// Marshalling behaviour switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarshalOptions {
    /// Skip the security-pointless zeroing of `out` buffers in *untrusted*
    /// memory on the ocall path (the paper's No-Redundant-Zeroing, §3.3).
    pub no_redundant_zeroing: bool,
    /// Use a word-wise `memset` instead of the SDK's byte-wise one for the
    /// zeroing that *is* required (ecall `out` buffers on the secure heap) —
    /// the "further optimization" of §3.5.
    pub optimized_memset: bool,
}

impl MarshalOptions {
    /// The No-Redundant-Zeroing variant: skip the security-pointless
    /// zeroing of `out`/`in&out` staging regions in untrusted memory,
    /// keeping the byte-wise `memset` for the zeroing that remains
    /// security-mandatory.
    pub fn nrz() -> Self {
        MarshalOptions {
            no_redundant_zeroing: true,
            optimized_memset: false,
        }
    }
}

/// The pointers the callee sees for each buffer parameter after
/// marshalling: secure copies for `in`/`out`/`in&out`, the original for
/// `user_check`.
#[derive(Debug, Clone, Default)]
pub struct CallArgs {
    /// Callee-visible buffer addresses, in declaration order.
    pub bufs: Vec<Addr>,
}

/// How many scratch bytes each side reserves for marshalling.
const SCRATCH_BYTES: u64 = 1 << 20;

/// An enclave bound to its EDL interface.
///
/// # Examples
///
/// ```
/// use sgx_sim::{Machine, SimConfig, EnclaveBuildOptions};
/// use sgx_sdk::edl::parse_edl;
/// use sgx_sdk::{EnclaveCtx, MarshalOptions};
///
/// # fn main() -> Result<(), sgx_sdk::SdkError> {
/// let mut m = Machine::new(SimConfig::default());
/// let eid = m.build_enclave(EnclaveBuildOptions::default())?;
/// let edl = parse_edl("enclave { trusted { public void ecall_empty(); }; };")?;
/// let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default())?;
/// let cost = ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EnclaveCtx {
    /// The bound enclave.
    pub eid: EnclaveId,
    proxies: Proxies,
    options: MarshalOptions,
    /// Lines touched by the untrusted ecall prologue (enclave table,
    /// rwlock, TCS bookkeeping).
    untrusted_meta: Vec<Addr>,
    /// EPC lines touched by trusted dispatch (call table, thread data).
    trusted_meta: Vec<Addr>,
    /// Untrusted scratch: marshalled parameter structs and ocall stack
    /// buffers.
    marshal_area: Addr,
    /// Secure scratch: staged ecall buffers.
    secure_area: Addr,
    stats: CallStats,
    current_tcs: Option<usize>,
}

impl EnclaveCtx {
    /// Binds `eid` to the interface described by `edl`.
    ///
    /// # Errors
    ///
    /// Fails if plan generation fails (bad `size=` references) or if the
    /// enclave's heap cannot hold the secure scratch area.
    pub fn new(
        m: &mut Machine,
        eid: EnclaveId,
        edl: &Edl,
        options: MarshalOptions,
    ) -> Result<Self> {
        let proxies = edger8r(edl)?;
        let meta_base = m.alloc_untrusted(4 * 64, 64);
        let untrusted_meta = (0..4).map(|i| meta_base.offset(i * 64)).collect();
        let trusted_base = m.alloc_enclave_heap(eid, 3 * 64, 64)?;
        let trusted_meta = (0..3).map(|i| trusted_base.offset(i * 64)).collect();
        let marshal_area = m.alloc_untrusted(SCRATCH_BYTES, 4096);
        let secure_area = m.alloc_enclave_heap(eid, SCRATCH_BYTES, 4096)?;
        Ok(EnclaveCtx {
            eid,
            proxies,
            options,
            untrusted_meta,
            trusted_meta,
            marshal_area,
            secure_area,
            stats: CallStats::new(),
            current_tcs: None,
        })
    }

    /// The marshalling options in force.
    pub fn options(&self) -> MarshalOptions {
        self.options
    }

    /// Call statistics collected so far.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }

    /// Records one switchless (hot) ocall into the same per-name ledger
    /// the SDK path feeds, so Table-2-style censuses see every edge
    /// crossing regardless of transport. The caller measures the cycles
    /// (the hot path never enters the SDK, so the SDK cannot).
    pub fn record_hot_ocall(&mut self, name: &str, cycles: Cycles) {
        self.stats.record_ocall(name, cycles);
    }

    /// As [`EnclaveCtx::record_hot_ocall`], for hot ecalls.
    pub fn record_hot_ecall(&mut self, name: &str, cycles: Cycles) {
        self.stats.record_ecall(name, cycles);
    }

    /// Generated proxy plans (exposed so HotCalls can reuse exactly this
    /// marshalling code, as the paper's implementation does).
    pub fn proxies(&self) -> &Proxies {
        &self.proxies
    }

    fn find_free_tcs(&self, m: &Machine) -> Result<usize> {
        let enclave = m.enclave(self.eid)?;
        enclave
            .tcs
            .iter()
            .position(|t| !t.busy)
            .ok_or(SdkError::Sgx(sgx_sim::SgxError::TcsBusy))
    }

    /// Performs an ecall: full SDK path around the trusted `body`.
    ///
    /// `bufs` supplies one entry per buffer parameter in the EDL
    /// declaration. The body receives the callee-visible addresses.
    ///
    /// # Errors
    ///
    /// Fails on unknown names, argument-count mismatches, boundary-check
    /// violations, nested ecalls, or machine-model errors.
    pub fn ecall<R, F>(
        &mut self,
        m: &mut Machine,
        name: &str,
        bufs: &[BufArg],
        body: F,
    ) -> Result<R>
    where
        F: FnOnce(&mut EnclaveCtx, &mut Machine, &CallArgs) -> Result<R>,
    {
        if self.current_tcs.is_some() {
            return Err(SdkError::AlreadyInEnclave);
        }
        let start = m.now();
        let plan = self.proxies.ecall(name)?;
        check_arg_count(plan, bufs)?;

        // Untrusted software prologue: enclave lookup, rwlock, TCS
        // selection, AVX save, FP-exception check.
        m.charge(Cycles::new(m.config().sdk.ecall_untrusted_sw));
        for &line in &self.untrusted_meta {
            m.read(line, 8)?;
        }
        // Marshal the parameter struct into untrusted memory.
        m.write(self.marshal_area, plan.struct_bytes)?;

        let tcs = self.find_free_tcs(m)?;
        m.eenter(self.eid, tcs)?;
        self.current_tcs = Some(tcs);

        // Trusted dispatch: index check + call-table jump + reading the
        // parameter struct from untrusted memory.
        m.charge(Cycles::new(m.config().sdk.ecall_trusted_dispatch));
        for &line in &self.trusted_meta {
            m.read(line, 8)?;
        }
        m.read(self.marshal_area, plan.struct_bytes)?;

        // Stage buffers per transfer mode into the secure scratch (the same
        // code HotCalls reuses — see `crate::marshal`).
        let mut area = StagingArea::secure(m, self.secure_area, SCRATCH_BYTES);
        let result = stage(
            m,
            plan,
            bufs,
            &mut area,
            CallerSide::Untrusted,
            self.options,
        )
        .and_then(|(args, staged)| {
            let r = body(self, m, &args)?;
            unstage(m, &staged)?;
            Ok(r)
        });

        // EEXIT happens regardless of body outcome (the SDK's error paths
        // also leave the enclave).
        m.eexit(self.eid, tcs)?;
        self.current_tcs = None;
        // Untrusted epilogue: AVX restore, lock release.
        m.charge(Cycles::new(120));
        // Status/return propagation.
        m.read(self.marshal_area, 8)?;

        self.stats.record_ecall(name, m.now() - start);
        result
    }

    /// Performs an ocall from inside the enclave: trusted marshalling,
    /// `EEXIT`, the untrusted `body` (the OS work), re-entry and copy-back.
    ///
    /// # Errors
    ///
    /// Fails if no ecall is active, on unknown names or argument
    /// mismatches, boundary violations, or machine errors.
    pub fn ocall<R, F>(
        &mut self,
        m: &mut Machine,
        name: &str,
        bufs: &[BufArg],
        body: F,
    ) -> Result<R>
    where
        F: FnOnce(&mut EnclaveCtx, &mut Machine, &CallArgs) -> Result<R>,
    {
        let tcs = self.current_tcs.ok_or(SdkError::NotInEnclave)?;
        let start = m.now();
        let plan = self.proxies.ocall(name)?;
        check_arg_count(plan, bufs)?;

        // Trusted prologue: marshalling setup, pointer checks, writing the
        // ocall frame (struct + index) to untrusted memory.
        m.charge(Cycles::new(m.config().sdk.ocall_trusted_sw));
        for &line in &self.trusted_meta {
            m.read(line, 8)?;
        }
        m.write(self.marshal_area, plan.struct_bytes)?;

        // Stage buffers on the untrusted stack (trusted side does the
        // copies — including the redundant zeroing of `out` buffers unless
        // NRZ — before EEXIT). Same shared code as HotCalls.
        let mut area = StagingArea::untrusted(m, self.marshal_area, SCRATCH_BYTES);
        area.reserve(plan.struct_bytes);
        let (args, staged_bufs) =
            stage(m, plan, bufs, &mut area, CallerSide::Trusted, self.options)?;

        m.eexit(self.eid, tcs)?;
        // Untrusted dispatch: ocall-table jump + reading the frame.
        m.charge(Cycles::new(m.config().sdk.ocall_untrusted_dispatch));
        for &line in &self.untrusted_meta {
            m.read(line, 8)?;
        }
        m.read(self.marshal_area, plan.struct_bytes)?;

        let result = body(self, m, &args);

        // Return to the enclave (the SDK's ORET re-entry).
        m.eenter(self.eid, tcs)?;
        // Copy results back into secure memory (trusted side).
        unstage(m, &staged_bufs)?;
        m.charge(Cycles::new(100));

        self.stats.record_ocall(name, m.now() - start);
        result
    }

    /// Enters the enclave and stays there (the applications' `main` ecall
    /// pattern, §6.1). Subsequent [`EnclaveCtx::ocall`]s run against this
    /// entry until [`EnclaveCtx::leave_main`].
    ///
    /// # Errors
    ///
    /// Fails if already inside or on machine errors.
    pub fn enter_main(&mut self, m: &mut Machine) -> Result<()> {
        if self.current_tcs.is_some() {
            return Err(SdkError::AlreadyInEnclave);
        }
        m.charge(Cycles::new(m.config().sdk.ecall_untrusted_sw));
        let tcs = self.find_free_tcs(m)?;
        m.eenter(self.eid, tcs)?;
        self.current_tcs = Some(tcs);
        Ok(())
    }

    /// Leaves the long-running main ecall.
    ///
    /// # Errors
    ///
    /// Fails if not inside the enclave.
    pub fn leave_main(&mut self, m: &mut Machine) -> Result<()> {
        let tcs = self.current_tcs.take().ok_or(SdkError::NotInEnclave)?;
        m.eexit(self.eid, tcs)?;
        Ok(())
    }
}

fn check_arg_count(plan: &ProxyPlan, bufs: &[BufArg]) -> Result<()> {
    if plan.steps.len() != bufs.len() {
        return Err(SdkError::ArgCountMismatch {
            name: plan.name.clone(),
            expected: plan.steps.len(),
            got: bufs.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edl::parse_edl;
    use sgx_sim::{EnclaveBuildOptions, SimConfig};

    const TEST_EDL: &str = "enclave {
        trusted {
            public void ecall_empty();
            public void ecall_in([in, size=n] const uint8_t* b, size_t n);
            public void ecall_out([out, size=n] uint8_t* b, size_t n);
            public void ecall_inout([in, out, size=n] uint8_t* b, size_t n);
            public void ecall_raw([user_check] void* p);
        };
        untrusted {
            void ocall_empty();
            void ocall_in([in, size=n] const uint8_t* b, size_t n);
            size_t ocall_out([out, size=n] uint8_t* b, size_t n);
            void ocall_inout([in, out, size=n] uint8_t* b, size_t n);
        };
    };";

    fn setup() -> (Machine, EnclaveCtx) {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let edl = parse_edl(TEST_EDL).unwrap();
        let ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
        (m, ctx)
    }

    fn warm_up(m: &mut Machine, ctx: &mut EnclaveCtx) {
        for _ in 0..3 {
            ctx.ecall(m, "ecall_empty", &[], |_, _, _| Ok(())).unwrap();
        }
    }

    #[test]
    fn empty_ecall_runs_and_counts() {
        let (mut m, mut ctx) = setup();
        let before = m.now();
        ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert!(m.now() > before);
        assert_eq!(ctx.stats().ecalls()["ecall_empty"].count, 1);
    }

    #[test]
    fn warm_ecall_lands_in_papers_ballpark() {
        let (mut m, mut ctx) = setup();
        warm_up(&mut m, &mut ctx);
        let start = m.now();
        ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let cost = (m.now() - start).get();
        assert!(
            (7_000..11_000).contains(&cost),
            "warm empty ecall should be ~8,640 cycles, got {cost}"
        );
    }

    #[test]
    fn cold_ecall_costs_well_over_warm() {
        let (mut m, mut ctx) = setup();
        warm_up(&mut m, &mut ctx);
        let start = m.now();
        ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let warm = (m.now() - start).get();
        m.flush_all_caches();
        let start = m.now();
        ctx.ecall(&mut m, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let cold = (m.now() - start).get();
        assert!(
            cold as f64 > warm as f64 * 1.35,
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn ecall_out_slower_than_inout_slower_than_in() {
        let (mut m, mut ctx) = setup();
        warm_up(&mut m, &mut ctx);
        let buf = m.alloc_untrusted(2048, 64);
        let arg = [BufArg::new(buf, 2048)];
        let time = |m: &mut Machine, ctx: &mut EnclaveCtx, name: &str| {
            // Flush the transferred buffers, as the paper does for in-copy
            // accuracy; call structures stay warm.
            m.clflush_span(buf, 2048);
            m.reset_stream_detector();
            let s = m.now();
            ctx.ecall(m, name, &arg, |_, _, _| Ok(())).unwrap();
            (m.now() - s).get()
        };
        // Warm the paths once each.
        for name in ["ecall_in", "ecall_out", "ecall_inout"] {
            time(&mut m, &mut ctx, name);
        }
        let t_in = time(&mut m, &mut ctx, "ecall_in");
        let t_out = time(&mut m, &mut ctx, "ecall_out");
        let t_inout = time(&mut m, &mut ctx, "ecall_inout");
        assert!(t_out > t_inout, "out {t_out} must exceed inout {t_inout}");
        assert!(t_inout > t_in, "inout {t_inout} must exceed in {t_in}");
    }

    #[test]
    fn user_check_is_cheapest() {
        let (mut m, mut ctx) = setup();
        warm_up(&mut m, &mut ctx);
        let buf = m.alloc_untrusted(2048, 64);
        let arg = [BufArg::new(buf, 2048)];
        let s = m.now();
        ctx.ecall(&mut m, "ecall_raw", &arg, |_, _, a| {
            assert_eq!(a.bufs[0], buf); // zero-copy: callee sees the original
            Ok(())
        })
        .unwrap();
        let t_raw = (m.now() - s).get();
        let s = m.now();
        ctx.ecall(&mut m, "ecall_in", &arg, |_, _, a| {
            assert_ne!(a.bufs[0], buf); // copied: callee sees the staged copy
            Ok(())
        })
        .unwrap();
        let t_in = (m.now() - s).get();
        assert!(t_raw < t_in);
    }

    #[test]
    fn ecall_rejects_enclave_pointer_arguments() {
        let (mut m, mut ctx) = setup();
        let inside = m.alloc_enclave_heap(ctx.eid, 64, 64).unwrap();
        let err = ctx
            .ecall(&mut m, "ecall_in", &[BufArg::new(inside, 64)], |_, _, _| {
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SdkError::PointerMustBeOutside(_)));
    }

    #[test]
    fn ocall_requires_enclave_context_and_runs_nested() {
        let (mut m, mut ctx) = setup();
        let err = ctx
            .ocall(&mut m, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, SdkError::NotInEnclave));

        let secure = m.alloc_enclave_heap(ctx.eid, 2048, 64).unwrap();
        ctx.enter_main(&mut m).unwrap();
        let got = ctx
            .ocall(
                &mut m,
                "ocall_out",
                &[BufArg::new(secure, 2048)],
                |_, _, args| {
                    // The OS body sees an untrusted staging buffer.
                    Ok(args.bufs[0])
                },
            )
            .unwrap();
        assert_ne!(got, secure);
        ctx.leave_main(&mut m).unwrap();
        assert_eq!(ctx.stats().ocalls()["ocall_out"].count, 1);
    }

    #[test]
    fn ocall_out_rejects_untrusted_source_pointer() {
        let (mut m, mut ctx) = setup();
        ctx.enter_main(&mut m).unwrap();
        let outside = m.alloc_untrusted(64, 64);
        let err = ctx
            .ocall(
                &mut m,
                "ocall_in",
                &[BufArg::new(outside, 64)],
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(matches!(err, SdkError::PointerMustBeInside(_)));
    }

    #[test]
    fn nrz_makes_ocall_out_cheaper() {
        // The same warm 2 KB `out` ocall on two deterministic machines,
        // one context built with the SDK's zeroing and one with NRZ.
        let cost = |options: MarshalOptions| {
            let mut m = Machine::new(SimConfig::builder().deterministic().build());
            let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
            let edl = parse_edl(TEST_EDL).unwrap();
            let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, options).unwrap();
            let secure = m.alloc_enclave_heap(eid, 2048, 64).unwrap();
            ctx.enter_main(&mut m).unwrap();
            let mut run = || {
                let s = m.now();
                ctx.ocall(
                    &mut m,
                    "ocall_out",
                    &[BufArg::new(secure, 2048)],
                    |_, _, _| Ok(0u64),
                )
                .unwrap();
                (m.now() - s).get()
            };
            run(); // warm
            run()
        };
        let with_zeroing = cost(MarshalOptions::default());
        let without = cost(MarshalOptions::nrz());
        assert!(
            with_zeroing > without + 1_500,
            "NRZ should save ~2k cycles on 2 KB: {with_zeroing} vs {without}"
        );
    }

    #[test]
    fn nested_ecall_is_rejected() {
        let (mut m, mut ctx) = setup();
        let err = ctx
            .ecall(&mut m, "ecall_empty", &[], |ctx, m, _| {
                ctx.ecall(m, "ecall_empty", &[], |_, _, _| Ok(()))
            })
            .unwrap_err();
        assert!(matches!(err, SdkError::AlreadyInEnclave));
    }

    #[test]
    fn arg_count_mismatch_detected() {
        let (mut m, mut ctx) = setup();
        let err = ctx
            .ecall(&mut m, "ecall_in", &[], |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, SdkError::ArgCountMismatch { .. }));
    }

    #[test]
    fn ocall_inside_ecall_body_works() {
        let (mut m, mut ctx) = setup();
        let r = ctx
            .ecall(&mut m, "ecall_empty", &[], |ctx, m, _| {
                ctx.ocall(m, "ocall_empty", &[], |_, _, _| Ok(41u64))
                    .map(|v| v + 1)
            })
            .unwrap();
        assert_eq!(r, 42);
        assert_eq!(ctx.stats().total_calls(), 2);
    }
}
