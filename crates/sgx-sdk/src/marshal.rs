//! Buffer staging shared by SDK calls and HotCalls.
//!
//! The paper stresses that HotCalls' marshalling is *"the same code used by
//! the SDK ecalls and ocalls implementation, generated by the edger8r
//! tool"* (§5) — so the staging logic lives here, used verbatim by both
//! [`crate::EnclaveCtx`] and the `hotcalls` crate. Only the transport
//! (context switch vs shared-memory mailbox) differs.

use sgx_sim::{Addr, Cycles, Machine};

use crate::calls::{BufArg, CallArgs, MarshalOptions};
use crate::edger8r::ProxyPlan;
use crate::edl::Direction;
use crate::error::{Result, SdkError};
use crate::memops::{sdk_memcpy, sdk_zero_staging, ZeroOutcome};

/// One staged buffer: where the caller's data lives, where the callee sees
/// it, and how it must travel back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staged {
    /// Caller-side buffer.
    pub caller: Addr,
    /// Callee-visible staging copy.
    pub staged: Addr,
    /// Length in bytes.
    pub len: u64,
    /// Transfer mode.
    pub(crate) direction: Direction,
}

/// Running totals of staging-buffer zeroing work: how many bytes the
/// SDK-faithful path `memset` and how many No-Redundant-Zeroing skipped,
/// split by the transfer mode that triggered them. Indexable evidence for
/// the Figure 3 ablation and the marshalling tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ZeroLedger {
    /// Bytes zeroed for `out` staging regions.
    pub(crate) zeroed_out: u64,
    /// Bytes zeroed for `in&out` staging regions (the generated proxy's
    /// whole-frame `memset`, immediately overwritten by the copy-in).
    pub(crate) zeroed_inout: u64,
    /// Bytes whose zeroing NRZ elided for `out` regions.
    pub(crate) elided_out: u64,
    /// Bytes whose zeroing NRZ elided for `in&out` regions.
    pub(crate) elided_inout: u64,
}

impl ZeroLedger {
    /// Total bytes actually zeroed.
    pub fn zeroed_bytes(&self) -> u64 {
        self.zeroed_out + self.zeroed_inout
    }

    /// Total bytes NRZ kept un-zeroed.
    pub fn elided_bytes(&self) -> u64 {
        self.elided_out + self.elided_inout
    }

    fn record(&mut self, direction: Direction, outcome: ZeroOutcome) {
        match (direction, outcome) {
            (Direction::Out, ZeroOutcome::Zeroed(n)) => self.zeroed_out += n,
            (Direction::Out, ZeroOutcome::Elided(n)) => self.elided_out += n,
            (Direction::InOut, ZeroOutcome::Zeroed(n)) => self.zeroed_inout += n,
            (Direction::InOut, ZeroOutcome::Elided(n)) => self.elided_inout += n,
            _ => {}
        }
    }
}

/// A bump region staging buffers are carved from (secure heap scratch for
/// ecalls, untrusted stack for ocalls, shared memory for HotCalls).
#[derive(Debug)]
pub struct StagingArea {
    base: Addr,
    capacity: u64,
    offset: u64,
    /// Fixed cost charged per allocation (`malloc` on the secure heap vs
    /// stack-pointer adjustment on the untrusted stack).
    alloc_cost: u64,
    ledger: ZeroLedger,
}

impl StagingArea {
    /// A secure-heap staging area (ecall staging): allocations cost a
    /// `malloc`.
    pub fn secure(m: &Machine, base: Addr, capacity: u64) -> Self {
        StagingArea {
            base,
            capacity,
            offset: 0,
            alloc_cost: m.config().sdk.secure_malloc,
            ledger: ZeroLedger::default(),
        }
    }

    /// An untrusted staging area (ocall stack / HotCalls shared memory):
    /// allocations cost a stack adjustment.
    pub fn untrusted(m: &Machine, base: Addr, capacity: u64) -> Self {
        StagingArea {
            base,
            capacity,
            offset: 0,
            alloc_cost: m.config().sdk.untrusted_stack_alloc,
            ledger: ZeroLedger::default(),
        }
    }

    /// The zeroing work (done and elided) recorded while staging through
    /// this area.
    pub fn ledger(&self) -> ZeroLedger {
        self.ledger
    }

    /// Reserves the first `bytes` (e.g. for the parameter struct) without
    /// an allocation charge.
    pub fn reserve(&mut self, bytes: u64) {
        self.offset = (self.offset + bytes + 63) & !63;
    }

    fn alloc(&mut self, m: &mut Machine, len: u64) -> Result<Addr> {
        m.charge(Cycles::new(self.alloc_cost));
        let aligned = (self.offset + 63) & !63;
        if aligned + len > self.capacity {
            return Err(SdkError::ScratchExhausted { requested: len });
        }
        self.offset = aligned + len;
        Ok(self.base.offset(aligned))
    }
}

/// Which side of the boundary the *caller's* buffers must be on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerSide {
    /// Ecall: caller buffers are untrusted; staging copies live in secure
    /// memory.
    Untrusted,
    /// Ocall (and HotOcall): caller buffers are enclave memory; staging
    /// copies live in untrusted memory.
    Trusted,
}

/// Stages every buffer parameter of `plan` toward the callee, performing
/// boundary checks and the per-mode copy/zero work.
///
/// For the callee-bound direction (`In`/`InOut`) data is copied into the
/// staging area. On *untrusted* staging (ocalls, HotCalls) the SDK-faithful
/// path additionally zeroes `Out` **and** `InOut` regions first — the
/// generated proxy's whole-frame `memset` — unless
/// [`MarshalOptions::no_redundant_zeroing`] elides it, charging only the
/// per-buffer NRZ tracking cost. On *secure* staging (ecalls) `Out` regions
/// are always zeroed: a secure scratch buffer may hold heap secrets, so
/// that `memset` is security-mandatory and NRZ never touches it.
///
/// # Errors
///
/// Fails on boundary violations, staging exhaustion, or machine errors.
pub fn stage(
    m: &mut Machine,
    plan: &ProxyPlan,
    bufs: &[BufArg],
    area: &mut StagingArea,
    side: CallerSide,
    options: MarshalOptions,
) -> Result<(CallArgs, Vec<Staged>)> {
    if plan.steps.len() != bufs.len() {
        return Err(SdkError::ArgCountMismatch {
            name: plan.name.clone(),
            expected: plan.steps.len(),
            got: bufs.len(),
        });
    }
    let mut args = CallArgs::default();
    let mut staged_list = Vec::new();
    for (step, arg) in plan.steps.iter().zip(bufs.iter()) {
        let (callee_addr, staged) = stage_buf(m, step.direction, arg, area, side, options)?;
        args.bufs.push(callee_addr);
        if let Some(s) = staged {
            staged_list.push(s);
        }
    }
    Ok((args, staged_list))
}

/// Stages one buffer: pointer check, staging allocation, and the
/// per-mode copy/zero work. Returns the callee-visible address and, for
/// staged modes, the [`Staged`] record `unstage` needs.
fn stage_buf(
    m: &mut Machine,
    direction: Direction,
    arg: &BufArg,
    area: &mut StagingArea,
    side: CallerSide,
    options: MarshalOptions,
) -> Result<(Addr, Option<Staged>)> {
    // Pointer security check (sgx_is_outside_enclave /
    // sgx_is_within_enclave in the real SDK).
    m.charge(Cycles::new(30));
    if direction != Direction::UserCheck {
        match side {
            CallerSide::Untrusted => {
                if !m.span_outside_epc(arg.addr, arg.len.max(1)) {
                    return Err(SdkError::PointerMustBeOutside(arg.addr));
                }
            }
            CallerSide::Trusted => {
                if !m.span_in_epc(arg.addr, arg.len.max(1)) {
                    return Err(SdkError::PointerMustBeInside(arg.addr));
                }
            }
        }
    }
    if direction == Direction::UserCheck {
        return Ok((arg.addr, None));
    }
    let staged = area.alloc(m, arg.len)?;
    match direction {
        Direction::In => {
            sdk_memcpy(m, staged, arg.addr, arg.len)?;
        }
        Direction::InOut => {
            // The generated untrusted proxy `memset`s its whole
            // `ocalloc` frame before copying parameters in, so
            // on untrusted staging even `in&out` regions get
            // zeroed — then immediately overwritten by the
            // copy-in. NRZ elides exactly that frame zeroing.
            if side == CallerSide::Trusted {
                let outcome = sdk_zero_staging(
                    m,
                    staged,
                    arg.len,
                    options.optimized_memset,
                    options.no_redundant_zeroing,
                )?;
                area.ledger.record(direction, outcome);
            }
            sdk_memcpy(m, staged, arg.addr, arg.len)?;
        }
        Direction::Out => {
            // Zeroing a *secure* staging buffer is mandatory
            // (it may hold heap secrets — the HeartBleed
            // analogy of §3.2.1). Zeroing an *untrusted*
            // staging buffer has no security value, which is
            // exactly what No-Redundant-Zeroing exploits.
            let elide = side == CallerSide::Trusted && options.no_redundant_zeroing;
            let outcome = sdk_zero_staging(m, staged, arg.len, options.optimized_memset, elide)?;
            area.ledger.record(direction, outcome);
        }
        Direction::UserCheck => unreachable!("handled above"),
    }
    Ok((
        staged,
        Some(Staged {
            caller: arg.addr,
            staged,
            len: arg.len,
            direction,
        }),
    ))
}

/// Stages a scatter-gather segment list as **one logical transfer**: each
/// segment gets its own pointer check, staging allocation, and per-mode
/// copy/zero work, but no coalescing copy ever happens — the callee sees
/// the segments where they were staged. This is the vectored marshal the
/// streaming data path uses: a multi-megabyte object crosses the boundary
/// as N segment copies instead of a gather-copy *plus* N segment copies.
///
/// The returned records feed [`unstage`] unchanged, which copies
/// `Out`/`InOut` segments back individually.
///
/// # Errors
///
/// As [`stage`]: boundary violations, staging exhaustion, or machine
/// errors.
pub fn stage_sg(
    m: &mut Machine,
    segments: &[BufArg],
    direction: Direction,
    area: &mut StagingArea,
    side: CallerSide,
    options: MarshalOptions,
) -> Result<Vec<Staged>> {
    let mut staged_list = Vec::with_capacity(segments.len());
    for seg in segments {
        let (_, staged) = stage_buf(m, direction, seg, area, side, options)?;
        if let Some(s) = staged {
            staged_list.push(s);
        }
    }
    Ok(staged_list)
}

/// Copies `Out`/`InOut` staging buffers back to the caller after the callee
/// body ran.
///
/// # Errors
///
/// Propagates machine-model errors.
pub fn unstage(m: &mut Machine, staged: &[Staged]) -> Result<()> {
    for s in staged {
        if matches!(s.direction, Direction::Out | Direction::InOut) {
            sdk_memcpy(m, s.caller, s.staged, s.len)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edger8r::edger8r;
    use crate::edl::parse_edl;
    use sgx_sim::{EnclaveBuildOptions, SimConfig};

    fn setup() -> (Machine, sgx_sim::EnclaveId, crate::edger8r::Proxies) {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let edl = parse_edl(
            "enclave { untrusted {
                void f_in([in, size=n] const uint8_t* b, size_t n);
                void f_out([out, size=n] uint8_t* b, size_t n);
                void f_uc([user_check] void* p);
             }; };",
        )
        .unwrap();
        let proxies = edger8r(&edl).unwrap();
        (m, eid, proxies)
    }

    #[test]
    fn trusted_side_requires_enclave_pointers() {
        let (mut m, _eid, proxies) = setup();
        let outside = m.alloc_untrusted(64, 64);
        let area_base = m.alloc_untrusted(4096, 64);
        let mut area = StagingArea::untrusted(&m, area_base, 4096);
        let err = stage(
            &mut m,
            proxies.ocall("f_in").unwrap(),
            &[BufArg::new(outside, 64)],
            &mut area,
            CallerSide::Trusted,
            MarshalOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SdkError::PointerMustBeInside(_)));
    }

    #[test]
    fn user_check_is_zero_copy() {
        let (mut m, _eid, proxies) = setup();
        let p = m.alloc_untrusted(64, 64);
        let area_base = m.alloc_untrusted(4096, 64);
        let mut area = StagingArea::untrusted(&m, area_base, 4096);
        let (args, staged) = stage(
            &mut m,
            proxies.ocall("f_uc").unwrap(),
            &[BufArg::new(p, 64)],
            &mut area,
            CallerSide::Trusted,
            MarshalOptions::default(),
        )
        .unwrap();
        assert_eq!(args.bufs[0], p);
        assert!(staged.is_empty());
    }

    #[test]
    fn nrz_skips_untrusted_zeroing_but_not_secure() {
        let (mut m, eid, proxies) = setup();
        let secure_buf = m.alloc_enclave_heap(eid, 2048, 64).unwrap();
        let area_base = m.alloc_untrusted(8192, 64);
        let nrz = MarshalOptions {
            no_redundant_zeroing: true,
            optimized_memset: false,
        };
        // Untrusted staging (ocall): NRZ saves the byte-wise memset.
        let cost_of = |m: &mut Machine, opts: MarshalOptions| {
            let mut area = StagingArea::untrusted(m, area_base, 8192);
            let start = m.now();
            stage(
                m,
                proxies.ocall("f_out").unwrap(),
                &[BufArg::new(secure_buf, 2048)],
                &mut area,
                CallerSide::Trusted,
                opts,
            )
            .unwrap();
            (m.now() - start).get()
        };
        cost_of(&mut m, MarshalOptions::default()); // warm
        let zeroed = cost_of(&mut m, MarshalOptions::default());
        let skipped = cost_of(&mut m, nrz);
        assert!(
            zeroed > skipped + 1_800,
            "zeroed={zeroed} skipped={skipped}"
        );
    }

    #[test]
    fn stage_sg_stages_segments_without_a_coalescing_copy() {
        let (mut m, eid, _proxies) = setup();
        let seg_len = 1024u64;
        let segs: Vec<BufArg> = (0..4)
            .map(|_| BufArg::new(m.alloc_enclave_heap(eid, seg_len, 64).unwrap(), seg_len))
            .collect();
        let area_base = m.alloc_untrusted(64 << 10, 64);
        let nrz = MarshalOptions {
            no_redundant_zeroing: true,
            optimized_memset: false,
        };

        let gather = m.alloc_enclave_heap(eid, 4 * seg_len, 64).unwrap();

        // Vectored: 4 segment copies straight into staging, nothing else.
        let vectored_cost = |m: &mut Machine| {
            let mut area = StagingArea::untrusted(m, area_base, 64 << 10);
            let start = m.now();
            let staged = stage_sg(
                m,
                &segs,
                Direction::InOut,
                &mut area,
                CallerSide::Trusted,
                nrz,
            )
            .unwrap();
            let cost = (m.now() - start).get();
            (staged, cost)
        };
        // Coalescing first costs an extra gather copy of the whole
        // object before the boundary copy even starts.
        let coalesced_cost = |m: &mut Machine| {
            let start = m.now();
            for (i, arg) in segs.iter().enumerate() {
                sdk_memcpy(m, gather.offset(i as u64 * seg_len), arg.addr, seg_len).unwrap();
            }
            let mut area = StagingArea::untrusted(m, area_base, 64 << 10);
            stage_sg(
                m,
                &[BufArg::new(gather, 4 * seg_len)],
                Direction::InOut,
                &mut area,
                CallerSide::Trusted,
                nrz,
            )
            .unwrap();
            (m.now() - start).get()
        };

        // Warm both paths first: the machine charges cold page touches,
        // which would bias whichever path runs first.
        let (staged, _) = vectored_cost(&mut m);
        coalesced_cost(&mut m);

        assert_eq!(staged.len(), 4);
        for (s, arg) in staged.iter().zip(&segs) {
            assert_eq!(s.caller, arg.addr);
            assert_eq!(s.len, seg_len);
            assert_eq!(s.direction, Direction::InOut);
        }
        // The records feed unstage unchanged: Out/InOut copy back.
        unstage(&mut m, &staged).unwrap();

        let (_, vectored) = vectored_cost(&mut m);
        let coalesced = coalesced_cost(&mut m);
        assert!(
            coalesced > vectored,
            "coalescing must cost more: coalesced={coalesced} vectored={vectored}"
        );
    }

    #[test]
    fn staging_area_exhaustion_is_reported() {
        let (mut m, eid, proxies) = setup();
        let secure_buf = m.alloc_enclave_heap(eid, 2048, 64).unwrap();
        let area_base = m.alloc_untrusted(1024, 64);
        let mut area = StagingArea::untrusted(&m, area_base, 1024);
        let err = stage(
            &mut m,
            proxies.ocall("f_out").unwrap(),
            &[BufArg::new(secure_buf, 2048)],
            &mut area,
            CallerSide::Trusted,
            MarshalOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SdkError::ScratchExhausted { .. }));
    }
}
