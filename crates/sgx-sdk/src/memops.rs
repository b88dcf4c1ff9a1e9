//! The SDK's memory primitives, with their (in)efficiencies.
//!
//! The SGX SDK's proprietary `memset` operates **byte-wise** — "extremely
//! inefficient on a 64 bit platform" (paper §3.2.1) — and is what makes the
//! `out` transfer mode so much slower than `in&out`. `memcpy` is word-wise.
//! Both also generate real cache/MEE traffic through the machine model.

use sgx_sim::{Addr, Cycles, Machine};

use crate::error::Result;

/// The SDK's word-wise `memcpy`: per-word compute plus the memory traffic of
/// reading the source span and writing the destination span.
///
/// # Errors
///
/// Propagates memory-model errors (uncommitted EPC pages).
pub fn sdk_memcpy(m: &mut Machine, dst: Addr, src: Addr, len: u64) -> Result<Cycles> {
    let start = m.now();
    let words = len.div_ceil(8);
    m.charge(Cycles::new(words * m.config().sdk.memcpy_per_word));
    m.read(src, len)?;
    m.write(dst, len)?;
    Ok(m.now() - start)
}

/// The SDK's byte-wise `memset`. When `optimized` is true, models the
/// word-wise variant the paper suggests Intel adopt ("Further
/// optimizations", §3.5).
///
/// # Errors
///
/// Propagates memory-model errors.
pub(crate) fn sdk_memset(m: &mut Machine, dst: Addr, len: u64, optimized: bool) -> Result<Cycles> {
    let start = m.now();
    let compute = if optimized {
        len.div_ceil(8) * m.config().sdk.memcpy_per_word
    } else {
        len * m.config().sdk.memset_per_byte
    };
    m.charge(Cycles::new(compute));
    m.write(dst, len)?;
    Ok(m.now() - start)
}

/// What happened to one staging region's pre-call zeroing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZeroOutcome {
    /// The region was zeroed (`memset`): bytes written.
    Zeroed(u64),
    /// No-Redundant-Zeroing elided the `memset`: bytes *not* written. Only
    /// the per-buffer tracking cost was charged.
    Elided(u64),
}

/// Zeroes (or, under No-Redundant-Zeroing, deliberately does not zero) one
/// staging region, charging the two variants their distinct costs: the
/// SDK-faithful path pays the `memset` compute plus its write traffic, the
/// NRZ path pays only [`sgx_sim::SdkCostConfig::nrz_track_per_buffer`] of
/// bookkeeping (deciding from the EDL direction that the region will be
/// fully overwritten).
///
/// # Errors
///
/// Propagates memory-model errors from the `memset` write.
pub(crate) fn sdk_zero_staging(
    m: &mut Machine,
    dst: Addr,
    len: u64,
    optimized: bool,
    elide: bool,
) -> Result<ZeroOutcome> {
    if elide {
        m.charge(Cycles::new(m.config().sdk.nrz_track_per_buffer));
        Ok(ZeroOutcome::Elided(len))
    } else {
        sdk_memset(m, dst, len, optimized)?;
        Ok(ZeroOutcome::Zeroed(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::builder().deterministic().build())
    }

    #[test]
    fn memset_bytewise_dwarfs_optimized() {
        let mut m = machine();
        let a = m.alloc_untrusted(2048, 64);
        let slow = sdk_memset(&mut m, a, 2048, false).unwrap();
        let fast = sdk_memset(&mut m, a, 2048, true).unwrap();
        // Byte-wise: 2048 compute cycles vs 256. Memory traffic is warmer
        // the second time, so the gap is conservative.
        assert!(slow.get() > fast.get() + 1_500, "slow={slow} fast={fast}");
    }

    #[test]
    fn memcpy_charges_both_spans() {
        let mut m = machine();
        let src = m.alloc_untrusted(1024, 64);
        let dst = m.alloc_untrusted(1024, 64);
        let c = sdk_memcpy(&mut m, dst, src, 1024).unwrap();
        assert!(c.get() >= 128, "at least the per-word compute: {c}");
        // Warm copy is cheaper.
        let warm = sdk_memcpy(&mut m, dst, src, 1024).unwrap();
        assert!(warm < c);
    }

    #[test]
    fn zero_length_is_free_of_memory_traffic() {
        let mut m = machine();
        let a = m.alloc_untrusted(64, 64);
        let c = sdk_memcpy(&mut m, a, a, 0).unwrap();
        assert_eq!(c, Cycles::ZERO);
    }

    #[test]
    fn elided_zeroing_charges_only_the_tracking_cost() {
        let mut m = machine();
        let a = m.alloc_untrusted(4096, 64);
        let s = m.now();
        let outcome = sdk_zero_staging(&mut m, a, 4096, false, true).unwrap();
        let elided_cost = (m.now() - s).get();
        assert_eq!(outcome, ZeroOutcome::Elided(4096));
        assert_eq!(elided_cost, m.config().sdk.nrz_track_per_buffer);

        let s = m.now();
        let outcome = sdk_zero_staging(&mut m, a, 4096, false, false).unwrap();
        let zeroed_cost = (m.now() - s).get();
        assert_eq!(outcome, ZeroOutcome::Zeroed(4096));
        assert!(
            zeroed_cost > elided_cost * 10,
            "memset {zeroed_cost} vs tracking {elided_cost}"
        );
    }
}
