//! Stress-SGX-style object workload generators for the streaming data
//! path.
//!
//! Stress-ng's SGX descendant drives enclaves with working sets chosen to
//! sit on either side of the EPC paging cliff; [`cliff_ramp`] does the
//! same for the streaming storage path: sizes double from well under the
//! EPC capacity to several times over it, so a single run *crosses the
//! paging cliff mid-run* (the adaptive chunker's raison d'être). It emits
//! a deterministic list of object sizes, so a bench can replay the exact
//! same object stream across interface modes and chunking policies.

/// Content block size of a stress object (matches the storage app's
/// dedup/auth block): the smallest object a ramp emits.
pub(crate) const STRESS_BLOCK: usize = 4096;

/// Working sets that cross the EPC paging cliff mid-run: object sizes in
/// bytes, doubling from `epc_bytes / 8` until they exceed
/// `4 * epc_bytes`, so the early objects stream EPC-resident and the late
/// ones thrash.
pub fn cliff_ramp(epc_bytes: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut bytes = (epc_bytes / 8).max(STRESS_BLOCK);
    while bytes <= epc_bytes.saturating_mul(4) {
        sizes.push(bytes);
        bytes *= 2;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cliff_ramp_spans_the_epc_capacity() {
        let epc = 8 << 20;
        let sizes = cliff_ramp(epc);
        assert!(*sizes.first().unwrap() < epc);
        assert!(*sizes.last().unwrap() > epc, "{sizes:?}");
        // Sizes strictly double.
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }
}
