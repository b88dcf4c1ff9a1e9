//! Address space and allocation for the simulated machine.

mod block_set;
mod layout;

pub(crate) use block_set::BlockSet;
pub use layout::{Addr, PAGE_SIZE};
pub(crate) use layout::{AddrRange, BumpAllocator, PRM_BASE, REGULAR_BASE};

use serde::{Deserialize, Serialize};

/// Size of the *virtual* EPC window. Enclaves may commit more pages than the
/// physical EPC holds — the surplus lives paged-out in regular RAM (EWB) and
/// is paged back on demand (ELDU), which is exactly the libquantum cliff the
/// paper measures. Physical capacity is enforced by [`crate::epc::Epc`].
pub(crate) const EPC_WINDOW: u64 = 4 << 30;

/// Tracks the machine's two allocation arenas: regular DRAM and the EPC
/// window inside PRM. Classification of an address into "encrypted EPC" vs
/// "plaintext DRAM" — the distinction the whole cost model revolves
/// around — happens here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct AddressSpace {
    regular: BumpAllocator,
    epc_range: AddrRange,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Builds the address space: a 1 GB regular arena and the EPC window.
    pub(crate) fn new() -> Self {
        AddressSpace {
            regular: BumpAllocator::new(AddrRange::new(
                Addr::new(REGULAR_BASE),
                Addr::new(REGULAR_BASE + (1 << 30)),
            )),
            epc_range: AddrRange::new(Addr::new(PRM_BASE), Addr::new(PRM_BASE + EPC_WINDOW)),
        }
    }

    /// Allocates plaintext (untrusted) memory.
    pub(crate) fn alloc_regular(&mut self, size: u64, align: u64) -> Option<Addr> {
        self.regular.alloc(size, align)
    }

    /// Is `addr` inside the encrypted EPC window?
    pub(crate) fn is_epc(&self, addr: Addr) -> bool {
        self.epc_range.contains(addr)
    }

    /// Does the whole span lie inside the EPC window?
    pub(crate) fn span_in_epc(&self, addr: Addr, len: u64) -> bool {
        self.epc_range.contains_span(addr, len)
    }

    /// Does the span lie entirely *outside* the EPC (the SDK's
    /// `sgx_is_outside_enclave` check)?
    pub(crate) fn span_outside_epc(&self, addr: Addr, len: u64) -> bool {
        !self.epc_range.overlaps_span(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_exclusive() {
        let mut a = AddressSpace::new();
        let r = a.alloc_regular(128, 64).unwrap();
        assert!(!a.is_epc(r));
        assert!(a.is_epc(Addr::new(PRM_BASE)));
        assert!(!a.is_epc(Addr::new(PRM_BASE + EPC_WINDOW)));
    }

    #[test]
    fn outside_check_rejects_straddling_span() {
        let a = AddressSpace::new();
        // Span beginning just below the EPC and ending inside it.
        assert!(!a.span_outside_epc(Addr::new(PRM_BASE - 8), 16));
        assert!(a.span_outside_epc(Addr::new(PRM_BASE - 16), 16));
        assert!(a.span_in_epc(Addr::new(PRM_BASE), 4096));
        assert!(!a.span_in_epc(Addr::new(PRM_BASE + EPC_WINDOW - 8), 16));
    }

    #[test]
    fn regular_allocations_are_disjoint() {
        let mut a = AddressSpace::new();
        let x = a.alloc_regular(100, 8).unwrap();
        let y = a.alloc_regular(100, 8).unwrap();
        assert!(y.get() >= x.get() + 100);
    }
}
