//! Enclave state: control structures, layout, and the memory footprint
//! of entry/exit transitions.
//!
//! The [`crate::machine::Machine`] owns enclaves and drives their lifecycle;
//! this module holds the per-enclave bookkeeping.

mod structures;

pub(crate) use structures::Secs;
pub use structures::{EnclaveState, Tcs};

use crate::error::{Result, SgxError};
use crate::mem::{Addr, AddrRange, BumpAllocator};

/// Identifier of a simulated enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub u64);

impl core::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "enclave#{}", self.0)
    }
}

/// A fully described enclave instance.
#[derive(Debug, Clone)]
pub struct Enclave {
    /// Lifecycle state.
    pub state: EnclaveState,
    /// Control structure.
    pub(crate) secs: Secs,
    /// Thread control structures.
    pub tcs: Vec<Tcs>,
    /// Secure-heap allocator over the committed heap region.
    heap: BumpAllocator,
    entry_code: Addr,
}

impl Enclave {
    /// Creates the bookkeeping for a freshly ECREATEd enclave.
    ///
    /// `base`/`size` describe the committed EPC span; `heap` the sub-range
    /// reserved for secure-heap allocations; `entry_code` the trampoline
    /// page EENTER jumps through.
    pub(crate) fn new(secs: Secs, heap: AddrRange, entry_code: Addr) -> Self {
        Enclave {
            state: EnclaveState::Building,
            secs,
            tcs: Vec::new(),
            heap: BumpAllocator::new(heap),
            entry_code,
        }
    }

    /// Admits an EADD: pages are added only while the enclave is building.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is already initialized.
    pub(crate) fn record_eadd(&self) -> Result<()> {
        self.require_building("EADD")
    }

    /// Admits an EEXTEND, under the same rule as `Enclave::record_eadd`.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is already initialized.
    pub fn record_eextend(&self) -> Result<()> {
        self.require_building("EEXTEND")
    }

    /// EINIT: the enclave becomes enterable and takes no more pages.
    ///
    /// # Errors
    ///
    /// Fails if already initialized.
    pub(crate) fn initialize(&mut self) -> Result<()> {
        self.require_building("EINIT")?;
        self.state = EnclaveState::Initialized;
        Ok(())
    }

    /// Refuses `op` unless the enclave is still building.
    pub(crate) fn require_building(&self, op: &'static str) -> Result<()> {
        if self.state == EnclaveState::Building {
            Ok(())
        } else {
            Err(SgxError::InvalidState {
                op,
                state: self.state.name(),
            })
        }
    }

    /// Replaces the secure-heap range (used by the standard-layout builder
    /// once the final page layout is known).
    pub(crate) fn set_heap(&mut self, range: AddrRange) {
        self.heap = BumpAllocator::new(range);
    }

    /// Allocates from the secure heap.
    ///
    /// # Errors
    ///
    /// Fails with [`SgxError::EnclaveRangeExhausted`] when the heap is full.
    pub(crate) fn alloc_heap(&mut self, size: u64, align: u64) -> Result<Addr> {
        self.heap
            .alloc(size, align)
            .ok_or(SgxError::EnclaveRangeExhausted)
    }

    /// Claims a free TCS, returning its index.
    ///
    /// # Errors
    ///
    /// Fails with [`SgxError::TcsBusy`] if every TCS is executing.
    pub fn claim_tcs(&mut self) -> Result<usize> {
        for (i, t) in self.tcs.iter_mut().enumerate() {
            if !t.busy {
                t.busy = true;
                return Ok(i);
            }
        }
        Err(SgxError::TcsBusy)
    }

    /// Releases a TCS claimed by [`Enclave::claim_tcs`].
    ///
    /// # Errors
    ///
    /// Fails if the index is invalid or the TCS was not busy.
    pub fn release_tcs(&mut self, index: usize) -> Result<()> {
        let t = self.tcs.get_mut(index).ok_or(SgxError::NoSuchTcs(index))?;
        if !t.busy {
            return Err(SgxError::NotEntered);
        }
        t.busy = false;
        t.interrupted = false;
        Ok(())
    }

    /// The cache lines the EENTER/EEXIT microcode touches for `tcs_index`:
    /// SECS (2 lines), TCS (1), SSA frame (2), trusted stack top (2), entry
    /// trampoline code (1). These all live in the EPC, which is why a cold
    /// cache makes enclave transitions so much more expensive (Fig. 2).
    pub(crate) fn entry_footprint(&self, tcs_index: usize) -> Result<[Addr; 8]> {
        let t = self
            .tcs
            .get(tcs_index)
            .ok_or(SgxError::NoSuchTcs(tcs_index))?;
        Ok([
            self.secs.addr,
            self.secs.addr.offset(64),
            t.addr,
            t.ssa,
            t.ssa.offset(64),
            t.stack,
            t.stack.offset(64),
            self.entry_code,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PRM_BASE;

    fn enclave() -> Enclave {
        let base = Addr::new(PRM_BASE);
        let secs = Secs { addr: base, base };
        let heap = AddrRange::new(base.offset(16 * 4096), base.offset(64 * 4096));
        let mut e = Enclave::new(secs, heap, base.offset(4096));
        e.tcs.push(Tcs {
            addr: base.offset(2 * 4096),
            ssa: base.offset(3 * 4096),
            stack: base.offset(8 * 4096),
            busy: false,
            interrupted: false,
        });
        e
    }

    #[test]
    fn lifecycle_enforced() {
        let mut e = enclave();
        e.record_eadd().unwrap();
        e.record_eextend().unwrap();
        e.initialize().unwrap();
        assert_eq!(e.state, EnclaveState::Initialized);
        assert!(matches!(
            e.record_eadd(),
            Err(SgxError::InvalidState { op: "EADD", .. })
        ));
        assert!(matches!(
            e.record_eextend(),
            Err(SgxError::InvalidState { op: "EEXTEND", .. })
        ));
        assert!(matches!(
            e.initialize(),
            Err(SgxError::InvalidState { op: "EINIT", .. })
        ));
    }

    #[test]
    fn tcs_claim_and_release() {
        let mut e = enclave();
        let i = e.claim_tcs().unwrap();
        assert_eq!(i, 0);
        assert!(matches!(e.claim_tcs(), Err(SgxError::TcsBusy)));
        e.release_tcs(i).unwrap();
        assert!(e.claim_tcs().is_ok());
    }

    #[test]
    fn release_of_idle_tcs_fails() {
        let mut e = enclave();
        assert!(matches!(e.release_tcs(0), Err(SgxError::NotEntered)));
        assert!(matches!(e.release_tcs(7), Err(SgxError::NoSuchTcs(7))));
    }

    #[test]
    fn heap_allocations_stay_in_heap_range() {
        let mut e = enclave();
        let a = e.alloc_heap(1024, 64).unwrap();
        assert!(a.get() >= PRM_BASE + 16 * 4096);
        let b = e.alloc_heap(1024, 64).unwrap();
        assert!(b.get() >= a.get() + 1024);
    }

    #[test]
    fn entry_footprint_is_eight_distinct_epc_lines() {
        let e = enclave();
        let fp = e.entry_footprint(0).unwrap();
        assert_eq!(fp.len(), 8);
        let mut lines: Vec<u64> = fp.iter().map(|a| a.get() / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 8, "footprint lines must be distinct");
    }
}
