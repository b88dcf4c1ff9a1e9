//! Enclave state: control structures, measurement, layout, and the memory
//! footprint of entry/exit transitions.
//!
//! The [`crate::machine::Machine`] owns enclaves and drives their lifecycle;
//! this module holds the per-enclave bookkeeping.

mod measurement;
mod structures;

pub use measurement::{Measurement, MeasurementBuilder};
pub use structures::{EnclaveState, PageType, Secs, Tcs};

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
    /// This enclave's id.
    pub id: EnclaveId,
    /// Lifecycle state.
    pub state: EnclaveState,
    /// Control structure.
    pub secs: Secs,
    /// Thread control structures.
    pub tcs: Vec<Tcs>,
    /// Secure-heap allocator over the committed heap region.
    heap: BumpAllocator,
    builder: Option<MeasurementBuilder>,
    measurement: Option<Measurement>,
    entry_code: Addr,
}

impl Enclave {
    /// Creates the bookkeeping for a freshly ECREATEd enclave.
    ///
    /// `base`/`size` describe the committed EPC span; `heap` the sub-range
    /// reserved for secure-heap allocations; `entry_code` the trampoline
    /// page EENTER jumps through.
    pub fn new(id: EnclaveId, secs: Secs, heap: AddrRange, entry_code: Addr) -> Self {
        let size = secs.size;
        Enclave {
            id,
            state: EnclaveState::Building,
            secs,
            tcs: Vec::new(),
            heap: BumpAllocator::new(heap),
            builder: Some(MeasurementBuilder::ecreate(size)),
            measurement: None,
            entry_code,
        }
    }

    /// Records an EADD into the running measurement.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is already initialized.
    pub fn record_eadd(&mut self, offset: u64, page_type: PageType) -> Result<()> {
        match self.builder.as_mut() {
            Some(b) => {
                b.eadd(offset, page_type);
                Ok(())
            }
            None => Err(SgxError::InvalidState {
                op: "EADD",
                state: self.state.name(),
            }),
        }
    }

    /// Records an EEXTEND chunk into the running measurement.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is already initialized.
    pub fn record_eextend(&mut self, offset: u64, chunk: &[u8]) -> Result<()> {
        match self.builder.as_mut() {
            Some(b) => {
                b.eextend(offset, chunk);
                Ok(())
            }
            None => Err(SgxError::InvalidState {
                op: "EEXTEND",
                state: self.state.name(),
            }),
        }
    }

    /// Finalizes the measurement (EINIT).
    ///
    /// # Errors
    ///
    /// Fails if already initialized.
    pub fn initialize(&mut self) -> Result<Measurement> {
        let builder = self.builder.take().ok_or(SgxError::InvalidState {
            op: "EINIT",
            state: self.state.name(),
        })?;
        let m = builder.finalize();
        self.measurement = Some(m);
        self.state = EnclaveState::Initialized;
        Ok(m)
    }

    /// The finalized measurement, if EINIT has run.
    pub fn measurement(&self) -> Option<Measurement> {
        self.measurement
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
    pub fn alloc_heap(&mut self, size: u64, align: u64) -> Result<Addr> {
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
    pub fn entry_footprint(&self, tcs_index: usize) -> Result<[Addr; 8]> {
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
        let secs = Secs {
            addr: base,
            base,
            size: 64 * 4096,
        };
        let heap = AddrRange::new(base.offset(16 * 4096), base.offset(64 * 4096));
        let mut e = Enclave::new(EnclaveId(1), secs, heap, base.offset(4096));
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
        e.record_eadd(0, PageType::Regular).unwrap();
        let m = e.initialize().unwrap();
        assert_eq!(e.measurement(), Some(m));
        assert!(matches!(
            e.record_eadd(4096, PageType::Regular),
            Err(SgxError::InvalidState { op: "EADD", .. })
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
