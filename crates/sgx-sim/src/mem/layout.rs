//! Physical address-space layout of the simulated machine.
//!
//! Two regions matter to the cost model: ordinary DRAM, and the Processor
//! Reserved Memory holding the Enclave Page Cache. The simulator uses
//! identity-mapped addresses (linear == physical), which is sufficient
//! because costs depend only on *which region* a line lives in and on cache
//! state, never on translation itself.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Base of ordinary (untrusted, unencrypted) allocations.
pub(crate) const REGULAR_BASE: u64 = 0x0000_1000_0000;
/// Base of the Processor Reserved Memory window.
pub(crate) const PRM_BASE: u64 = 0x2000_0000_0000;
/// Size of a page, for EPC management.
pub const PAGE_SIZE: u64 = 4096;

/// A simulated physical/linear address.
///
/// A newtype so enclave code cannot accidentally mix raw integers with
/// addresses the memory model understands.
///
/// # Examples
///
/// ```
/// use sgx_sim::Addr;
///
/// let a = Addr::default().offset(0x1000);
/// assert_eq!(a.offset(0x20).get(), 0x1020);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw value.
    #[inline]
    pub(crate) const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Raw address value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Address `bytes` beyond this one.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Page number containing this address.
    #[inline]
    pub const fn page(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Is this address inside the Processor Reserved Memory window?
    #[inline]
    pub const fn is_prm(self) -> bool {
        self.0 >= PRM_BASE
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> u64 {
        a.0
    }
}

/// A half-open address range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct AddrRange {
    /// Inclusive start.
    pub(crate) start: Addr,
    /// Exclusive end.
    pub(crate) end: Addr,
}

impl AddrRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub(crate) fn new(start: Addr, end: Addr) -> Self {
        assert!(end.get() >= start.get(), "inverted address range");
        AddrRange { start, end }
    }

    /// Does the range contain `addr`?
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Does the whole `[addr, addr+len)` span fall inside this range?
    pub(crate) fn contains_span(&self, addr: Addr, len: u64) -> bool {
        self.contains(addr) && addr.get() + len <= self.end.get()
    }

    /// Does `[addr, addr+len)` overlap this range at all?
    pub(crate) fn overlaps_span(&self, addr: Addr, len: u64) -> bool {
        addr.get() < self.end.get() && addr.get() + len > self.start.get()
    }
}

/// A simple bump allocator over an address range.
///
/// The simulator never frees individual allocations (workloads reset the
/// whole machine instead), so bump allocation keeps the layout deterministic
/// and reproducible across runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct BumpAllocator {
    range: AddrRange,
    next: u64,
}

impl BumpAllocator {
    /// Creates an allocator over `range`.
    pub(crate) fn new(range: AddrRange) -> Self {
        BumpAllocator {
            next: range.start.get(),
            range,
        }
    }

    /// Allocates `size` bytes aligned to `align` (which must be a power of
    /// two). Returns `None` when the range is exhausted.
    pub(crate) fn alloc(&mut self, size: u64, align: u64) -> Option<Addr> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let aligned = (self.next + align - 1) & !(align - 1);
        let end = aligned.checked_add(size)?;
        if end > self.range.end.get() {
            return None;
        }
        self.next = end;
        Some(Addr::new(aligned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_and_offset() {
        let a = Addr::new(PAGE_SIZE * 3 + 5);
        assert_eq!(a.page(), 3);
        assert_eq!(a.offset(10).get(), PAGE_SIZE * 3 + 15);
    }

    #[test]
    fn prm_classification() {
        assert!(!Addr::new(REGULAR_BASE).is_prm());
        assert!(Addr::new(PRM_BASE).is_prm());
        assert!(Addr::new(PRM_BASE + 1).is_prm());
    }

    #[test]
    fn range_contains_span() {
        let r = AddrRange::new(Addr::new(100), Addr::new(200));
        assert!(r.contains_span(Addr::new(100), 100));
        assert!(!r.contains_span(Addr::new(150), 51));
        assert!(!r.contains_span(Addr::new(99), 1));
        assert!(r.overlaps_span(Addr::new(90), 20));
        assert!(!r.overlaps_span(Addr::new(200), 10));
    }

    #[test]
    fn bump_allocates_aligned_and_exhausts() {
        let mut b = BumpAllocator::new(AddrRange::new(Addr::new(0x100), Addr::new(0x200)));
        let a = b.alloc(8, 64).unwrap();
        assert_eq!(a.get() % 64, 0);
        let c = b.alloc(8, 64).unwrap();
        assert!(c.get() > a.get());
        assert!(b.alloc(0x1000, 1).is_none());
    }

    #[test]
    fn bump_returns_none_when_full_not_panic() {
        let mut b = BumpAllocator::new(AddrRange::new(Addr::new(0), Addr::new(64)));
        assert!(b.alloc(64, 1).is_some());
        assert!(b.alloc(1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = AddrRange::new(Addr::new(10), Addr::new(5));
    }
}
