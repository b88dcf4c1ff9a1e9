//! Enclave Page Cache residency and paging (EWB / ELDU).
//!
//! Enclaves commit pages from a virtual EPC window larger than the physical
//! EPC. When residency exceeds physical capacity, a victim page is evicted
//! with `EWB` — encrypted, MACed and versioned into regular RAM — and must
//! be restored with `ELDU` on the next touch. A working set slightly larger
//! than the 93 MB EPC (libquantum's 96 MB) therefore thrashes, reproducing
//! the paper's 5.2× slowdown.

use std::collections::VecDeque;

use crate::config::PagingConfig;
use crate::crypto::{verify_tag, HmacSha256, DIGEST_LEN};
use crate::cycles::Cycles;
use crate::error::{Result, SgxError};
use crate::mem::{Addr, AddrRange, BlockSet, BumpAllocator, EPC_WINDOW, PAGE_SIZE, PRM_BASE};

/// Outcome of touching an EPC page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTouch {
    /// Cycles charged for paging activity (zero when the page was resident).
    pub cost: Cycles,
    /// Did the touch trigger an ELDU (page-in)?
    pub paged_in: bool,
    /// Did making room trigger an EWB (page-out) of a victim?
    pub(crate) evicted: Option<u64>,
}

/// The image EWB left in regular RAM, until ELDU consumes it.
#[derive(Debug, Clone)]
struct SwappedPage {
    version: u64,
    mac: [u8; DIGEST_LEN],
}

/// Index of `page` in the table of committed pages: the window is
/// bump-allocated in whole pages, so they count up from its first page. A
/// page below the window wraps to an index the table never reaches.
fn index(page: u64) -> usize {
    page.wrapping_sub(PRM_BASE / PAGE_SIZE) as usize
}

/// Counters for paging activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EpcStats {
    /// Pages evicted (EWB executions).
    pub ewb: u64,
    /// Pages restored (ELDU executions).
    pub eldu: u64,
    /// Page touches that found the page resident.
    pub resident_hits: u64,
    /// Total cycles charged to paging (fault overhead + ELDU + EWB), the
    /// numerator of any paging-cost-per-byte rate an adaptive chunker
    /// watches.
    pub paging_cycles: u64,
}

/// The EPC manager: committed pages, physical residency, FIFO eviction, and
/// the EWB/ELDU protocol with versioned MACs.
#[derive(Debug, Clone)]
pub struct Epc {
    allocator: BumpAllocator,
    /// Every committed page's swap image, if it has one, by [`index`].
    images: Vec<Option<SwappedPage>>,
    /// The resident pages: a touch that hits reads this bitmap alone.
    resident: BlockSet,
    /// The resident pages, oldest first.
    fifo: VecDeque<u64>,
    next_version: u64,
    capacity_pages: u64,
    /// The paging key's absorbed HMAC state; each page MAC clones it.
    paging_mac: HmacSha256,
    config: PagingConfig,
    stats: EpcStats,
}

impl Epc {
    /// Builds an EPC with the physical capacity from `config`.
    pub fn new(config: PagingConfig) -> Self {
        Epc {
            allocator: BumpAllocator::new(AddrRange::new(
                Addr::new(PRM_BASE),
                Addr::new(PRM_BASE + EPC_WINDOW),
            )),
            images: Vec::new(),
            resident: BlockSet::new(PAGE_SIZE),
            fifo: VecDeque::new(),
            next_version: 1,
            capacity_pages: config.epc_bytes / PAGE_SIZE,
            paging_mac: HmacSha256::new(&[0xA5; DIGEST_LEN]),
            config,
            stats: EpcStats::default(),
        }
    }

    /// Physical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.fifo.len() as u64
    }

    /// Paging statistics so far.
    pub fn stats(&self) -> EpcStats {
        self.stats
    }

    /// Commits `pages` contiguous pages for an enclave (the EADD path; the
    /// model never asks which enclave owns a page, so the id is not kept).
    /// The pages start resident; committing may evict other pages. Returns
    /// the base address and the paging cost incurred.
    pub fn commit(&mut self, _enclave_id: u64, pages: u64) -> Result<(Addr, Cycles)> {
        let base = self
            .allocator
            .alloc(pages * PAGE_SIZE, PAGE_SIZE)
            .ok_or(SgxError::EnclaveRangeExhausted)?;
        let mut cost = Cycles::ZERO;
        for i in 0..pages {
            let page = base.offset(i * PAGE_SIZE).page();
            debug_assert_eq!(index(page), self.images.len());
            self.images.push(None);
            let (c, _victim) = self.make_resident(page)?;
            cost += c;
        }
        self.stats.paging_cycles += cost.get();
        Ok((base, cost))
    }

    /// Is this page committed to an enclave?
    pub fn is_committed(&self, page: u64) -> bool {
        index(page) < self.images.len()
    }

    /// Touches a committed page: pages it in if swapped out, evicting a
    /// victim if the EPC is full.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NotEnclaveMemory`] for uncommitted pages and
    /// [`SgxError::PageMacMismatch`] if a swapped page's MAC fails (which
    /// would mean the untrusted OS tampered with the evicted image).
    pub fn touch(&mut self, page: u64) -> Result<PageTouch> {
        if self.resident.contains(page) {
            self.stats.resident_hits += 1;
            return Ok(PageTouch {
                cost: Cycles::ZERO,
                paged_in: false,
                evicted: None,
            });
        }
        let Some(image) = self.images.get_mut(index(page)) else {
            return Err(SgxError::NotEnclaveMemory(Addr::new(page * PAGE_SIZE)));
        };
        // Page fault path: kernel overhead + ELDU (+ EWB for the victim).
        let mut cost = Cycles::new(self.config.fault_overhead);

        if let Some(swapped) = image.take() {
            let expected = self.page_mac(page, swapped.version);
            if !verify_tag(&expected, &swapped.mac) {
                return Err(SgxError::PageMacMismatch);
            }
        }
        cost += Cycles::new(self.config.eldu);
        self.stats.eldu += 1;

        let (make_cost, evicted) = self.make_resident(page)?;
        cost += make_cost;
        self.stats.paging_cycles += cost.get();
        Ok(PageTouch {
            cost,
            paged_in: true,
            evicted,
        })
    }

    /// Counts `n` more resident hits: touches of a page known to be
    /// resident, such as the other missing lines of a span's page after the
    /// first.
    pub(crate) fn count_resident_hits(&mut self, n: u64) {
        self.stats.resident_hits += n;
    }

    /// Inserts `page` into the resident set, evicting the FIFO victim if
    /// the EPC is at capacity. Returns the EWB cost (zero if no eviction)
    /// and the victim page, if any.
    fn make_resident(&mut self, page: u64) -> Result<(Cycles, Option<u64>)> {
        let mut cost = Cycles::ZERO;
        let mut evicted = None;
        if self.fifo.len() as u64 >= self.capacity_pages {
            let victim = self.fifo.pop_front().ok_or(SgxError::EpcExhausted)?;
            let version = self.next_version;
            self.next_version += 1;
            let mac = self.page_mac(victim, version);
            self.images[index(victim)] = Some(SwappedPage { version, mac });
            self.resident.remove(victim);
            self.stats.ewb += 1;
            cost += Cycles::new(self.config.ewb);
            evicted = Some(victim);
        }
        self.resident.insert(page);
        self.fifo.push_back(page);
        Ok((cost, evicted))
    }

    fn page_mac(&self, page: u64, version: u64) -> [u8; DIGEST_LEN] {
        let mut mac = self.paging_mac.clone();
        mac.update(&page.to_le_bytes());
        mac.update(&version.to_le_bytes());
        mac.finalize()
    }

    /// Test hook: corrupt the stored MAC of a swapped-out page, modelling an
    /// OS that tampers with the evicted image.
    #[doc(hidden)]
    pub fn corrupt_swapped_page(&mut self, page: u64) -> bool {
        let image = self.images.get_mut(index(page)).and_then(Option::as_mut);
        if let Some(s) = image {
            s.mac[0] ^= 0xFF;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_epc(pages: u64) -> Epc {
        Epc::new(PagingConfig {
            epc_bytes: pages * PAGE_SIZE,
            ewb: 7_000,
            eldu: 7_000,
            fault_overhead: 5_000,
        })
    }

    #[test]
    fn commit_within_capacity_is_free_of_paging() {
        let mut epc = small_epc(8);
        let (base, cost) = epc.commit(1, 4).unwrap();
        assert_eq!(cost, Cycles::ZERO);
        assert_eq!(epc.resident_pages(), 4);
        assert!(epc.is_committed(base.page()));
    }

    #[test]
    fn touch_resident_page_is_free() {
        let mut epc = small_epc(8);
        let (base, _) = epc.commit(1, 2).unwrap();
        let t = epc.touch(base.page()).unwrap();
        assert_eq!(t.cost, Cycles::ZERO);
        assert!(!t.paged_in);
    }

    #[test]
    fn overcommit_triggers_thrash() {
        let mut epc = small_epc(4);
        let (base, commit_cost) = epc.commit(1, 6).unwrap();
        assert!(commit_cost > Cycles::ZERO, "commit beyond capacity evicts");
        // Sweep all 6 pages repeatedly: every touch of a non-resident page
        // pays fault + ELDU + EWB.
        let mut paged_in = 0;
        for round in 0..3 {
            for i in 0..6 {
                let t = epc.touch(base.offset(i * PAGE_SIZE).page()).unwrap();
                if t.paged_in {
                    paged_in += 1;
                    assert!(t.cost >= Cycles::new(5_000 + 7_000), "round {round}");
                }
            }
        }
        assert!(paged_in >= 6, "FIFO sweep over capacity must thrash");
        assert!(epc.stats().ewb > 0 && epc.stats().eldu > 0);
    }

    #[test]
    fn working_set_within_capacity_never_pages_after_warmup() {
        let mut epc = small_epc(8);
        let (base, _) = epc.commit(1, 8).unwrap();
        for _ in 0..5 {
            for i in 0..8 {
                let t = epc.touch(base.offset(i * PAGE_SIZE).page()).unwrap();
                assert!(!t.paged_in);
            }
        }
        assert_eq!(epc.stats().ewb, 0);
    }

    #[test]
    fn uncommitted_page_rejected() {
        let mut epc = small_epc(4);
        assert!(matches!(
            epc.touch(12345),
            Err(SgxError::NotEnclaveMemory(_))
        ));
    }

    #[test]
    fn tampered_swapped_page_fails_mac() {
        let mut epc = small_epc(2);
        let (base, _) = epc.commit(1, 4).unwrap();
        // Pages 0,1 were evicted during commit of 2,3; but those early
        // evictions happen before any swap image exists. Force a real swap:
        let first = base.page();
        // Touch page 0 -> evicts page 2 (FIFO), creating a swap image.
        epc.touch(first).unwrap();
        let slot = epc.images.iter().position(Option::is_some).unwrap();
        let victim = first + slot as u64;
        assert!(epc.corrupt_swapped_page(victim));
        assert_eq!(epc.touch(victim), Err(SgxError::PageMacMismatch));
    }

    #[test]
    fn stats_count_events() {
        let mut epc = small_epc(2);
        let (base, _) = epc.commit(1, 3).unwrap();
        for i in 0..3 {
            epc.touch(base.offset(i * PAGE_SIZE).page()).unwrap();
        }
        let s = epc.stats();
        assert!(s.ewb >= 1);
        assert!(s.eldu >= 1);
    }

    #[test]
    fn paging_cycles_sum_every_charged_fault() {
        let mut epc = small_epc(2);
        let (base, commit_cost) = epc.commit(1, 3).unwrap();
        assert_eq!(epc.stats().paging_cycles, commit_cost.get());
        let mut charged = commit_cost.get();
        for i in 0..3 {
            charged += epc
                .touch(base.offset(i * PAGE_SIZE).page())
                .unwrap()
                .cost
                .get();
        }
        assert_eq!(epc.stats().paging_cycles, charged);
        // A resident working set charges nothing more.
        let mut small = small_epc(8);
        let (b, _) = small.commit(1, 4).unwrap();
        small.touch(b.page()).unwrap();
        assert_eq!(small.stats().paging_cycles, 0);
    }
}
