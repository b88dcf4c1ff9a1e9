//! `Epc` as of commit e06e1df, unchanged: the reference the differential
//! tests in [`super`] hold the current implementation to.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::config::PagingConfig;
use crate::crypto::{hmac_sha256, verify_tag, DIGEST_LEN};
use crate::cycles::Cycles;
use crate::epc::{EpcStats, PageTouch};
use crate::error::{Result, SgxError};
use crate::mem::{Addr, AddrRange, BumpAllocator, EPC_WINDOW, PAGE_SIZE, PRM_BASE};

#[derive(Debug, Clone)]
struct SwappedPage {
    version: u64,
    mac: [u8; DIGEST_LEN],
}

/// The EPC manager: committed pages, physical residency, FIFO eviction, and
/// the EWB/ELDU protocol with versioned MACs.
#[derive(Debug, Clone)]
pub struct Epc {
    allocator: BumpAllocator,
    committed: HashMap<u64, u64>, // page number -> owning enclave id
    resident: HashSet<u64>,
    fifo: VecDeque<u64>,
    swapped: HashMap<u64, SwappedPage>,
    next_version: u64,
    capacity_pages: u64,
    paging_key: [u8; DIGEST_LEN],
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
            committed: HashMap::new(),
            resident: HashSet::new(),
            fifo: VecDeque::new(),
            swapped: HashMap::new(),
            next_version: 1,
            capacity_pages: config.epc_bytes / PAGE_SIZE,
            paging_key: [0xA5; DIGEST_LEN],
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
        self.resident.len() as u64
    }

    /// Paging statistics so far.
    pub fn stats(&self) -> EpcStats {
        self.stats
    }

    /// Commits `pages` contiguous pages for enclave `enclave_id` (the EADD
    /// path). The pages start resident; committing may evict other pages.
    /// Returns the base address and the paging cost incurred.
    pub fn commit(&mut self, enclave_id: u64, pages: u64) -> Result<(Addr, Cycles)> {
        let base = self
            .allocator
            .alloc(pages * PAGE_SIZE, PAGE_SIZE)
            .ok_or(SgxError::EnclaveRangeExhausted)?;
        let mut cost = Cycles::ZERO;
        for i in 0..pages {
            let page = base.offset(i * PAGE_SIZE).page();
            self.committed.insert(page, enclave_id);
            let (c, _victim) = self.make_resident(page)?;
            cost += c;
        }
        self.stats.paging_cycles += cost.get();
        Ok((base, cost))
    }

    /// Is this page committed to an enclave?
    pub fn is_committed(&self, page: u64) -> bool {
        self.committed.contains_key(&page)
    }

    /// Touches a committed page: pages it in if swapped out, evicting a
    /// victim if the EPC is full.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::NotEnclaveMemory`] for uncommitted pages and
    /// [`SgxError::ReportMacMismatch`] if a swapped page's MAC fails (which
    /// would mean the untrusted OS tampered with the evicted image).
    pub fn touch(&mut self, page: u64) -> Result<PageTouch> {
        if !self.committed.contains_key(&page) {
            return Err(SgxError::NotEnclaveMemory(Addr::new(page * PAGE_SIZE)));
        }
        if self.resident.contains(&page) {
            self.stats.resident_hits += 1;
            return Ok(PageTouch {
                cost: Cycles::ZERO,
                paged_in: false,
                evicted: None,
            });
        }
        // Page fault path: kernel overhead + ELDU (+ EWB for the victim).
        let mut cost = Cycles::new(self.config.fault_overhead);

        if let Some(swapped) = self.swapped.remove(&page) {
            let expected = self.page_mac(page, swapped.version);
            if !verify_tag(&expected, &swapped.mac) {
                return Err(SgxError::ReportMacMismatch);
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

    /// Inserts `page` into the resident set, evicting the FIFO victim if
    /// the EPC is at capacity. Returns the EWB cost (zero if no eviction)
    /// and the victim page, if any.
    fn make_resident(&mut self, page: u64) -> Result<(Cycles, Option<u64>)> {
        let mut cost = Cycles::ZERO;
        let mut evicted = None;
        if self.resident.len() as u64 >= self.capacity_pages {
            let victim = loop {
                let candidate = self.fifo.pop_front().ok_or(SgxError::EpcExhausted)?;
                if self.resident.contains(&candidate) {
                    break candidate;
                }
            };
            self.resident.remove(&victim);
            let version = self.next_version;
            self.next_version += 1;
            let mac = self.page_mac(victim, version);
            self.swapped.insert(victim, SwappedPage { version, mac });
            self.stats.ewb += 1;
            cost += Cycles::new(self.config.ewb);
            evicted = Some(victim);
        }
        self.resident.insert(page);
        self.fifo.push_back(page);
        Ok((cost, evicted))
    }

    fn page_mac(&self, page: u64, version: u64) -> [u8; DIGEST_LEN] {
        let mut msg = [0u8; 16];
        msg[..8].copy_from_slice(&page.to_le_bytes());
        msg[8..].copy_from_slice(&version.to_le_bytes());
        hmac_sha256(&self.paging_key, &msg)
    }

    /// Test hook: corrupt the stored MAC of a swapped-out page, modelling an
    /// OS that tampers with the evicted image.
    #[doc(hidden)]
    pub fn corrupt_swapped_page(&mut self, page: u64) -> bool {
        if let Some(s) = self.swapped.get_mut(&page) {
            s.mac[0] ^= 0xFF;
            true
        } else {
            false
        }
    }
}
