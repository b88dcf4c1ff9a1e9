//! The simulated machine: one virtual core, the cache hierarchy, the MEE,
//! the EPC, and every enclave. This is the facade the SDK layer, HotCalls,
//! applications and benchmarks drive.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::cache::{Hierarchy, ServedBy};
use crate::config::SimConfig;
use crate::cycles::{Clock, Cycles};
use crate::enclave::{Enclave, EnclaveId, EnclaveState, Secs, Tcs};
use crate::epc::{Epc, EpcStats};
use crate::error::{Result, SgxError};
use crate::mee::{AccessPattern, Mee};
use crate::mem::{Addr, AddrRange, AddressSpace, PAGE_SIZE, PRM_BASE};
use crate::tlb::Tlb;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read (load).
    Load,
    /// Write (store).
    Store,
}

/// Sizing of an enclave produced by [`Machine::build_enclave`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveBuildOptions {
    /// Bytes of trusted code (rounded up to pages).
    pub code_bytes: u64,
    /// Bytes of secure heap.
    pub heap_bytes: u64,
    /// Bytes of trusted stack per TCS.
    pub stack_bytes_per_tcs: u64,
    /// Number of Thread Control Structures.
    pub tcs_count: usize,
}

impl Default for EnclaveBuildOptions {
    fn default() -> Self {
        EnclaveBuildOptions {
            code_bytes: 64 * 1024,
            heap_bytes: 4 * 1024 * 1024,
            stack_bytes_per_tcs: 64 * 1024,
            tcs_count: 4,
        }
    }
}

/// Result of a timed measurement (see [`Machine::measure`]), mirroring the
/// paper's RDTSCP methodology including AEX detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Elapsed virtual cycles, including harness overhead and jitter.
    pub cycles: Cycles,
    /// Whether an Asynchronous Exit contaminated the run (the paper
    /// discards such measurements).
    pub aex: bool,
}

/// A snapshot of every model component's counters — the observability
/// surface for debugging cost anomalies and writing ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry {
    /// L1 data cache (hits, misses).
    pub l1: (u64, u64),
    /// L2 cache (hits, misses).
    pub l2: (u64, u64),
    /// Last-level cache (hits, misses).
    pub llc: (u64, u64),
    /// TLB (hits, misses).
    pub tlb: (u64, u64),
    /// MEE node cache (hits, misses).
    pub mee_cache: (u64, u64),
    /// EPC paging statistics.
    pub epc: EpcStats,
    /// Asynchronous exits observed (injected + sampled).
    pub aex_events: u64,
}

/// One-time lifecycle instruction costs (not on any hot path the paper
/// times, so plain constants rather than configuration).
const ECREATE_COST: u64 = 10_000;
const EADD_COST_PER_PAGE: u64 = 1_500;
const EEXTEND_COST_PER_CHUNK: u64 = 90;
const EINIT_COST: u64 = 50_000;

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use sgx_sim::{Machine, SimConfig, EnclaveBuildOptions};
///
/// # fn main() -> Result<(), sgx_sim::SgxError> {
/// let mut m = Machine::new(SimConfig::default());
/// let eid = m.build_enclave(EnclaveBuildOptions::default())?;
/// let tcs = 0;
/// m.eenter(eid, tcs)?;
/// m.eexit(eid, tcs)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    config: SimConfig,
    clock: Clock,
    rng: StdRng,
    caches: Hierarchy,
    mee: Mee,
    epc: Epc,
    space: AddressSpace,
    enclaves: BTreeMap<u64, Enclave>,
    next_enclave: u64,
    last_miss_line: Option<u64>,
    /// Untrusted lines the entry/exit paths touch (ocall table, saved AVX
    /// state, untrusted stack).
    untrusted_entry_lines: Vec<Addr>,
    tlb: Tlb,
    aex_events: u64,
    /// `2^64 mod (per_miss_jitter + 1)`: see [`Machine::miss_jitter`].
    miss_jitter_threshold: u64,
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(config: SimConfig) -> Self {
        let mut space = AddressSpace::new();
        let untrusted_entry_lines = {
            let base = space
                .alloc_regular(config.entry.regular_lines_touched * 64, 64)
                .expect("fresh arena cannot be exhausted");
            (0..config.entry.regular_lines_touched)
                .map(|i| base.offset(i * 64))
                .collect()
        };
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&config.seed.to_le_bytes());
        Machine {
            tlb: Tlb::new(config.tlb_entries),
            caches: Hierarchy::new(&config),
            mee: Mee::new(config.paging.epc_bytes, config.mee),
            epc: Epc::new(config.paging),
            space,
            enclaves: BTreeMap::new(),
            next_enclave: 1,
            last_miss_line: None,
            untrusted_entry_lines,
            aex_events: 0,
            miss_jitter_threshold: {
                let outcomes = config.noise.per_miss_jitter + 1;
                outcomes.wrapping_neg() % outcomes
            },
            rng: StdRng::from_seed(seed_bytes),
            clock: Clock::new(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Advances virtual time by `cost` (pure compute, no memory traffic).
    pub fn charge(&mut self, cost: Cycles) {
        self.clock.advance(cost);
    }

    /// Executes RDTSCP: charges its cost and returns the new timestamp.
    pub(crate) fn rdtscp(&mut self) -> Cycles {
        self.charge(Cycles::new(self.config.rdtscp / 2));
        self.now()
    }

    /// Attempts RDTSCP while executing inside an enclave. On SGX1
    /// production hardware this is illegal — "running RDTSCP inside the
    /// enclave generates a fault" (paper §3.1) — so the attempt #UDs,
    /// triggering an Asynchronous Exit. This is why all of the paper's
    /// measurements bracket whole round trips from the untrusted side.
    ///
    /// # Errors
    ///
    /// Always fails: [`SgxError::NotEntered`] if the TCS is not executing,
    /// otherwise [`SgxError::InvalidState`] after charging the AEX.
    pub fn rdtscp_in_enclave(&mut self, eid: EnclaveId, tcs: usize) -> Result<Cycles> {
        let busy = self
            .enclave(eid)?
            .tcs
            .get(tcs)
            .ok_or(SgxError::NoSuchTcs(tcs))?
            .busy;
        if !busy {
            return Err(SgxError::NotEntered);
        }
        self.inject_aex(eid, tcs)?;
        Err(SgxError::InvalidState {
            op: "RDTSCP",
            state: "executing in-enclave (SGX1 forbids the TSC family)",
        })
    }

    /// Executes MFENCE.
    pub fn mfence(&mut self) {
        self.charge(Cycles::new(self.config.mfence));
    }

    /// Executes PAUSE (spin-loop hint).
    pub fn pause(&mut self) {
        self.charge(Cycles::new(self.config.pause));
    }

    /// Allocates untrusted (plaintext) memory.
    ///
    /// # Panics
    ///
    /// Panics if the 1 GB untrusted arena is exhausted.
    pub fn alloc_untrusted(&mut self, size: u64, align: u64) -> Addr {
        self.space
            .alloc_regular(size, align)
            .expect("untrusted arena exhausted")
    }

    /// Allocates from an enclave's secure heap.
    ///
    /// # Errors
    ///
    /// Fails if the enclave does not exist or its heap is exhausted.
    pub fn alloc_enclave_heap(&mut self, eid: EnclaveId, size: u64, align: u64) -> Result<Addr> {
        self.enclave_mut(eid)?.alloc_heap(size, align)
    }

    /// Is the address inside the (virtual) EPC window?
    pub fn is_enclave_addr(&self, addr: Addr) -> bool {
        self.space.is_epc(addr)
    }

    /// SDK boundary check: entire span strictly outside enclave memory.
    pub fn span_outside_epc(&self, addr: Addr, len: u64) -> bool {
        self.space.span_outside_epc(addr, len)
    }

    /// SDK boundary check: entire span strictly inside enclave memory.
    pub fn span_in_epc(&self, addr: Addr, len: u64) -> bool {
        self.space.span_in_epc(addr, len)
    }

    /// Reads `len` bytes starting at `addr`, charging the cache/MEE model.
    /// Returns the cost (also already charged to the clock).
    ///
    /// # Errors
    ///
    /// Fails if the span touches EPC pages not committed to any enclave.
    pub fn read(&mut self, addr: Addr, len: u64) -> Result<Cycles> {
        self.access_span(addr, len, AccessKind::Load)
    }

    /// Writes `len` bytes starting at `addr`; see [`Machine::read`].
    ///
    /// # Errors
    ///
    /// Fails if the span touches EPC pages not committed to any enclave.
    pub fn write(&mut self, addr: Addr, len: u64) -> Result<Cycles> {
        self.access_span(addr, len, AccessKind::Store)
    }

    fn access_span(&mut self, addr: Addr, len: u64, kind: AccessKind) -> Result<Cycles> {
        if len == 0 {
            return Ok(Cycles::ZERO);
        }
        let line_size = self.caches.line_size();
        let last = self.caches.line_of(addr.get() + len - 1);
        let mut total = Cycles::ZERO;
        let mut line = self.caches.line_of(addr.get());
        loop {
            let page = Addr::new(line * line_size).page();
            let end = last.min(self.caches.line_of((page + 1) * PAGE_SIZE - 1));
            total += self.access_page(page, line, end, kind)?;
            if end == last {
                return Ok(total);
            }
            line = end + 1;
        }
    }

    /// Lines `first..=last`, all on `page`, through the full model. The
    /// first line probes the TLB, and the first that misses to DRAM in the
    /// EPC checks the page's residency; either leaves the page present, and
    /// a hit in the FIFO TLB or on a resident page changes nothing but a hit
    /// count, so the page's other lines only add to those counts.
    fn access_page(
        &mut self,
        page: u64,
        first: u64,
        last: u64,
        kind: AccessKind,
    ) -> Result<Cycles> {
        let mut tlb_cost = if self.tlb.touch(page) {
            Cycles::ZERO
        } else {
            Cycles::new(self.config.tlb_miss)
        };
        let in_epc = self.space.is_epc(Addr::new(page * PAGE_SIZE));
        let mut epc_misses = 0;
        let mut total = Cycles::ZERO;
        let mut line = first;
        let outcome = loop {
            let cost = match self.caches.access_line(line) {
                ServedBy::Memory => {
                    match self.miss_cost(line, kind, in_epc.then_some(&mut epc_misses)) {
                        Ok(cost) => cost,
                        Err(e) => break Err(e),
                    }
                }
                served => Cycles::new(self.caches.hit_latency(served).unwrap_or_default()),
            };
            if kind == AccessKind::Store {
                self.caches.mark_dirty(line);
            }
            total += tlb_cost + cost;
            tlb_cost = Cycles::ZERO;
            if line == last {
                break Ok(total);
            }
            line += 1;
        };
        if line > first {
            self.tlb.count_hits(line - first);
        }
        if epc_misses > 1 {
            self.epc.count_resident_hits(epc_misses - 1);
        }
        self.charge(total);
        outcome
    }

    /// Cost of a miss that reached DRAM, split by region and pattern.
    /// `epc_misses` counts the misses to this line's page so far in the
    /// span (`None` outside the EPC): the first checks the page's residency.
    ///
    /// Loads expose full DRAM (+MEE) latency. Store misses are absorbed by
    /// the store buffer: they cost only a few cycles here, and the real
    /// write-back price is charged when the line is forced out with
    /// `clflush` — exactly how the paper's write benchmark observes it.
    fn miss_cost(
        &mut self,
        line: u64,
        kind: AccessKind,
        epc_misses: Option<&mut u64>,
    ) -> Result<Cycles> {
        let streamed = self.last_miss_line == Some(line.wrapping_sub(1));
        self.last_miss_line = Some(line);
        let pattern = if streamed {
            AccessPattern::Streamed
        } else {
            AccessPattern::Demand
        };

        let mut cost = Cycles::ZERO;
        let line_addr = Addr::new(line * self.caches.line_size());
        let in_epc = epc_misses.is_some();
        if let Some(misses) = epc_misses {
            // Residency first: a paged-out page costs a fault + ELDU (+EWB).
            // Page faults cannot be hidden by the store buffer.
            if *misses == 0 {
                cost += self.epc.touch(line_addr.page())?.cost;
            }
            *misses += 1;
        }

        match kind {
            AccessKind::Load => {
                cost += match pattern {
                    AccessPattern::Streamed => Cycles::new(self.config.dram_stream),
                    AccessPattern::Demand => Cycles::new(self.config.dram_random),
                };
                if in_epc {
                    let epc_line = (line_addr.get() - PRM_BASE) / 64;
                    cost += self.mee.load_cost(epc_line, pattern);
                }
                if pattern == AccessPattern::Demand {
                    cost += self.miss_jitter();
                }
            }
            AccessKind::Store => {
                cost += Cycles::new(self.config.store_buffer);
            }
        }
        Ok(cost)
    }

    /// Cost of forcing a dirty line out to memory.
    fn writeback_cost(&mut self, line_addr: Addr, pattern: AccessPattern) -> Cycles {
        let mut cost = match pattern {
            AccessPattern::Streamed => Cycles::new(self.config.writeback_stream),
            AccessPattern::Demand => Cycles::new(self.config.writeback_demand),
        };
        if self.space.is_epc(line_addr) {
            let epc_line = (line_addr.get() - PRM_BASE) / 64;
            // Demand write-backs already carry the MEE's store_extra inside
            // `Mee::writeback_cost`.
            cost += self.mee.writeback_cost(epc_line, pattern);
        }
        if pattern == AccessPattern::Demand {
            cost += self.miss_jitter();
        }
        cost
    }

    /// Per-miss jitter (row buffer, scheduling): the draw of
    /// `gen_range(0..=per_miss_jitter)`, none if that is 0. The vendored
    /// `gen_range` rejects a widened multiply whose low word is below
    /// `miss_jitter_threshold`, which it recomputes with a division on every
    /// call; the same loop over the stored threshold draws the same values.
    fn miss_jitter(&mut self) -> Cycles {
        let jitter = self.config.noise.per_miss_jitter;
        if jitter == 0 {
            return Cycles::ZERO;
        }
        loop {
            let m = u128::from(self.rng.next_u64()) * u128::from(jitter + 1);
            if m as u64 >= self.miss_jitter_threshold {
                return Cycles::new((m >> 64) as u64);
            }
        }
    }

    /// Flushes the line containing `addr` from the whole hierarchy, paying
    /// the demand write-back price if it was dirty.
    pub fn clflush(&mut self, addr: Addr) {
        let line = self.caches.line_of(addr.get());
        self.caches.clflush(addr.get());
        if self.caches.clear_dirty(line) {
            let wb = self.writeback_cost(addr, AccessPattern::Demand);
            self.charge(wb);
        }
        self.charge(Cycles::new(5));
    }

    /// Flushes every line of `[addr, addr+len)`, paying streamed write-back
    /// costs for dirty lines (the write benchmark's flush loop).
    pub fn clflush_span(&mut self, addr: Addr, len: u64) {
        let line_size = self.caches.line_size();
        let first = self.caches.line_of(addr.get());
        let last = self.caches.line_of(addr.get() + len.max(1) - 1);
        for line in first..=last {
            self.caches.clflush(line * line_size);
            if self.caches.clear_dirty(line) {
                let wb = self.writeback_cost(Addr::new(line * line_size), AccessPattern::Streamed);
                self.charge(wb);
            }
        }
        self.charge(Cycles::new(5 * (last - first + 1)));
    }

    /// Flushes the entire cache hierarchy *and* the MEE node cache — the
    /// paper's cold-cache setup (flushing 8 MB of LLC displaces the MEE's
    /// internal state too).
    pub fn flush_all_caches(&mut self) {
        self.caches.flush_all();
        self.mee.reset_cache();
        self.tlb.flush();
        self.last_miss_line = None;
    }

    /// Breaks the streaming-detector state (call between independent
    /// experiments so one sweep does not appear to continue another).
    pub fn reset_stream_detector(&mut self) {
        self.last_miss_line = None;
    }

    // ----- Enclave lifecycle -------------------------------------------------

    /// ECREATE: allocates the SECS and opens a building enclave with `pages`
    /// regular pages of committed span (code + data + heap + stacks).
    ///
    /// # Errors
    ///
    /// Fails if the EPC virtual window is exhausted.
    pub(crate) fn ecreate(&mut self, pages: u64) -> Result<EnclaveId> {
        let id = EnclaveId(self.next_enclave);
        // SECS page + requested pages.
        let (base, paging_cost) = self.epc.commit(id.0, pages + 1)?;
        self.charge(paging_cost + Cycles::new(ECREATE_COST));
        let secs = Secs {
            addr: base,
            base: base.offset(PAGE_SIZE),
        };
        // The heap is carved later by `build_enclave`; raw ecreate leaves the
        // whole span heap-addressable after its first page of entry code.
        let heap = AddrRange::new(
            base.offset(2 * PAGE_SIZE),
            base.offset((pages + 1) * PAGE_SIZE),
        );
        let enclave = Enclave::new(secs, heap, base.offset(PAGE_SIZE));
        self.enclaves.insert(id.0, enclave);
        self.next_enclave += 1;
        Ok(id)
    }

    /// EADD + implicit EEXTENDs: adds `content` to the enclave at
    /// `offset` pages from its base, charged per page and per 256-B chunk.
    ///
    /// # Errors
    ///
    /// Fails if the enclave does not exist or is already initialized.
    pub(crate) fn eadd(
        &mut self,
        eid: EnclaveId,
        page_offset: u64,
        content: &[u8],
    ) -> Result<Addr> {
        let enclave = self.enclave(eid)?;
        enclave.record_eadd()?;
        let n_chunks = content.len().div_ceil(256) as u64;
        let addr = enclave.secs.base.offset(page_offset * PAGE_SIZE);
        self.charge(Cycles::new(
            EADD_COST_PER_PAGE + n_chunks * EEXTEND_COST_PER_CHUNK,
        ));
        Ok(addr)
    }

    /// Registers a TCS (and its SSA + stack region) with the enclave.
    ///
    /// # Errors
    ///
    /// Fails if the enclave does not exist or is initialized.
    pub(crate) fn add_tcs(&mut self, eid: EnclaveId, tcs: Tcs) -> Result<usize> {
        let enclave = self
            .enclaves
            .get_mut(&eid.0)
            .ok_or(SgxError::NoSuchEnclave(eid.0))?;
        enclave.require_building("EADD(TCS)")?;
        enclave.tcs.push(tcs);
        Ok(enclave.tcs.len() - 1)
    }

    /// EINIT: the enclave becomes enterable.
    ///
    /// # Errors
    ///
    /// Fails if the enclave does not exist or was already initialized.
    pub(crate) fn einit(&mut self, eid: EnclaveId) -> Result<()> {
        self.charge(Cycles::new(EINIT_COST));
        self.enclave_mut(eid)?.initialize()
    }

    /// Convenience: full ECREATE/EADD/EEXTEND/EINIT flow with a standard
    /// layout (entry trampoline, code, per-TCS SSA+stack, heap).
    ///
    /// # Errors
    ///
    /// Propagates any lifecycle failure.
    pub fn build_enclave(&mut self, opts: EnclaveBuildOptions) -> Result<EnclaveId> {
        let code_pages = opts.code_bytes.div_ceil(PAGE_SIZE).max(1);
        let stack_pages = opts.stack_bytes_per_tcs.div_ceil(PAGE_SIZE).max(1);
        let heap_pages = opts.heap_bytes.div_ceil(PAGE_SIZE).max(1);
        let per_tcs_pages = 1 + 2 + stack_pages; // TCS + 2 SSA pages + stack
        let total = 1 + code_pages + opts.tcs_count as u64 * per_tcs_pages + heap_pages;

        let eid = self.ecreate(total)?;
        let base = self.enclave(eid)?.secs.base;

        // Entry trampoline + code.
        for p in 0..code_pages {
            // One 256-B chunk of "code" per page: one EEXTEND charged.
            self.eadd(eid, 1 + p, &[0x90u8; 256])?;
        }
        // TCS areas.
        let mut next_page = 1 + code_pages;
        for _ in 0..opts.tcs_count {
            let tcs_addr = base.offset(next_page * PAGE_SIZE);
            self.eadd(eid, next_page, &[])?;
            let ssa = base.offset((next_page + 1) * PAGE_SIZE);
            self.eadd(eid, next_page + 1, &[])?;
            self.eadd(eid, next_page + 2, &[])?;
            let stack = base.offset((next_page + 3) * PAGE_SIZE);
            for sp in 0..stack_pages {
                self.eadd(eid, next_page + 3 + sp, &[])?;
            }
            self.add_tcs(
                eid,
                Tcs {
                    addr: tcs_addr,
                    ssa,
                    stack,
                    busy: false,
                    interrupted: false,
                },
            )?;
            next_page += per_tcs_pages;
        }
        // Heap.
        for hp in 0..heap_pages {
            self.eadd(eid, next_page + hp, &[])?;
        }
        let heap_range = AddrRange::new(
            base.offset(next_page * PAGE_SIZE),
            base.offset((next_page + heap_pages) * PAGE_SIZE),
        );
        self.enclave_mut(eid)?.set_heap(heap_range);
        self.einit(eid)?;
        Ok(eid)
    }

    /// Immutable access to an enclave.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown.
    pub fn enclave(&self, eid: EnclaveId) -> Result<&Enclave> {
        self.enclaves
            .get(&eid.0)
            .ok_or(SgxError::NoSuchEnclave(eid.0))
    }

    /// Mutable access to an enclave.
    ///
    /// # Errors
    ///
    /// Fails if the id is unknown.
    pub(crate) fn enclave_mut(&mut self, eid: EnclaveId) -> Result<&mut Enclave> {
        self.enclaves
            .get_mut(&eid.0)
            .ok_or(SgxError::NoSuchEnclave(eid.0))
    }

    // ----- Entry / exit -------------------------------------------------------

    /// EENTER on `tcs`: performs the secure context switch into the enclave.
    /// Returns the cycles charged.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is not initialized, the TCS does not exist, or
    /// the TCS is already executing.
    pub fn eenter(&mut self, eid: EnclaveId, tcs: usize) -> Result<Cycles> {
        self.transition(eid, tcs, Transition::Eenter)
    }

    /// EEXIT from `tcs`: the reverse context switch.
    ///
    /// # Errors
    ///
    /// Fails if the enclave/TCS is not currently entered.
    pub fn eexit(&mut self, eid: EnclaveId, tcs: usize) -> Result<Cycles> {
        self.transition(eid, tcs, Transition::Eexit)
    }

    /// ERESUME after an AEX.
    ///
    /// # Errors
    ///
    /// Fails unless the TCS has a preserved SSA frame.
    pub fn eresume(&mut self, eid: EnclaveId, tcs: usize) -> Result<Cycles> {
        self.transition(eid, tcs, Transition::Eresume)
    }

    /// Injects an Asynchronous Exit on a currently executing TCS.
    ///
    /// # Errors
    ///
    /// Fails unless the TCS is busy.
    pub fn inject_aex(&mut self, eid: EnclaveId, tcs: usize) -> Result<Cycles> {
        let c = self.transition(eid, tcs, Transition::Aex)?;
        self.aex_events += 1;
        Ok(c)
    }

    fn transition(&mut self, eid: EnclaveId, tcs: usize, t: Transition) -> Result<Cycles> {
        let start = self.now();
        // Validate state and collect the EPC footprint.
        let footprint = {
            let enclave = self.enclave_mut(eid)?;
            if enclave.state != EnclaveState::Initialized {
                return Err(SgxError::InvalidState {
                    op: t.name(),
                    state: enclave.state.name(),
                });
            }
            let footprint = enclave.entry_footprint(tcs)?;
            let slot = &mut enclave.tcs[tcs]; // the footprint vouches for `tcs`
            match t {
                Transition::Eenter => {
                    if slot.busy {
                        return Err(SgxError::AlreadyEntered);
                    }
                    slot.busy = true;
                }
                Transition::Eexit => {
                    if !slot.busy {
                        return Err(SgxError::NotEntered);
                    }
                    slot.busy = false;
                    slot.interrupted = false;
                }
                Transition::Eresume => {
                    if !slot.interrupted {
                        return Err(SgxError::NotEntered);
                    }
                    slot.interrupted = false;
                }
                Transition::Aex => {
                    if !slot.busy {
                        return Err(SgxError::NotEntered);
                    }
                    slot.interrupted = true;
                }
            }
            footprint
        };

        let base = match t {
            Transition::Eenter => self.config.entry.eenter_base,
            Transition::Eexit => self.config.entry.eexit_base,
            Transition::Eresume => self.config.entry.eresume_base,
            Transition::Aex => self.config.entry.aex_base,
        };
        self.charge(Cycles::new(base));

        // Microcode memory traffic. EENTER/ERESUME touch the full
        // footprint; EEXIT/AEX rewrite the SSA-and-stack half of it. All
        // accesses expose full latency: the serializing microcode cannot
        // hide its stores in the store buffer.
        let epc_share = match t {
            Transition::Eenter | Transition::Eresume => footprint.len(),
            Transition::Eexit | Transition::Aex => footprint.len() / 2,
        };
        // The structure lines are demand accesses, not a stream.
        self.reset_stream_detector();
        for &addr in &footprint[..epc_share] {
            self.access_span(addr, 1, AccessKind::Load)?;
            self.reset_stream_detector();
        }
        let untrusted_share = match t {
            Transition::Eenter | Transition::Eexit => self.untrusted_entry_lines.len(),
            _ => self.untrusted_entry_lines.len().min(2),
        };
        for i in 0..untrusted_share {
            self.access_span(self.untrusted_entry_lines[i], 1, AccessKind::Load)?;
            self.reset_stream_detector();
        }
        Ok(self.now() - start)
    }

    // ----- Measurement harness ------------------------------------------------

    /// Times a closure the way the paper does: RDTSCP before and after, a
    /// jitter term, and probabilistic AEX contamination that callers should
    /// discard (reported in [`Measured::aex`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from the closure.
    pub fn measure<F>(&mut self, f: F) -> Result<Measured>
    where
        F: FnOnce(&mut Machine) -> Result<()>,
    {
        let start = self.rdtscp();
        f(self)?;
        let aex = self.config.noise.aex_probability > 0.0
            && self.rng.gen_bool(self.config.noise.aex_probability);
        if aex {
            self.charge(Cycles::new(self.config.noise.aex_penalty));
            self.aex_events += 1;
        }
        if self.config.noise.jitter > 0 {
            let j = self.rng.gen_range(0..=self.config.noise.jitter);
            self.charge(Cycles::new(j));
        }
        let end = self.rdtscp();
        Ok(Measured {
            cycles: end - start,
            aex,
        })
    }

    /// Number of AEX events (injected + sampled) so far.
    pub fn aex_events(&self) -> u64 {
        self.aex_events
    }

    // ----- Statistics -----------------------------------------------------------

    /// EPC paging statistics.
    pub fn epc_stats(&self) -> EpcStats {
        self.epc.stats()
    }

    /// A full counter snapshot across every model component.
    pub fn telemetry(&self) -> Telemetry {
        let [l1, l2, llc] = self.caches.level_stats();
        Telemetry {
            l1,
            l2,
            llc,
            tlb: self.tlb.stats(),
            mee_cache: self.mee.cache_stats(),
            epc: self.epc.stats(),
            aex_events: self.aex_events,
        }
    }

    /// Samples the per-measurement jitter distribution (exposed for layered
    /// cost models like HotCalls' poll-delay).
    pub fn sample_uniform(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng.gen_range(0..=bound)
        }
    }

    /// Samples a boolean with probability `p` (for AEX-like events in
    /// layered models).
    pub fn sample_bool(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transition {
    Eenter,
    Eexit,
    Eresume,
    Aex,
}

impl Transition {
    fn name(self) -> &'static str {
        match self {
            Transition::Eenter => "EENTER",
            Transition::Eexit => "EEXIT",
            Transition::Eresume => "ERESUME",
            Transition::Aex => "AEX",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(SimConfig::builder().deterministic().build())
    }

    #[test]
    fn untrusted_reads_hit_after_first_access() {
        let mut m = machine();
        let a = m.alloc_untrusted(4096, 64);
        let first = m.read(a, 64).unwrap();
        let second = m.read(a, 64).unwrap();
        assert!(first > second);
        assert_eq!(second, Cycles::new(m.config().l1.hit_latency));
    }

    #[test]
    fn enclave_reads_cost_more_than_plain_on_miss() {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let enc = m.alloc_enclave_heap(eid, 64, 64).unwrap();
        let plain = m.alloc_untrusted(64, 64);
        // Make both demand misses.
        m.flush_all_caches();
        let enc_cost = m.read(enc, 8).unwrap();
        m.reset_stream_detector();
        let plain_cost = m.read(plain, 8).unwrap();
        assert!(
            enc_cost > plain_cost,
            "EPC read {enc_cost} must exceed plain {plain_cost}"
        );
    }

    #[test]
    fn eenter_requires_initialized_enclave() {
        let mut m = machine();
        let eid = m.ecreate(16).unwrap();
        assert!(matches!(
            m.eenter(eid, 0),
            Err(SgxError::InvalidState { op: "EENTER", .. })
        ));
    }

    #[test]
    fn enter_exit_roundtrip_and_busy_tracking() {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        m.eenter(eid, 0).unwrap();
        assert!(matches!(m.eenter(eid, 0), Err(SgxError::AlreadyEntered)));
        m.eexit(eid, 0).unwrap();
        assert!(matches!(m.eexit(eid, 0), Err(SgxError::NotEntered)));
    }

    #[test]
    fn cold_entry_costs_more_than_warm() {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        // Warm up.
        for _ in 0..4 {
            m.eenter(eid, 0).unwrap();
            m.eexit(eid, 0).unwrap();
        }
        let warm_start = m.now();
        m.eenter(eid, 0).unwrap();
        m.eexit(eid, 0).unwrap();
        let warm = m.now() - warm_start;

        m.flush_all_caches();
        let cold_start = m.now();
        m.eenter(eid, 0).unwrap();
        m.eexit(eid, 0).unwrap();
        let cold = m.now() - cold_start;
        assert!(
            cold.get() as f64 > warm.get() as f64 * 1.3,
            "cold {cold} must be well above warm {warm}"
        );
    }

    #[test]
    fn built_enclave_refuses_eadd() {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        assert!(matches!(
            m.eadd(eid, 1, &[0u8; 256]),
            Err(SgxError::InvalidState { op: "EADD", .. })
        ));
    }

    #[test]
    fn aex_then_eresume() {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        m.eenter(eid, 0).unwrap();
        assert!(matches!(m.eresume(eid, 0), Err(SgxError::NotEntered)));
        m.inject_aex(eid, 0).unwrap();
        m.eresume(eid, 0).unwrap();
        m.eexit(eid, 0).unwrap();
        assert_eq!(m.aex_events(), 1);
    }

    #[test]
    fn measure_reports_elapsed_cycles() {
        let mut m = machine();
        let r = m
            .measure(|m| {
                m.charge(Cycles::new(1_000));
                Ok(())
            })
            .unwrap();
        assert!(!r.aex);
        assert!(r.cycles >= Cycles::new(1_000));
        assert!(r.cycles < Cycles::new(1_200));
    }

    #[test]
    fn overcommitted_heap_pages_thrash() {
        let mut m = Machine::new(
            SimConfig::builder()
                .deterministic()
                .epc_bytes(64 * PAGE_SIZE)
                .build(),
        );
        let eid = m
            .build_enclave(EnclaveBuildOptions {
                code_bytes: PAGE_SIZE,
                heap_bytes: 80 * PAGE_SIZE,
                stack_bytes_per_tcs: PAGE_SIZE,
                tcs_count: 1,
            })
            .unwrap();
        let heap = m
            .alloc_enclave_heap(eid, 70 * PAGE_SIZE, PAGE_SIZE)
            .unwrap();
        // Sweep the heap twice; the second sweep still page-faults.
        for _ in 0..2 {
            for p in 0..70 {
                m.read(heap.offset(p * PAGE_SIZE), 8).unwrap();
            }
        }
        assert!(m.epc_stats().eldu > 0, "overcommit must trigger paging");
    }

    #[test]
    fn uncommitted_epc_access_is_rejected() {
        let mut m = machine();
        let err = m.read(Addr::new(PRM_BASE + (1 << 29)), 8);
        assert!(matches!(err, Err(SgxError::NotEnclaveMemory(_))));
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    #[test]
    fn telemetry_counts_every_component() {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let enc = m.alloc_enclave_heap(eid, 4096, 64).unwrap();
        m.read(enc, 4096).unwrap();
        m.read(enc, 4096).unwrap(); // warm pass
        let t = m.telemetry();
        assert!(t.l1.0 > 0, "warm pass must hit L1");
        assert!(t.llc.1 > 0, "cold pass must miss LLC");
        assert!(t.tlb.1 > 0, "first touch misses the TLB");
        assert!(t.mee_cache.0 + t.mee_cache.1 > 0, "EPC reads walk the tree");
    }
}

#[cfg(test)]
mod rdtscp_tests {
    use super::*;

    #[test]
    fn rdtscp_inside_enclave_faults_with_aex() {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        m.eenter(eid, 0).unwrap();
        let before_aex = m.aex_events();
        let err = m.rdtscp_in_enclave(eid, 0).unwrap_err();
        assert!(matches!(err, SgxError::InvalidState { op: "RDTSCP", .. }));
        assert_eq!(m.aex_events(), before_aex + 1);
        // The enclave can resume and exit normally afterwards.
        m.eresume(eid, 0).unwrap();
        m.eexit(eid, 0).unwrap();
    }

    #[test]
    fn rdtscp_outside_enclave_is_fine_and_in_idle_tcs_is_not_entered() {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let _ = m.rdtscp(); // untrusted RDTSCP always works
        assert!(matches!(
            m.rdtscp_in_enclave(eid, 0),
            Err(SgxError::NotEntered)
        ));
    }
}

/// `Machine` against the access path of commit e06e1df rebuilt from the
/// [`crate::reference`] structures: same virtual time and same counters
/// after any stream of operations.
#[cfg(test)]
mod reference_tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

    use super::*;
    use crate::mee::NodeId;
    use crate::reference::{epc, mee_cache, set_assoc, tlb};

    /// The memory model and EENTER/EEXIT of the old `Machine`, verbatim but
    /// for the enclave bookkeeping, which the mirrored machine supplies.
    struct RefMachine {
        config: SimConfig,
        now: Cycles,
        rng: StdRng,
        levels: [set_assoc::SetAssocCache; 3],
        dirty: HashSet<u64>,
        tlb: tlb::Tlb,
        mee_cache: mee_cache::MeeCache,
        mee_levels: u8,
        epc: epc::Epc,
        last_miss_line: Option<u64>,
        footprint: Vec<Addr>,
        untrusted_entry_lines: Vec<Addr>,
    }

    impl RefMachine {
        /// Mirrors a machine that has built enclave `eid` and done nothing
        /// else (building draws no random numbers and touches no cache).
        fn mirror(m: &Machine, eid: EnclaveId) -> Self {
            let config = m.config.clone();
            let mut seed_bytes = [0u8; 32];
            seed_bytes[..8].copy_from_slice(&config.seed.to_le_bytes());
            let first_page = PRM_BASE / PAGE_SIZE;
            let committed = (first_page..)
                .take_while(|&p| m.epc.is_committed(p))
                .count();
            let mut epc = epc::Epc::new(config.paging);
            epc.commit(eid.0, committed as u64).unwrap();
            RefMachine {
                now: m.now(),
                rng: StdRng::from_seed(seed_bytes),
                levels: [&config.l1, &config.l2, &config.llc].map(set_assoc::SetAssocCache::new),
                dirty: HashSet::new(),
                tlb: tlb::Tlb::new(config.tlb_entries),
                mee_cache: mee_cache::MeeCache::with_policy(
                    config.mee.cache_entries,
                    mee_cache::Replacement::Random(0x4D45_4531),
                ),
                mee_levels: m.mee.tree().levels(),
                epc,
                last_miss_line: None,
                footprint: m.enclave(eid).unwrap().entry_footprint(0).unwrap().to_vec(),
                untrusted_entry_lines: m.untrusted_entry_lines.clone(),
                config,
            }
        }

        fn access_span(&mut self, addr: Addr, len: u64, kind: AccessKind) -> Result<Cycles> {
            let first = addr.get() / 64;
            let last = (addr.get() + len - 1) / 64;
            let mut total = Cycles::ZERO;
            for line in first..=last {
                total += self.access_line(Addr::new(line * 64), kind)?;
            }
            Ok(total)
        }

        fn access_line(&mut self, line_addr: Addr, kind: AccessKind) -> Result<Cycles> {
            let line = line_addr.get() / 64;
            let mut cost = Cycles::ZERO;
            if !self.tlb.touch(line_addr.page()) {
                cost = Cycles::new(self.config.tlb_miss);
            }
            let [l1, l2, llc] = &mut self.levels;
            cost += if l1.probe(line) {
                Cycles::new(self.config.l1.hit_latency)
            } else if l2.probe(line) {
                l1.insert(line);
                Cycles::new(self.config.l2.hit_latency)
            } else if llc.probe(line) {
                l2.insert(line);
                l1.insert(line);
                Cycles::new(self.config.llc.hit_latency)
            } else {
                llc.insert(line);
                l2.insert(line);
                l1.insert(line);
                self.miss_cost(line_addr, line, kind)?
            };
            if kind == AccessKind::Store {
                self.dirty.insert(line);
            }
            self.now += cost;
            Ok(cost)
        }

        fn in_epc(addr: Addr) -> bool {
            (PRM_BASE..PRM_BASE + crate::mem::EPC_WINDOW).contains(&addr.get())
        }

        fn jitter(&mut self) -> Cycles {
            if self.config.noise.per_miss_jitter > 0 {
                Cycles::new(self.rng.gen_range(0..=self.config.noise.per_miss_jitter))
            } else {
                Cycles::ZERO
            }
        }

        /// Old `Mee::walk`: the path collected, then probed bottom-up.
        fn walk(&mut self, line: u64) -> u64 {
            let arity = self.config.mee.arity;
            let path: Vec<NodeId> = (0..self.mee_levels)
                .map(|level| NodeId {
                    level,
                    index: line / arity.pow(u32::from(level) + 1),
                })
                .collect();
            let mut fetched = 0;
            for node in path {
                if self.mee_cache.probe(node) {
                    break;
                }
                self.mee_cache.insert(node);
                fetched += 1;
            }
            fetched
        }

        fn miss_cost(&mut self, line_addr: Addr, line: u64, kind: AccessKind) -> Result<Cycles> {
            let streamed = self.last_miss_line == Some(line.wrapping_sub(1));
            self.last_miss_line = Some(line);
            let mut cost = Cycles::ZERO;
            let in_epc = Self::in_epc(line_addr);
            if in_epc {
                cost += self.epc.touch(line_addr.page())?.cost;
            }
            match kind {
                AccessKind::Load => {
                    cost += Cycles::new(if streamed {
                        self.config.dram_stream
                    } else {
                        self.config.dram_random
                    });
                    if in_epc {
                        let fetched = self.walk((line_addr.get() - PRM_BASE) / 64);
                        let crypto = if streamed {
                            self.config.mee.crypto_stream
                        } else {
                            self.config.mee.crypto_load
                        };
                        cost += Cycles::new(crypto + fetched * self.config.mee.node_fetch);
                    }
                    if !streamed {
                        cost += self.jitter();
                    }
                }
                AccessKind::Store => cost += Cycles::new(self.config.store_buffer),
            }
            Ok(cost)
        }

        fn writeback_cost(&mut self, line_addr: Addr, streamed: bool) -> Cycles {
            let mee = self.config.mee;
            let mut cost = Cycles::new(if streamed {
                self.config.writeback_stream
            } else {
                self.config.writeback_demand
            });
            if Self::in_epc(line_addr) {
                let l0 = NodeId {
                    level: 0,
                    index: (line_addr.get() - PRM_BASE) / 64 / mee.arity,
                };
                let refresh = if self.mee_cache.probe(l0) {
                    0
                } else {
                    self.mee_cache.insert(l0);
                    mee.node_fetch
                };
                let extra = if streamed { 0 } else { mee.store_extra };
                cost += Cycles::new(mee.crypto_writeback + extra + refresh);
            }
            if !streamed {
                cost += self.jitter();
            }
            cost
        }

        fn clflush_span(&mut self, addr: Addr, len: u64, streamed: bool) {
            let first = addr.get() / 64;
            let last = (addr.get() + len.max(1) - 1) / 64;
            for line in first..=last {
                for level in &mut self.levels {
                    level.invalidate(line);
                }
                if self.dirty.remove(&line) {
                    let wb = self.writeback_cost(Addr::new(line * 64), streamed);
                    self.now += wb;
                }
            }
            self.now += Cycles::new(5 * (last - first + 1));
        }

        fn flush_all_caches(&mut self) {
            for level in &mut self.levels {
                level.clear();
            }
            self.dirty.clear();
            self.mee_cache.clear();
            self.tlb.flush();
            self.last_miss_line = None;
        }

        fn transition(&mut self, enter: bool) -> Result<Cycles> {
            let start = self.now;
            let entry = self.config.entry;
            let (base, epc_share) = if enter {
                (entry.eenter_base, self.footprint.len())
            } else {
                (entry.eexit_base, self.footprint.len() / 2)
            };
            self.now += Cycles::new(base);
            let lines: Vec<Addr> = self.footprint[..epc_share]
                .iter()
                .chain(&self.untrusted_entry_lines)
                .copied()
                .collect();
            for addr in lines {
                self.last_miss_line = None;
                self.access_line(addr, AccessKind::Load)?;
            }
            self.last_miss_line = None;
            Ok(self.now - start)
        }

        fn telemetry(&self) -> Telemetry {
            let [l1, l2, llc] = &self.levels;
            Telemetry {
                l1: l1.stats(),
                l2: l2.stats(),
                llc: llc.stats(),
                tlb: self.tlb.stats(),
                mee_cache: self.mee_cache.stats(),
                epc: self.epc.stats(),
                aex_events: 0,
            }
        }
    }

    /// Runs `ops` on a machine with `epc_pages` of EPC and on its mirror,
    /// comparing after every operation. Spans are at most `max_len` bytes;
    /// with `spans`, every other read is at once read again and the
    /// counters are compared after every operation, not only at the end.
    fn run(seed: u64, epc_pages: u64, ops: &[(u8, bool, u64, u64)], max_len: u64, spans: bool) {
        const REGION: u64 = 96 * PAGE_SIZE;
        let mut m = Machine::new(
            SimConfig::builder()
                .seed(seed)
                .epc_bytes(epc_pages * PAGE_SIZE)
                .build(),
        );
        let eid = m
            .build_enclave(EnclaveBuildOptions {
                code_bytes: PAGE_SIZE,
                heap_bytes: REGION,
                stack_bytes_per_tcs: PAGE_SIZE,
                tcs_count: 1,
            })
            .unwrap();
        let mut r = RefMachine::mirror(&m, eid);
        let enc = m.alloc_enclave_heap(eid, REGION, PAGE_SIZE).unwrap();
        let plain = m.alloc_untrusted(REGION, PAGE_SIZE);
        let mut inside = false;
        for &(op, in_enclave, offset, len) in ops {
            let addr = if in_enclave { enc } else { plain }.offset(offset % (REGION - max_len));
            match op {
                0..=5 => {
                    let rereads = if spans && op % 2 == 0 { 2 } else { 1 };
                    for _ in 0..rereads {
                        assert_eq!(
                            m.read(addr, len),
                            r.access_span(addr, len, AccessKind::Load)
                        );
                    }
                }
                6..=9 => assert_eq!(
                    m.write(addr, len),
                    r.access_span(addr, len, AccessKind::Store)
                ),
                10 => {
                    m.clflush(addr);
                    r.clflush_span(addr, 1, false);
                }
                11 => {
                    m.clflush_span(addr, len);
                    r.clflush_span(addr, len, true);
                }
                12 if len < 40 => {
                    m.flush_all_caches();
                    r.flush_all_caches();
                }
                _ => {
                    inside = !inside;
                    let cycles = if inside {
                        m.eenter(eid, 0)
                    } else {
                        m.eexit(eid, 0)
                    };
                    assert_eq!(cycles, r.transition(inside));
                }
            }
            assert_eq!(m.now(), r.now);
            if spans {
                assert_eq!(m.telemetry(), r.telemetry());
                assert_eq!(m.epc_stats(), r.epc.stats());
            }
        }
        assert_eq!(m.telemetry(), r.telemetry());
        assert_eq!(m.epc_stats(), r.epc.stats());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn machine_matches_reference(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..14, any::<bool>(), any::<u64>(), 1u64..600), 1..400),
        ) {
            run(seed, 4096, &ops, 600, false);
        }

        /// 96 + 8 pages committed to 48 of EPC: the stream pages in and
        /// out throughout.
        #[test]
        fn overcommitted_machine_matches_reference(
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..14, any::<bool>(), any::<u64>(), 1u64..600), 1..400),
        ) {
            run(seed, 48, &ops, 600, false);
        }

        /// Spans of 1 B to 12 KiB, which cross pages and 8-line MEE groups
        /// (the span path's per-page TLB probe and residency check, the
        /// node cache's leaf memo), every other read read again at once
        /// (the L1-hit path), on an EPC that does and one that does not
        /// page; the counters are compared after every operation.
        #[test]
        fn long_spans_match_reference(
            seed in any::<u64>(),
            overcommitted in any::<bool>(),
            ops in proptest::collection::vec((0u8..14, any::<bool>(), any::<u64>(), 1u64..=12 << 10), 1..200),
        ) {
            run(seed, if overcommitted { 48 } else { 4096 }, &ops, 12 << 10, true);
        }
    }
}
