//! The three-level cache hierarchy (L1D / L2 / LLC) of the simulated core.
//!
//! The hierarchy resolves an access to the level that serves it and installs
//! the line on the way back down (fill on miss). Costs are *not* computed
//! here — the memory engine combines the hierarchy outcome with the DRAM/MEE
//! model — so the hierarchy stays a pure state machine that is easy to test.

use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::mem::BlockSet;

use super::set_assoc::SetAssocCache;

/// Which component ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ServedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the shared last-level cache.
    Llc,
    /// Missed everywhere; served by DRAM (possibly through the MEE).
    Memory,
}

/// L1/L2/LLC tag hierarchy with fill-on-miss and whole-hierarchy flush.
#[derive(Debug, Clone)]
pub(crate) struct Hierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SetAssocCache,
    dirty: BlockSet,
    /// log2 of the line size: a line number is an address shifted right.
    line_bits: u32,
    l1_hit: u64,
    l2_hit: u64,
    llc_hit: u64,
}

impl Hierarchy {
    /// Builds the hierarchy described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two.
    pub(crate) fn new(config: &SimConfig) -> Self {
        assert!(
            config.l1.line.is_power_of_two(),
            "line size must be a power of two"
        );
        Hierarchy {
            l1: SetAssocCache::new(&config.l1),
            l2: SetAssocCache::new(&config.l2),
            llc: SetAssocCache::new(&config.llc),
            dirty: BlockSet::new(config.l1.line),
            line_bits: config.l1.line.trailing_zeros(),
            l1_hit: config.l1.hit_latency,
            l2_hit: config.l2.hit_latency,
            llc_hit: config.llc.hit_latency,
        }
    }

    /// Marks a line dirty (a store touched it). Write-back cost is charged
    /// when the line is *forced* out (clflush + fence), matching how store
    /// buffers hide write-miss latency on real hardware.
    pub(crate) fn mark_dirty(&mut self, line: u64) {
        self.dirty.insert(line);
    }

    /// Clears a line's dirty bit, reporting whether it was set.
    pub(crate) fn clear_dirty(&mut self, line: u64) -> bool {
        self.dirty.remove(line)
    }

    /// Cache line size in bytes.
    pub(crate) fn line_size(&self) -> u64 {
        1 << self.line_bits
    }

    /// Converts a byte address to a line number.
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// Performs one line-granular access: returns the serving level and
    /// installs the line in every level above it.
    pub(crate) fn access_line(&mut self, line: u64) -> ServedBy {
        if self.l1.access(line) {
            ServedBy::L1
        } else if self.l2.access(line) {
            ServedBy::L2
        } else if self.llc.access(line) {
            ServedBy::Llc
        } else {
            ServedBy::Memory
        }
    }

    /// Hit latency of the level an access was served by; memory latency is
    /// supplied by the memory engine instead.
    pub(crate) fn hit_latency(&self, served: ServedBy) -> Option<u64> {
        match served {
            ServedBy::L1 => Some(self.l1_hit),
            ServedBy::L2 => Some(self.l2_hit),
            ServedBy::Llc => Some(self.llc_hit),
            ServedBy::Memory => None,
        }
    }

    /// `clflush` of the line containing `addr` from every level.
    pub(crate) fn clflush(&mut self, addr: u64) {
        let line = self.line_of(addr);
        self.l1.invalidate(line);
        self.l2.invalidate(line);
        self.llc.invalidate(line);
    }

    /// Flushes the entire hierarchy — the paper's cold-cache experiment
    /// setup ("the entire 8 MB LLC cache was flushed prior to every
    /// experiment"). Dirty state is dropped without cost: the flush happens
    /// outside the measured window.
    pub(crate) fn flush_all(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.llc.clear();
        self.dirty.clear();
    }

    /// Total valid lines across all levels.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> usize {
        self.l1.occupancy() + self.l2.occupancy() + self.llc.occupancy()
    }

    /// Per-level (hits, misses) since construction: [L1, L2, LLC].
    pub(crate) fn level_stats(&self) -> [(u64, u64); 3] {
        [self.l1.stats(), self.l2.stats(), self.llc.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(&SimConfig::default())
    }

    #[test]
    fn first_access_misses_second_hits_l1() {
        let mut h = h();
        assert_eq!(h.access_line(1000), ServedBy::Memory);
        assert_eq!(h.access_line(1000), ServedBy::L1);
    }

    #[test]
    fn l1_capacity_eviction_falls_back_to_l2() {
        let mut h = h();
        // L1: 32 KB / 64 B = 512 lines, 64 sets x 8 ways. Fill set 0 of L1
        // with 9 lines (stride = 64 sets apart).
        for i in 0..9u64 {
            h.access_line(i * 64);
        }
        // Line 0 was evicted from L1 (LRU) but still sits in L2.
        assert_eq!(h.access_line(0), ServedBy::L2);
    }

    #[test]
    fn clflush_forces_memory_access() {
        let mut h = h();
        h.access_line(5);
        h.clflush(5 * 64);
        assert_eq!(h.access_line(5), ServedBy::Memory);
    }

    #[test]
    fn flush_all_empties_everything() {
        let mut h = h();
        for i in 0..100 {
            h.access_line(i);
        }
        h.flush_all();
        assert_eq!(h.occupancy(), 0);
        assert_eq!(h.access_line(0), ServedBy::Memory);
    }

    #[test]
    fn line_of_uses_line_size() {
        let h = h();
        assert_eq!(h.line_of(0), 0);
        assert_eq!(h.line_of(63), 0);
        assert_eq!(h.line_of(64), 1);
    }

    #[test]
    fn hit_latencies_are_increasing() {
        let h = h();
        let l1 = h.hit_latency(ServedBy::L1).unwrap();
        let l2 = h.hit_latency(ServedBy::L2).unwrap();
        let llc = h.hit_latency(ServedBy::Llc).unwrap();
        assert!(l1 < l2 && l2 < llc);
        assert!(h.hit_latency(ServedBy::Memory).is_none());
    }
}
