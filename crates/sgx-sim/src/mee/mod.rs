//! The Memory Encryption Engine cost model.
//!
//! Every LLC miss whose target lies in the EPC passes through the MEE: the
//! line is decrypted and its integrity verified against the counter tree
//! ([`IntegrityTree`]), walking upward until a node hits the MEE-internal
//! cache (`MeeCache`). Writes are encrypted on eviction and bump version
//! counters. The per-event costs come from [`MeeConfig`].

mod integrity_tree;
mod mee_cache;

pub use integrity_tree::IntegrityTree;
#[cfg(test)]
pub(crate) use integrity_tree::NodeId;
pub(crate) use mee_cache::MeeCache;

use crate::config::MeeConfig;
use crate::cycles::Cycles;

/// Whether an access reached DRAM as part of a sequential run (prefetchable)
/// or as an isolated demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Next line of an ongoing sequential sweep; crypto overlaps with
    /// prefetch.
    Streamed,
    /// Isolated (random) demand miss; full decrypt + verify latency is
    /// exposed.
    Demand,
}

/// The engine: tree + node cache + cost parameters.
#[derive(Debug, Clone)]
pub struct Mee {
    tree: IntegrityTree,
    cache: MeeCache,
    config: MeeConfig,
}

impl Mee {
    /// Builds the MEE protecting `epc_bytes` of memory. The node cache uses
    /// deterministic pseudo-random replacement (see `MeeCache`).
    pub fn new(epc_bytes: u64, config: MeeConfig) -> Self {
        Mee {
            tree: IntegrityTree::new(epc_bytes, config.arity),
            cache: MeeCache::new(config.cache_entries, 0x4D45_4531),
            config,
        }
    }

    /// Cost the MEE adds to a *load* of an EPC line (EPC-relative line
    /// index) that missed the LLC: the tree walk's node fetches (nodes
    /// installed up to the first one the node cache holds) plus the crypto.
    pub fn load_cost(&mut self, line: u64, pattern: AccessPattern) -> Cycles {
        let fetched = self.cache.walk(&self.tree, line);
        let crypto = match pattern {
            AccessPattern::Streamed => self.config.crypto_stream,
            AccessPattern::Demand => self.config.crypto_load,
        };
        Cycles::new(crypto + fetched * self.config.node_fetch)
    }

    /// Cost the MEE adds when an EPC line is *written back* from the LLC
    /// (encryption + counter update). Bumps the line's version counter.
    pub fn writeback_cost(&mut self, line: u64, pattern: AccessPattern) -> Cycles {
        self.tree.record_writeback(line);
        let cost = match pattern {
            // Streamed write-backs pipeline behind the eviction itself.
            AccessPattern::Streamed => self.config.crypto_writeback,
            AccessPattern::Demand => self.config.crypto_writeback + self.config.store_extra,
        };
        // Counter updates hit the just-walked nodes; charge at most one
        // refresh fetch if the L0 node fell out meanwhile.
        let refresh = if self.cache.access(self.tree.node_for(line, 0)) {
            0
        } else {
            self.config.node_fetch
        };
        Cycles::new(cost + refresh)
    }

    /// Read access to the integrity tree (tests, paging MAC verification).
    pub fn tree(&self) -> &IntegrityTree {
        &self.tree
    }

    /// MEE cache statistics: (hits, misses).
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Clears the node cache (machine reset; the version tree survives, as
    /// counters live in protected DRAM, not in the cache).
    pub(crate) fn reset_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn mee() -> Mee {
        Mee::new(93 * 1024 * 1024, SimConfig::default().mee)
    }

    #[test]
    fn repeated_loads_of_same_region_get_cheaper() {
        let mut m = mee();
        let first = m.load_cost(0, AccessPattern::Demand);
        let second = m.load_cost(1, AccessPattern::Demand);
        // Line 1 shares the L0 node with line 0: walk terminates instantly.
        assert!(second < first);
        assert_eq!(second, Cycles::new(SimConfig::default().mee.crypto_load));
    }

    #[test]
    fn cold_walk_fetches_whole_path() {
        let mut m = mee();
        let cfg = SimConfig::default().mee;
        let cost = m.load_cost(0, AccessPattern::Demand);
        let levels = u64::from(m.tree().levels());
        assert_eq!(cost, Cycles::new(cfg.crypto_load + levels * cfg.node_fetch));
    }

    #[test]
    fn large_footprint_walks_longer_than_small() {
        let cfg = SimConfig::default().mee;
        // Small footprint: 32 lines (2 KB), repeat twice; second sweep warm.
        let mut m = mee();
        for l in 0..32 {
            m.load_cost(l, AccessPattern::Streamed);
        }
        let small: u64 = (0..32)
            .map(|l| m.load_cost(l, AccessPattern::Streamed).get())
            .sum();
        // Large footprint: 512 lines (32 KB), second sweep still thrashes.
        let mut m2 = mee();
        for l in 0..512 {
            m2.load_cost(l, AccessPattern::Streamed);
        }
        let large: u64 = (0..512)
            .map(|l| m2.load_cost(l, AccessPattern::Streamed).get())
            .sum();
        let small_per_line = small as f64 / 32.0;
        let large_per_line = large as f64 / 512.0;
        assert!(
            large_per_line > small_per_line,
            "MEE cost/line must grow with footprint: {small_per_line} vs {large_per_line}"
        );
        assert!(small_per_line >= cfg.crypto_stream as f64);
    }

    #[test]
    fn writeback_bumps_versions() {
        let mut m = mee();
        m.writeback_cost(42, AccessPattern::Streamed);
        m.writeback_cost(42, AccessPattern::Demand);
        assert_eq!(m.tree().version(42), 2);
    }

    #[test]
    fn streamed_cheaper_than_demand() {
        let mut m = mee();
        // Warm the path first so both probes see identical tree state.
        m.load_cost(100, AccessPattern::Demand);
        let streamed = m.load_cost(100, AccessPattern::Streamed);
        let demand = m.load_cost(100, AccessPattern::Demand);
        assert!(streamed < demand);
    }
}
