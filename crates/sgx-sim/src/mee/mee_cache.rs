//! The MEE's internal cache of integrity-tree nodes.
//!
//! A small fully-associative LRU. Its capacity is the lever that reproduces
//! the paper's footprint-dependent read overhead: working sets whose
//! level-0 node count fits keep tree walks one probe long; larger working
//! sets thrash the cache and force multi-level walks on every miss.

use super::integrity_tree::NodeId;
use crate::cache::SetAssocCache;

/// Victim selection policy for the MEE node cache.
///
/// Hardware caches of this kind typically use a cheap pseudo-random or
/// not-recently-used policy; random replacement also degrades *gradually*
/// as the working set outgrows capacity, which is the behaviour Fig. 6 of
/// the paper exhibits. LRU is available for unit tests and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Pseudo-random victim (deterministic, seeded).
    Random(u64),
}

/// Fully-associative cache of tree-node identities: one set of the
/// hierarchy's tag store, with nodes packed into line numbers by `key`.
#[derive(Debug, Clone)]
pub struct MeeCache {
    nodes: SetAssocCache,
}

/// A node identity in one word: the level above bit 56, the index below
/// (a 4 GB window holds 2^26 lines, so an index never reaches bit 56).
fn key(node: NodeId) -> u64 {
    (u64::from(node.level) << 56) | node.index
}

impl MeeCache {
    /// Creates a cache holding `capacity` nodes with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the root is held on-die, but a
    /// zero-entry node cache cannot terminate walks below the root.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Replacement::Lru)
    }

    /// Creates a cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_policy(capacity: usize, policy: Replacement) -> Self {
        assert!(capacity > 0, "MEE cache capacity must be positive");
        let random_victims = match policy {
            Replacement::Random(seed) => Some(seed | 1),
            Replacement::Lru => None,
        };
        MeeCache {
            nodes: SetAssocCache::fully_associative(capacity, random_victims),
        }
    }

    /// Probes for a node; refreshes its LRU position on hit.
    pub fn probe(&mut self, node: NodeId) -> bool {
        self.nodes.probe(key(node))
    }

    /// Installs a node, evicting the policy's victim if full.
    pub fn insert(&mut self, node: NodeId) {
        self.nodes.insert(key(node));
    }

    /// [`probe`](Self::probe) and, on a miss, [`insert`](Self::insert).
    /// Returns `true` on hit.
    pub(crate) fn access(&mut self, node: NodeId) -> bool {
        self.nodes.access(key(node))
    }

    /// Drops everything (machine reset).
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        self.nodes.stats()
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.nodes.occupancy()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(level: u8, index: u64) -> NodeId {
        NodeId { level, index }
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = MeeCache::new(4);
        assert!(!c.probe(node(0, 1)));
        c.insert(node(0, 1));
        assert!(c.probe(node(0, 1)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = MeeCache::new(2);
        c.insert(node(0, 1));
        c.insert(node(0, 2));
        c.probe(node(0, 1)); // 2 becomes LRU
        c.insert(node(0, 3));
        assert!(c.probe(node(0, 1)));
        assert!(!c.probe(node(0, 2)));
        assert!(c.probe(node(0, 3)));
    }

    #[test]
    fn levels_are_distinct_namespaces() {
        let mut c = MeeCache::new(4);
        c.insert(node(0, 5));
        assert!(!c.probe(node(1, 5)));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = MeeCache::new(2);
        c.insert(node(0, 1));
        c.insert(node(0, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MeeCache::new(0);
    }

    #[test]
    fn random_policy_degrades_gradually() {
        // Cyclic sweep over a working set slightly larger than capacity:
        // LRU gets 0% hits, random replacement keeps a substantial fraction.
        let capacity = 32;
        let working_set = 40u64;
        let sweep = |mut c: MeeCache| {
            for _ in 0..50 {
                for i in 0..working_set {
                    if !c.probe(node(0, i)) {
                        c.insert(node(0, i));
                    }
                }
            }
            let (h, m) = c.stats();
            h as f64 / (h + m) as f64
        };
        let lru_rate = sweep(MeeCache::with_policy(capacity, Replacement::Lru));
        let rnd_rate = sweep(MeeCache::with_policy(capacity, Replacement::Random(7)));
        assert!(lru_rate < 0.01, "LRU thrashes cyclic sweeps: {lru_rate}");
        assert!(
            rnd_rate > 0.3 && rnd_rate < 0.95,
            "random replacement hits partially: {rnd_rate}"
        );
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = MeeCache::with_policy(4, Replacement::Random(99));
            let mut hits = 0;
            for i in 0..1000u64 {
                if c.probe(node(0, i % 9)) {
                    hits += 1;
                } else {
                    c.insert(node(0, i % 9));
                }
            }
            hits
        };
        assert_eq!(run(), run());
    }
}
