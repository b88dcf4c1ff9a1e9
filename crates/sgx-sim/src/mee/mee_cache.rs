//! The MEE's internal cache of integrity-tree nodes.
//!
//! A small fully-associative cache with seeded pseudo-random replacement.
//! Its capacity is the lever that reproduces the paper's
//! footprint-dependent read overhead: working sets whose level-0 node count
//! fits keep tree walks one probe long; larger working sets thrash the
//! cache and force multi-level walks on every miss. Random replacement also
//! degrades *gradually* as the working set outgrows capacity, which is the
//! behaviour Fig. 6 of the paper exhibits (hardware caches of this kind use
//! a cheap pseudo-random or not-recently-used policy).

use super::integrity_tree::{IntegrityTree, NodeId};

/// Fully-associative cache of tree-node identities with deterministic
/// random replacement.
///
/// Ways keep their places: a hit reorders nothing and a random victim names
/// a place. Nothing but [`clear`](Self::clear) invalidates a way, so the
/// valid ways are always the first `valid` and a fill takes way `valid`.
#[derive(Debug, Clone)]
pub(crate) struct MeeCache {
    /// The key of every way (see [`key`]; 0 if invalid).
    ways: Box<[u64]>,
    valid: usize,
    /// The way the last walk's level-0 node went to: the walk of the next
    /// line of the same 8-line group checks it before the others.
    last_leaf: usize,
    /// SplitMix64 state of the victim draws.
    state: u64,
    /// `ceil(2^128 / capacity)`, wrapped to 0 for one way: see [`rem`].
    reciprocal: u128,
    hits: u64,
    misses: u64,
}

/// A node identity in one nonzero word: the level plus one above bit 56,
/// the index below (a 4 GB window holds 2^26 lines, so an index never
/// reaches bit 56).
fn key(node: NodeId) -> u64 {
    ((u64::from(node.level) + 1) << 56) | node.index
}

/// The level of a valid key: its top byte minus one. A tree has fewer than
/// `MAX_LEVELS - 1` levels, so an invalid way's 0 maps to a level no path
/// reaches.
fn level_of(key: u64) -> usize {
    ((key >> 56) as usize).wrapping_sub(1) % IntegrityTree::MAX_LEVELS
}

impl MeeCache {
    /// Creates a cache holding `capacity` nodes whose victims are drawn
    /// from a SplitMix64 stream seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the root is held on-die, but a
    /// zero-entry node cache cannot terminate walks below the root.
    pub(crate) fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "MEE cache capacity must be positive");
        MeeCache {
            ways: vec![0; capacity].into_boxed_slice(),
            valid: 0,
            last_leaf: 0,
            state: seed | 1,
            reciprocal: (u128::MAX / capacity as u128).wrapping_add(1),
            hits: 0,
            misses: 0,
        }
    }

    /// The way holding `key`, if any.
    fn find(&self, key: u64) -> Option<usize> {
        self.ways[..self.valid].iter().position(|&k| k == key)
    }

    /// Puts `key`, which must be absent, into the next invalid way or, if
    /// every way is valid, over a random one: `SplitMix64 mod capacity`.
    /// Returns its way and the key it held (0 if none).
    fn install(&mut self, key: u64) -> (usize, u64) {
        let way = if self.valid < self.ways.len() {
            self.valid += 1;
            self.valid - 1
        } else {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            rem(z ^ (z >> 31), self.ways.len(), self.reciprocal)
        };
        (way, std::mem::replace(&mut self.ways[way], key))
    }

    /// Probes for a node, counting the hit or miss.
    pub(crate) fn probe(&mut self, node: NodeId) -> bool {
        let hit = self.find(key(node)).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// [`probe`](Self::probe) and, on a miss, installs the node, evicting
    /// a random node if full — without searching a second time. Returns
    /// `true` on hit.
    pub(crate) fn access(&mut self, node: NodeId) -> bool {
        let hit = self.probe(node);
        if !hit {
            self.install(key(node));
        }
        hit
    }

    /// The tree walk for data line `line`: [`access`](Self::access) to
    /// each node of its path, bottom-up, until one hits. Returns the number
    /// of nodes that missed (and were installed).
    ///
    /// Same hits, misses and victims as those accesses, with one pass over
    /// the ways instead of one per node: the pass finds which nodes of the
    /// path are cached, and a victim taken on the way up forgets the node
    /// it held.
    pub(crate) fn walk(&mut self, tree: &IntegrityTree, line: u64) -> u64 {
        if self.ways[self.last_leaf] == key(tree.node_for(line, 0)) {
            self.hits += 1;
            return 0;
        }
        // The path's keys by level; 0 (no valid key) above its top.
        let levels = usize::from(tree.levels());
        let mut path = [0; IntegrityTree::MAX_LEVELS];
        for (slot, node) in path.iter_mut().zip(tree.path(line)) {
            *slot = key(node);
        }
        // The levels whose node is cached, a bit each, found by a
        // branch-free pass that marks the ways holding one, 64 at a time.
        let mut cached = 0u32;
        let mut leaf_way = 0;
        for (chunk, ways) in self.ways[..self.valid].chunks(64).enumerate() {
            let mut on_path = 0u64;
            for (i, &k) in ways.iter().enumerate() {
                on_path |= u64::from(path[level_of(k)] == k) << i;
            }
            while on_path != 0 {
                let i = on_path.trailing_zeros() as usize;
                on_path &= on_path - 1;
                let level = level_of(ways[i]);
                cached |= 1 << level;
                if level == 0 {
                    leaf_way = chunk * 64 + i;
                }
            }
        }
        for (level, &k) in path[..levels].iter().enumerate() {
            if cached & (1 << level) != 0 {
                self.hits += 1;
                self.misses += level as u64;
                if level == 0 {
                    self.last_leaf = leaf_way;
                }
                return level as u64;
            }
            let (way, evicted) = self.install(k);
            let evicted_level = level_of(evicted);
            if path[evicted_level] == evicted {
                cached &= !(1 << evicted_level);
            }
            if level == 0 {
                self.last_leaf = way;
            }
        }
        self.misses += levels as u64;
        levels as u64
    }

    /// Drops everything (machine reset). The victim stream continues.
    pub(crate) fn clear(&mut self) {
        self.ways.fill(0);
        self.valid = 0;
    }

    /// (hits, misses) since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached nodes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.valid
    }

    /// Is the cache empty?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `x % ways` without a division, given `ceil(2^128 / ways)` (0 for one
/// way): Lemire, Kaser and Kurz's direct remainder ("Faster Remainder by
/// Direct Computation", 2019), exact for every 64-bit `x`.
fn rem(x: u64, ways: usize, reciprocal: u128) -> usize {
    let low = reciprocal.wrapping_mul(u128::from(x));
    let ways = ways as u128;
    let high = (low >> 64) * ways + ((low as u64 as u128 * ways) >> 64);
    (high >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(level: u8, index: u64) -> NodeId {
        NodeId { level, index }
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = MeeCache::new(4, 1);
        assert!(!c.access(node(0, 1)));
        assert!(c.probe(node(0, 1)));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn levels_are_distinct_namespaces() {
        let mut c = MeeCache::new(4, 1);
        c.access(node(0, 5));
        assert!(!c.probe(node(1, 5)));
        // Level 0, index 0 is a valid node, not an invalid way.
        assert!(!c.access(node(0, 0)));
        assert!(c.probe(node(0, 0)));
    }

    #[test]
    fn reaccess_hits_instead_of_duplicating() {
        let mut c = MeeCache::new(2, 1);
        assert!(!c.access(node(0, 1)));
        assert!(c.access(node(0, 1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MeeCache::new(0, 1);
    }

    #[test]
    fn random_policy_degrades_gradually() {
        // Cyclic sweeps over working sets around the capacity: one that
        // fits hits on every sweep after the first; one 25 % larger (where
        // LRU would hit nothing) keeps a substantial fraction; one 8× larger
        // almost never hits (a node outlives the sweep's 224 other misses
        // with probability (31/32)^224 ≈ 0.08 %).
        let capacity = 32;
        let sweep = |working_set: u64| {
            let mut c = MeeCache::new(capacity, 7);
            for _ in 0..50 {
                for i in 0..working_set {
                    c.access(node(0, i));
                }
            }
            let (h, m) = c.stats();
            h as f64 / (h + m) as f64
        };
        let fits = sweep(32);
        let over = sweep(40);
        let far = sweep(256);
        assert!(fits > 0.97, "a fitting set hits after one sweep: {fits}");
        assert!(
            over > 0.3 && over < 0.95,
            "random replacement hits partially: {over}"
        );
        assert!(
            far < 0.01,
            "a working set far over capacity thrashes: {far}"
        );
        assert!(fits > over && over > far);
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = MeeCache::new(4, 99);
            (0..1000u64).filter(|i| c.access(node(0, i % 9))).count()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rem_is_the_remainder() {
        let edges = [0, 1, 2, 63, 64, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mut z = 0x4D45_4531u64;
        for ways in (1..=300).chain([1 << 12, 3 << 12]) {
            let reciprocal = MeeCache::new(ways, 1).reciprocal;
            for x in edges.into_iter().chain((0..200).map(|_| {
                z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                z
            })) {
                assert_eq!(
                    rem(x, ways, reciprocal),
                    (x % ways as u64) as usize,
                    "{x} % {ways}"
                );
            }
        }
    }
}
