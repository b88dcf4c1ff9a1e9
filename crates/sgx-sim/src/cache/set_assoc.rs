//! A generic set-associative cache tag store with true-LRU replacement.
//!
//! The simulator caches only *tags* (line identity), never data: the cost
//! model needs hit/miss behaviour, while payload bytes live in ordinary Rust
//! values owned by the code under simulation.

use crate::config::CacheGeometry;

/// Ways a block of the tag store holds at most: one 4 KiB host page.
const BLOCK_WAYS: usize = 512;

/// One cache level: a set-associative array of line tags with LRU eviction.
///
/// Addresses supplied to the cache are *line numbers* (byte address divided
/// by the line size), which keeps the arithmetic uniform across levels.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// The key of every way (the line's tag plus one, 0 if invalid; no line
    /// is `u64::MAX`) in blocks of `2^block_bits` sets, each set one run. A
    /// block is allocated by the first install into it, so a program that
    /// touches a few sets holds a few pages. A set is kept most recent
    /// first, invalid ways last: its victim is its last way.
    blocks: Vec<Vec<u64>>,
    block_bits: u32,
    ways: usize,
    /// Number of valid ways in the whole cache.
    valid: usize,
    set_mask: u64,
    set_bits: u32,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets is not a power of two (real caches index
    /// with address bits; simulated ones here do the same).
    pub fn new(geometry: &CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = geometry.ways as usize;
        let set_bits = sets.trailing_zeros();
        let block_bits = (BLOCK_WAYS / ways).max(1).ilog2().min(set_bits);
        SetAssocCache {
            blocks: vec![Vec::new(); (sets >> block_bits) as usize],
            block_bits,
            ways,
            valid: 0,
            set_mask: sets - 1,
            set_bits,
            hits: 0,
            misses: 0,
        }
    }

    /// The block of `line`'s set, the index of the set's first way in that
    /// block, and `line`'s key.
    fn locate(&self, line: u64) -> (usize, usize, u64) {
        let set = (line & self.set_mask) as usize;
        let first = (set & ((1 << self.block_bits) - 1)) * self.ways;
        (set >> self.block_bits, first, (line >> self.set_bits) + 1)
    }

    /// The ways of the set at `first` in `block`, if the block is allocated.
    fn set(&mut self, block: usize, first: usize) -> Option<&mut [u64]> {
        self.blocks[block].get_mut(first..first + self.ways)
    }

    /// Whether `line` is held; if it is, its way becomes the most recent of
    /// its set.
    #[cfg(test)]
    fn lookup(&mut self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        self.set(block, first)
            .is_some_and(|set| move_to_front(set, key))
    }

    /// Pushes `key`, which must be absent, in at the front of the set at
    /// `first` in `block` (allocating the block on its first install); the
    /// last way falls out. Returns the key that fell out, 0 if invalid.
    fn install_at(&mut self, block: usize, first: usize, key: u64) -> u64 {
        let block_ways = self.ways << self.block_bits;
        let block = &mut self.blocks[block];
        if block.is_empty() {
            *block = vec![0; block_ways];
        }
        let set = &mut block[first..first + self.ways];
        let evicted = set[set.len() - 1];
        set.copy_within(..set.len() - 1, 1);
        set[0] = key;
        if evicted == 0 {
            self.valid += 1;
        }
        evicted
    }

    /// Looks up a line; on hit, refreshes its LRU position. Returns `true`
    /// on hit.
    #[cfg(test)]
    pub(crate) fn probe(&mut self, line: u64) -> bool {
        let hit = self.lookup(line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Inspects whether a line is present without touching LRU state or
    /// statistics.
    pub fn contains(&self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        self.blocks[block]
            .get(first..first + self.ways)
            .is_some_and(|set| set.contains(&key))
    }

    /// Looks up a line: on a hit its way becomes the most recent of its
    /// set, on a miss the line is installed in the set's least recently
    /// used way. Returns `true` on hit.
    pub fn access(&mut self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        if self
            .set(block, first)
            .is_some_and(|set| move_to_front(set, key))
        {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.install_at(block, first, key);
        false
    }

    /// Invalidates a single line (the `clflush` path). Returns `true` if it
    /// was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        let Some(set) = self.set(block, first) else {
            return false;
        };
        let Some(way) = set.iter().position(|&k| k == key) else {
            return false;
        };
        // Invalid ways stay last.
        set.copy_within(way + 1.., way);
        set[set.len() - 1] = 0;
        self.valid -= 1;
        true
    }

    /// Invalidates everything (the cold-cache experiment setup).
    pub(crate) fn clear(&mut self) {
        for block in &mut self.blocks {
            block.fill(0);
        }
        self.valid = 0;
    }

    /// (hits, misses) since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid
    }
}

/// If `set` holds `key`, moves it to the front, each way before it one
/// place back, and returns `true`.
fn move_to_front(set: &mut [u64], key: u64) -> bool {
    let Some(way) = set.iter().position(|&k| k == key) else {
        return false;
    };
    if way > 0 {
        set.copy_within(..way, 1);
        set[0] = key;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways, 64 B lines => 512 B cache.
        SetAssocCache::new(&CacheGeometry {
            capacity: 512,
            ways: 2,
            line: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(100));
        assert!(c.probe(100));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(0);
        c.access(4);
        assert!(c.probe(0)); // 0 becomes MRU; 4 is now LRU.
        c.access(8);
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn access_to_a_cached_line_does_not_evict() {
        let mut c = tiny();
        c.access(0);
        c.access(4);
        assert!(c.access(0));
        assert!(c.contains(4));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(12);
        assert!(c.invalidate(12));
        assert!(!c.contains(12));
        assert!(!c.invalidate(12));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = tiny();
        for l in 0..8 {
            c.access(l);
        }
        assert!(c.occupancy() > 0);
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0..4 map to distinct sets.
        for l in 0..4 {
            c.access(l);
        }
        for l in 0..4 {
            assert!(c.contains(l));
        }
    }
}
