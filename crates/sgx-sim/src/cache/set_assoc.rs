//! A generic set-associative cache tag store with true-LRU replacement
//! (or, for the MEE's one-set node cache, seeded random replacement).
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
    /// touches a few sets holds a few pages. Under LRU a set is kept most
    /// recent first, invalid ways last: its victim is its last way.
    blocks: Vec<Vec<u64>>,
    block_bits: u32,
    ways: usize,
    /// Number of valid ways in the whole cache.
    valid: usize,
    set_mask: u64,
    set_bits: u32,
    hits: u64,
    misses: u64,
    /// SplitMix64 state, if the victim in a full set is drawn at random
    /// rather than being the LRU way (the MEE's node cache). The draw names
    /// a place, so ways then keep their places. Only a cache of one set has
    /// one, so `valid` tells whether its set is full.
    random_victims: Option<u64>,
    /// `ceil(2^128 / ways)`, wrapped to 0 for one way: see [`rem`].
    ways_reciprocal: u128,
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
        Self::with_shape(sets, geometry.ways as usize, None)
    }

    /// A single set of `ways` ways, replacing at random from the given
    /// SplitMix64 state, or the LRU way if there is none.
    pub(crate) fn fully_associative(ways: usize, random_victims: Option<u64>) -> Self {
        Self::with_shape(1, ways, random_victims)
    }

    fn with_shape(sets: u64, ways: usize, random_victims: Option<u64>) -> Self {
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
            random_victims,
            ways_reciprocal: (u128::MAX / ways as u128).wrapping_add(1),
        }
    }

    /// The block of `line`'s set, the index of the set's first way in that
    /// block, and `line`'s key.
    fn locate(&self, line: u64) -> (usize, usize, u64) {
        let set = (line & self.set_mask) as usize;
        let first = (set & ((1 << self.block_bits) - 1)) * self.ways;
        (set >> self.block_bits, first, (line >> self.set_bits) + 1)
    }

    /// The way of the set at `first` in `block` that holds `key`, if any (a
    /// block not yet allocated holds none).
    fn find(&self, block: usize, first: usize, key: u64) -> Option<usize> {
        let set = self.blocks[block].get(first..first + self.ways)?;
        set.iter().position(|&k| k == key)
    }

    /// Whether `line` is held; if it is, records the use: under LRU its way
    /// becomes the most recent of its set.
    fn lookup(&mut self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        let lru = self.random_victims.is_none();
        let Some(set) = self.blocks[block].get_mut(first..first + self.ways) else {
            return false;
        };
        let Some(way) = set.iter().position(|&k| k == key) else {
            return false;
        };
        if lru && way > 0 {
            push_front(&mut set[..=way], key);
        }
        true
    }

    /// Puts `line`, which must be absent, into the first invalid way of its
    /// set or else over the LRU (or a random) way. Returns the evicted line
    /// number, if any.
    fn install(&mut self, line: u64) -> Option<u64> {
        let (block, first, key) = self.locate(line);
        let (ways, block_ways) = (self.ways, self.ways << self.block_bits);
        let block = &mut self.blocks[block];
        if block.is_empty() {
            *block = vec![0; block_ways];
        }
        let set = &mut block[first..first + ways];
        let evicted = match &mut self.random_victims {
            // The last way — invalid, if any is — makes room.
            None => push_front(set, key),
            Some(state) => {
                let way = if self.valid == ways {
                    // SplitMix64 step.
                    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = *state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    rem(z ^ (z >> 31), ways, self.ways_reciprocal)
                } else {
                    set.iter()
                        .position(|&k| k == 0)
                        .expect("a set that is not full has an invalid way")
                };
                std::mem::replace(&mut set[way], key)
            }
        };
        if evicted == 0 {
            self.valid += 1;
            None
        } else {
            Some(((evicted - 1) << self.set_bits) | (line & self.set_mask))
        }
    }

    /// Looks up a line; on hit, refreshes its LRU position. Returns `true`
    /// on hit.
    pub fn probe(&mut self, line: u64) -> bool {
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
        self.find(block, first, key).is_some()
    }

    /// Installs a line, evicting the LRU way if the set is full. Returns the
    /// evicted line number, if any.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        if self.lookup(line) {
            None
        } else {
            self.install(line)
        }
    }

    /// [`probe`](Self::probe) and, on a miss, [`insert`](Self::insert) —
    /// same statistics and victim — without searching the set a second
    /// time for the line that just missed. Returns `true` on hit.
    pub(crate) fn access(&mut self, line: u64) -> bool {
        let hit = self.probe(line);
        if !hit {
            self.install(line);
        }
        hit
    }

    /// Invalidates a single line (the `clflush` path). Returns `true` if it
    /// was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (block, first, key) = self.locate(line);
        let Some(way) = self.find(block, first, key) else {
            return false;
        };
        let set = &mut self.blocks[block][first..first + self.ways];
        set[way] = 0;
        if self.random_victims.is_none() {
            // Invalid ways stay last.
            set[way..].rotate_left(1);
        }
        self.valid -= 1;
        true
    }

    /// Invalidates everything (the cold-cache experiment setup).
    pub fn clear(&mut self) {
        for block in &mut self.blocks {
            block.fill(0);
        }
        self.valid = 0;
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid
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

/// Puts `key` first in `ways`, moving each of the others one place back,
/// and returns the key that falls off the end. (Carried through a register:
/// `rotate_right` read slower on 4–16 ways.)
fn push_front(ways: &mut [u64], key: u64) -> u64 {
    ways.iter_mut()
        .fold(key, |carry, way| std::mem::replace(way, carry))
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
        assert!(!c.probe(100));
        c.insert(100);
        assert!(c.probe(100));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0);
        c.insert(4);
        assert!(c.probe(0)); // 0 becomes MRU; 4 is now LRU.
        let evicted = c.insert(8);
        assert_eq!(evicted, Some(4));
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn insert_existing_line_does_not_evict() {
        let mut c = tiny();
        c.insert(0);
        c.insert(4);
        assert_eq!(c.insert(0), None);
        assert!(c.contains(4));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(12);
        assert!(c.invalidate(12));
        assert!(!c.contains(12));
        assert!(!c.invalidate(12));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = tiny();
        for l in 0..8 {
            c.insert(l);
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
            c.insert(l);
        }
        for l in 0..4 {
            assert!(c.contains(l));
        }
    }

    #[test]
    fn rem_is_the_remainder() {
        let edges = [0, 1, 2, 63, 64, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mut z = 0x4D45_4531u64;
        for ways in (1..=300).chain([1 << 12, 3 << 12]) {
            let reciprocal = SetAssocCache::fully_associative(ways, None).ways_reciprocal;
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

    #[test]
    fn eviction_reconstructs_correct_line_number() {
        let mut c = tiny();
        c.insert(1); // set 1
        c.insert(5); // set 1
        let evicted = c.insert(9); // set 1, evicts line 1
        assert_eq!(evicted, Some(1));
    }
}
