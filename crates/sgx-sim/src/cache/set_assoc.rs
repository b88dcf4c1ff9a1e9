//! A generic set-associative cache tag store with true-LRU replacement
//! (or, for the MEE's one-set node cache, seeded random replacement).
//!
//! The simulator caches only *tags* (line identity), never data: the cost
//! model needs hit/miss behaviour, while payload bytes live in ordinary Rust
//! values owned by the code under simulation.

use crate::config::CacheGeometry;

/// One cache level: a set-associative array of line tags with LRU eviction.
///
/// Addresses supplied to the cache are *line numbers* (byte address divided
/// by the line size), which keeps the arithmetic uniform across levels.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Tag of every way, at `set * ways + way`.
    tags: Vec<u64>,
    /// Tick of every way's last use, same indexing. Ticks start at 1, so 0
    /// marks an invalid way — and the least `last_used` of a set is its
    /// first invalid way if it has one, its LRU way otherwise.
    last_used: Vec<u64>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    /// SplitMix64 state, if the victim in a full set is drawn at random
    /// rather than being the LRU way (the MEE's node cache).
    random_victims: Option<u64>,
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
        SetAssocCache {
            tags: vec![0; sets as usize * ways],
            last_used: vec![0; sets as usize * ways],
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            random_victims,
        }
    }

    /// Index of the first way of `line`'s set.
    fn set_start(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.ways
    }

    /// Index of the valid way holding `line`, if any.
    fn find(&self, line: u64) -> Option<usize> {
        let tag = line >> self.set_bits;
        let start = self.set_start(line);
        let tags = &self.tags[start..start + self.ways];
        let last_used = &self.last_used[start..start + self.ways];
        (0..self.ways)
            .find(|&way| tags[way] == tag && last_used[way] != 0)
            .map(|way| start + way)
    }

    /// Puts `line`, which must be absent, into the first invalid way of its
    /// set or else over the LRU (or a random) way, stamped with the current
    /// tick. Returns the evicted line number, if any.
    fn install(&mut self, line: u64) -> Option<u64> {
        let start = self.set_start(line);
        let last_used = &self.last_used[start..start + self.ways];
        let victim = match &mut self.random_victims {
            Some(state) if last_used.iter().all(|&tick| tick != 0) => {
                // SplitMix64 step.
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % self.ways
            }
            // The first of the least-recently-used ways.
            _ => (0..self.ways)
                .min_by_key(|&way| last_used[way])
                .expect("a set has at least one way"),
        };
        let victim = start + victim;
        let evicted = (self.last_used[victim] != 0)
            .then(|| (self.tags[victim] << self.set_bits) | (line & self.set_mask));
        self.tags[victim] = line >> self.set_bits;
        self.last_used[victim] = self.tick;
        evicted
    }

    /// Looks up a line; on hit, refreshes its LRU position. Returns `true`
    /// on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        match self.find(line) {
            Some(way) => {
                self.last_used[way] = self.tick;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inspects whether a line is present without touching LRU state or
    /// statistics.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Installs a line, evicting the LRU way if the set is full. Returns the
    /// evicted line number, if any.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        match self.find(line) {
            Some(way) => {
                self.last_used[way] = self.tick;
                None
            }
            None => self.install(line),
        }
    }

    /// [`probe`](Self::probe) and, on a miss, [`insert`](Self::insert) —
    /// same ticks, statistics and victim — without searching the set a
    /// second time for the line that just missed. Returns `true` on hit.
    pub(crate) fn access(&mut self, line: u64) -> bool {
        let hit = self.probe(line);
        if !hit {
            self.tick += 1;
            self.install(line);
        }
        hit
    }

    /// Invalidates a single line (the `clflush` path). Returns `true` if it
    /// was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let way = self.find(line);
        if let Some(way) = way {
            self.last_used[way] = 0;
        }
        way.is_some()
    }

    /// Invalidates everything (the cold-cache experiment setup).
    pub fn clear(&mut self) {
        self.last_used.fill(0);
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.last_used.iter().filter(|&&tick| tick != 0).count()
    }
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
    fn eviction_reconstructs_correct_line_number() {
        let mut c = tiny();
        c.insert(1); // set 1
        c.insert(5); // set 1
        let evicted = c.insert(9); // set 1, evicts line 1
        assert_eq!(evicted, Some(1));
    }
}
