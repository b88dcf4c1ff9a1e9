//! `SetAssocCache` as of commit e06e1df, unchanged: the reference the differential
//! tests in [`super`] hold the current implementation to.

use crate::config::CacheGeometry;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    last_used: u64,
    valid: bool,
}

/// One cache level: a set-associative array of line tags with LRU eviction.
///
/// Addresses supplied to the cache are *line numbers* (byte address divided
/// by the line size), which keeps the arithmetic uniform across levels.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    tick: u64,
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
        SetAssocCache {
            sets: (0..sets)
                .map(|_| {
                    Vec::with_capacity(geometry.ways as usize).tap_fill(geometry.ways as usize)
                })
                .collect(),
            set_mask: sets - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn tag_of(&self, line: u64) -> u64 {
        line >> self.set_mask.trailing_ones()
    }

    /// Looks up a line; on hit, refreshes its LRU position. Returns `true`
    /// on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        let tag = self.tag_of(line);
        let set_idx = self.set_of(line);
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inspects whether a line is present without touching LRU state or
    /// statistics.
    pub fn contains(&self, line: u64) -> bool {
        let tag = self.tag_of(line);
        self.sets[self.set_of(line)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Installs a line, evicting the LRU way if the set is full. Returns the
    /// evicted line number, if any.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let tag = self.tag_of(line);
        let set_idx = self.set_of(line);
        let shift = self.set_mask.trailing_ones();
        let tick = self.tick;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = tick;
            return None;
        }
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = Way {
                tag,
                last_used: tick,
                valid: true,
            };
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.last_used)
            .expect("non-empty set");
        let evicted_line = (victim.tag << shift) | set_idx as u64;
        *victim = Way {
            tag,
            last_used: tick,
            valid: true,
        };
        Some(evicted_line)
    }

    /// Invalidates a single line (the `clflush` path). Returns `true` if it
    /// was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let tag = self.tag_of(line);
        let set_idx = self.set_of(line);
        for way in &mut self.sets[set_idx] {
            if way.valid && way.tag == tag {
                way.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (the cold-cache experiment setup).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            for way in set.iter_mut() {
                way.valid = false;
            }
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }
}

// Small private helper to pre-fill the way vectors.
trait TapFill {
    fn tap_fill(self, ways: usize) -> Self;
}

impl TapFill for Vec<Way> {
    fn tap_fill(mut self, ways: usize) -> Self {
        self.resize(
            ways,
            Way {
                tag: 0,
                last_used: 0,
                valid: false,
            },
        );
        self
    }
}
