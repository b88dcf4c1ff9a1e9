//! `MeeCache` as of commit e06e1df, unchanged: the reference the differential
//! tests in [`super`] hold the current implementation to. `Replacement` was
//! public in `crate::mee` then; the live cache has only the random policy
//! now, so the enum lives here with the code that still matches on it.

use crate::mee::NodeId;

/// Victim selection policy for the MEE node cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Pseudo-random victim (deterministic, seeded).
    Random(u64),
}

/// Fully-associative cache of tree-node identities.
#[derive(Debug, Clone)]
pub(crate) struct MeeCache {
    entries: Vec<(NodeId, u64)>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    policy: Replacement,
    rng_state: u64,
}

impl MeeCache {
    /// Creates a cache holding `capacity` nodes with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the root is held on-die, but a
    /// zero-entry node cache cannot terminate walks below the root.
    #[allow(dead_code)] // kept verbatim; the live cache has no LRU policy
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, Replacement::Lru)
    }

    /// Creates a cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_policy(capacity: usize, policy: Replacement) -> Self {
        assert!(capacity > 0, "MEE cache capacity must be positive");
        let seed = match policy {
            Replacement::Random(s) => s | 1,
            Replacement::Lru => 1,
        };
        MeeCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            policy,
            rng_state: seed,
        }
    }

    /// SplitMix64 step for deterministic random victim selection.
    fn next_rand(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Probes for a node; refreshes its LRU position on hit.
    pub(crate) fn probe(&mut self, node: NodeId) -> bool {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| *n == node) {
            entry.1 = self.tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Installs a node, evicting the LRU entry if full.
    pub(crate) fn insert(&mut self, node: NodeId) {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| *n == node) {
            entry.1 = self.tick;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((node, self.tick));
            return;
        }
        let tick = self.tick;
        match self.policy {
            Replacement::Lru => {
                let lru = self
                    .entries
                    .iter_mut()
                    .min_by_key(|(_, t)| *t)
                    .expect("cache is full, hence non-empty");
                *lru = (node, tick);
            }
            Replacement::Random(_) => {
                let victim = (self.next_rand() as usize) % self.entries.len();
                self.entries[victim] = (node, tick);
            }
        }
    }

    /// Drops everything (machine reset).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// (hits, misses) since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached nodes.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
