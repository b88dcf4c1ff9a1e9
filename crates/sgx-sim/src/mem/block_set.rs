//! A set of cache lines or pages, held as bitmaps.

use super::{EPC_WINDOW, PRM_BASE, REGULAR_BASE};

/// Words a window's bitmap may grow to: enough for every cache line of the
/// largest window, so a stray block number cannot ask for more than 8 MiB.
const MAX_WORDS: usize = (EPC_WINDOW / 64 / 64) as usize;

/// A set of block numbers — byte addresses divided by `unit`, i.e. cache
/// lines or pages — as one bitmap per address window: the unallocated low
/// addresses (only tests name blocks there), the regular arena, and PRM.
///
/// Both arenas are bump-allocated upward from their window's base, so the
/// blocks in use have small window-relative indices and a bitmap grows only
/// to the highest block ever inserted: memory follows what the allocators
/// have handed out, not the 1 GB arena or the 4 GB EPC window.
#[derive(Debug, Clone)]
pub(crate) struct BlockSet {
    windows: [Vec<u64>; 3],
    /// First block number of each window.
    bases: [u64; 3],
}

impl BlockSet {
    /// An empty set of `unit`-byte blocks.
    pub(crate) fn new(unit: u64) -> Self {
        BlockSet {
            windows: Default::default(),
            bases: [0, REGULAR_BASE, PRM_BASE].map(|base| base / unit),
        }
    }

    /// (window, word, bit mask) of `block`.
    fn slot(&self, block: u64) -> (usize, usize, u64) {
        let window = usize::from(block >= self.bases[1]) + usize::from(block >= self.bases[2]);
        let index = block - self.bases[window];
        (window, (index / 64) as usize, 1 << (index % 64))
    }

    /// Is `block` in the set?
    pub(crate) fn contains(&self, block: u64) -> bool {
        let (window, word, mask) = self.slot(block);
        self.windows[window]
            .get(word)
            .is_some_and(|bits| bits & mask != 0)
    }

    /// Adds `block`; returns `true` if it was not in the set.
    ///
    /// # Panics
    ///
    /// Panics if `block` lies beyond every simulated address window.
    pub(crate) fn insert(&mut self, block: u64) -> bool {
        let (window, word, mask) = self.slot(block);
        let bits = &mut self.windows[window];
        if word >= bits.len() {
            assert!(
                word < MAX_WORDS,
                "block {block:#x} lies outside the simulated address windows"
            );
            bits.resize(word + 1, 0);
        }
        let added = bits[word] & mask == 0;
        bits[word] |= mask;
        added
    }

    /// Removes `block`; returns `true` if it was in the set.
    pub(crate) fn remove(&mut self, block: u64) -> bool {
        let (window, word, mask) = self.slot(block);
        let Some(bits) = self.windows[window].get_mut(word) else {
            return false;
        };
        let removed = *bits & mask != 0;
        *bits &= !mask;
        removed
    }

    /// Empties the set, keeping the bitmaps' storage.
    pub(crate) fn clear(&mut self) {
        for bits in &mut self.windows {
            bits.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;

    #[test]
    fn insert_remove_contains_across_windows() {
        let mut s = BlockSet::new(PAGE_SIZE);
        let blocks = [
            3,
            REGULAR_BASE / PAGE_SIZE,
            REGULAR_BASE / PAGE_SIZE + 70,
            PRM_BASE / PAGE_SIZE,
            PRM_BASE / PAGE_SIZE + 3,
        ];
        for b in blocks {
            assert!(!s.contains(b));
            assert!(s.insert(b));
            assert!(!s.insert(b), "second insert reports presence");
            assert!(s.contains(b));
        }
        // Same window-relative index in different windows: distinct blocks.
        assert!(!s.contains(REGULAR_BASE / PAGE_SIZE + 3));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(PRM_BASE / PAGE_SIZE + 4_000), "beyond the bitmap");
        s.clear();
        assert!(blocks.iter().all(|&b| !s.contains(b)));
    }

    #[test]
    fn storage_follows_the_highest_block_inserted() {
        let mut s = BlockSet::new(64);
        s.insert(PRM_BASE / 64 + 640);
        assert_eq!(s.windows[2].len(), 11);
        assert!(s.windows[0].is_empty() && s.windows[1].is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the simulated address windows")]
    fn block_beyond_every_window_is_rejected() {
        BlockSet::new(64).insert((PRM_BASE + 2 * EPC_WINDOW) / 64);
    }
}
