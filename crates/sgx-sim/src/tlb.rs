//! A simple TLB model.
//!
//! The cold-cache experiments of the paper flush the LLC, which also costs
//! the subsequent run its TLB warmth (the page walker reads page tables
//! *through the cache*). Each first touch of a page after a flush pays a
//! page-walk penalty; this is a visible share of the cold-call cost in
//! Fig. 2.

use std::collections::VecDeque;

use crate::mem::{BlockSet, PAGE_SIZE};

/// A FIFO TLB of fixed capacity (Skylake's L2 STLB holds 1536 entries).
#[derive(Debug, Clone)]
pub struct Tlb {
    present: BlockSet,
    fifo: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB holding `capacity` page translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            present: BlockSet::new(PAGE_SIZE),
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches a page; returns `true` on hit, installing the translation
    /// (and evicting the oldest) on miss.
    pub fn touch(&mut self, page: u64) -> bool {
        if self.present.contains(page) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.fifo.len() >= self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.present.remove(old);
            }
        }
        self.fifo.push_back(page);
        self.present.insert(page);
        false
    }

    /// Drops every translation (the cold-cache experiment's side effect).
    pub fn flush(&mut self) {
        for page in self.fifo.drain(..) {
            self.present.remove(page);
        }
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert!(!t.touch(1));
        assert!(t.touch(1));
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut t = Tlb::new(2);
        t.touch(1);
        t.touch(2);
        t.touch(3); // evicts 1
        assert!(!t.touch(1));
        assert!(t.touch(3));
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = Tlb::new(8);
        t.touch(5);
        t.flush();
        assert!(!t.touch(5));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }
}
