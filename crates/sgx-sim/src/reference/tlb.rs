//! `Tlb` as of commit e06e1df, unchanged: the reference the differential
//! tests in [`super`] hold the current implementation to.

use std::collections::{HashSet, VecDeque};

/// A FIFO TLB of fixed capacity (Skylake's L2 STLB holds 1536 entries).
#[derive(Debug, Clone)]
pub struct Tlb {
    present: HashSet<u64>,
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
            present: HashSet::with_capacity(capacity),
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches a page; returns `true` on hit, installing the translation
    /// (and evicting the oldest) on miss.
    pub fn touch(&mut self, page: u64) -> bool {
        if self.present.contains(&page) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.fifo.len() >= self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.present.remove(&old);
            }
        }
        self.fifo.push_back(page);
        self.present.insert(page);
        false
    }

    /// Drops every translation (the cold-cache experiment's side effect).
    pub fn flush(&mut self) {
        self.present.clear();
        self.fifo.clear();
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}
