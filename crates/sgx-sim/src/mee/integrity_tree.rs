//! The MEE integrity tree.
//!
//! The Memory Encryption Engine protects the EPC with an 8-ary counter tree
//! (Gueron, "A Memory Encryption Engine Suitable for General Purpose
//! Processors"). Every 64 B line has a version counter; counters are grouped
//! into nodes, nodes into parent nodes, with the root held on-die. A demand
//! read must walk the tree upward until it finds a node it can trust — one
//! cached inside the MEE — and that walk is what makes encrypted-memory
//! reads increasingly expensive as footprints outgrow the MEE cache (Fig. 6
//! of the paper).

use serde::{Deserialize, Serialize};

/// Identity of one integrity-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct NodeId {
    /// Tree level; 0 covers `arity` data lines, each higher level covers
    /// `arity`× more.
    pub(crate) level: u8,
    /// Index within the level.
    pub(crate) index: u64,
}

/// The tree's static shape plus the per-line version counters that provide
/// anti-rollback protection.
#[derive(Debug, Clone)]
pub struct IntegrityTree {
    /// log2 of the arity: a level up is a shift, not a division.
    arity_bits: u32,
    levels: u8,
    /// Version of every line up to the highest one ever written back
    /// (lines are EPC-relative, and the EPC is allocated from its base up).
    versions: Vec<u64>,
}

impl IntegrityTree {
    /// A tree has fewer levels than this (up to 2^30 lines, 64 GB, at
    /// arity 2): a walk keeps a level per bit of a `u32`, the top one free.
    pub(crate) const MAX_LEVELS: usize = 32;

    /// Builds a tree covering `epc_bytes` of protected memory in 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not a power of two of at least 2 (the walk steps
    /// up a level by a shift), or if the tree would be taller than
    /// `MAX_LEVELS`.
    pub(crate) fn new(epc_bytes: u64, arity: u64) -> Self {
        assert!(arity > 1 && arity.is_power_of_two());
        let lines = epc_bytes / 64;
        let mut levels = 0u8;
        let mut covered = arity;
        while covered < lines {
            covered = covered.saturating_mul(arity);
            levels += 1;
        }
        assert!(
            usize::from(levels) + 1 < Self::MAX_LEVELS,
            "integrity tree too tall"
        );
        IntegrityTree {
            arity_bits: arity.trailing_zeros(),
            levels: levels + 1,
            versions: Vec::new(),
        }
    }

    /// Number of levels below the on-die root.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// The node at `level` covering data line `line` (line index within the
    /// EPC, not a global address).
    pub(crate) fn node_for(&self, line: u64, level: u8) -> NodeId {
        NodeId {
            level,
            index: line >> (self.arity_bits * (u32::from(level) + 1)),
        }
    }

    /// The bottom-to-top path of nodes covering `line`.
    pub(crate) fn path(&self, line: u64) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.levels).scan(line, move |index, level| {
            *index >>= self.arity_bits;
            Some(NodeId {
                level,
                index: *index,
            })
        })
    }

    /// Current anti-rollback version of a line (0 if never written back).
    pub fn version(&self, line: u64) -> u64 {
        self.versions.get(line as usize).copied().unwrap_or(0)
    }

    /// Records a write-back of `line`: bumps its counter, as hardware does
    /// when an EPC line leaves the LLC.
    pub(crate) fn record_writeback(&mut self, line: u64) -> u64 {
        let line = line as usize;
        if line >= self.versions.len() {
            self.versions.resize(line + 1, 0);
        }
        self.versions[line] += 1;
        self.versions[line]
    }

    /// Verifies that a claimed version matches the tree (the rollback
    /// check). The simulator models tampering by letting tests supply stale
    /// versions.
    pub fn verify_version(&self, line: u64, claimed: u64) -> bool {
        self.version(line) == claimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_grow_logarithmically() {
        // 93 MB EPC = ~1.5 M lines; 8-ary => 7 levels below the root.
        let t = IntegrityTree::new(93 * 1024 * 1024, 8);
        assert_eq!(t.levels(), 7);
        let small = IntegrityTree::new(4096, 8);
        assert_eq!(small.levels(), 2);
    }

    #[test]
    fn path_is_bottom_up_and_coarsening() {
        let t = IntegrityTree::new(1 << 20, 8);
        let path: Vec<NodeId> = t.path(1000).collect();
        assert_eq!(path.len(), t.levels() as usize);
        assert_eq!(
            path[0],
            NodeId {
                level: 0,
                index: 125
            }
        );
        assert_eq!(
            path[1],
            NodeId {
                level: 1,
                index: 15
            }
        );
        // Indexes shrink monotonically going up.
        for w in path.windows(2) {
            assert!(w[1].index <= w[0].index);
        }
    }

    #[test]
    fn adjacent_lines_share_l0_node() {
        let t = IntegrityTree::new(1 << 20, 8);
        assert_eq!(t.node_for(8, 0), t.node_for(15, 0));
        assert_ne!(t.node_for(8, 0), t.node_for(16, 0));
    }

    #[test]
    fn writeback_bumps_version_monotonically() {
        let mut t = IntegrityTree::new(1 << 20, 8);
        assert_eq!(t.version(7), 0);
        assert_eq!(t.record_writeback(7), 1);
        assert_eq!(t.record_writeback(7), 2);
        assert!(t.verify_version(7, 2));
        assert!(!t.verify_version(7, 1), "stale version must be rejected");
    }
}
