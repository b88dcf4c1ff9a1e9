//! The simulator's host-side structures as they were before they were made
//! flat and dense — per-set `Vec`s of ways, `HashSet`/`HashMap` residency —
//! kept only to be tested against: every hit/miss decision, evicted line,
//! victim draw and statistic of the current implementations must equal
//! theirs over random operation streams. (`Machine` as a whole is held to
//! them in `machine.rs`.)

pub(crate) mod epc;
pub(crate) mod mee_cache;
pub(crate) mod set_assoc;
pub(crate) mod tlb;

use proptest::prelude::*;

use crate::config::{CacheGeometry, PagingConfig};
use crate::mee::{NodeId, Replacement};
use crate::mem::{PAGE_SIZE, PRM_BASE, REGULAR_BASE};

/// A small key that collides often, in any of the three address windows.
fn block(unit: u64) -> impl Strategy<Value = u64> {
    (0usize..3, 0u64..48)
        .prop_map(move |(window, i)| [0, REGULAR_BASE, PRM_BASE][window] / unit + i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn set_assoc_cache_matches_reference(
        set_bits in 0u32..4,
        ways in 1u32..6,
        ops in proptest::collection::vec((0u8..12, 0u64..96), 1..400),
    ) {
        let geometry = CacheGeometry {
            capacity: (1 << set_bits) * u64::from(ways) * 64,
            ways,
            line: 64,
            hit_latency: 1,
        };
        let mut new = crate::cache::SetAssocCache::new(&geometry);
        let mut old = set_assoc::SetAssocCache::new(&geometry);
        for (op, line) in ops {
            match op {
                0..=2 => prop_assert_eq!(new.probe(line), old.probe(line)),
                3..=5 => prop_assert_eq!(new.insert(line), old.insert(line)),
                6..=8 => {
                    // The fused access is a probe and, on a miss, an insert.
                    let hit = old.probe(line);
                    if !hit {
                        old.insert(line);
                    }
                    prop_assert_eq!(new.access(line), hit);
                }
                9 => prop_assert_eq!(new.invalidate(line), old.invalidate(line)),
                10 => prop_assert_eq!(new.contains(line), old.contains(line)),
                _ if line < 8 => {
                    new.clear();
                    old.clear();
                }
                _ => {}
            }
            prop_assert_eq!(new.stats(), old.stats());
            prop_assert_eq!(new.occupancy(), old.occupancy());
        }
        for line in 0..96 {
            prop_assert_eq!(new.contains(line), old.contains(line), "line {}", line);
        }
    }

    #[test]
    fn mee_cache_matches_reference(
        capacity in 1usize..10,
        lru in any::<bool>(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..10, 0u8..3, 0u64..16), 1..400),
    ) {
        let (mut new, mut old) = if lru {
            (
                crate::mee::MeeCache::new(capacity),
                mee_cache::MeeCache::new(capacity),
            )
        } else {
            let policy = Replacement::Random(seed);
            (
                crate::mee::MeeCache::with_policy(capacity, policy),
                mee_cache::MeeCache::with_policy(capacity, policy),
            )
        };
        for (op, level, index) in ops {
            let node = NodeId { level, index };
            match op {
                0..=2 => prop_assert_eq!(new.probe(node), old.probe(node)),
                3..=5 => {
                    new.insert(node);
                    old.insert(node);
                }
                6..=8 => {
                    let hit = old.probe(node);
                    if !hit {
                        old.insert(node);
                    }
                    prop_assert_eq!(new.access(node), hit);
                }
                _ if index == 0 => {
                    new.clear();
                    old.clear();
                }
                _ => {}
            }
            prop_assert_eq!(new.stats(), old.stats());
            prop_assert_eq!(new.len(), old.len());
            prop_assert_eq!(new.is_empty(), old.is_empty());
        }
        // Same victims all along means the same nodes are cached now.
        for level in 0..3 {
            for index in 0..16 {
                let node = NodeId { level, index };
                prop_assert_eq!(new.probe(node), old.probe(node), "{:?}", node);
            }
        }
    }

    #[test]
    fn tlb_matches_reference(
        capacity in 1usize..24,
        ops in proptest::collection::vec((0u8..32, block(PAGE_SIZE)), 1..500),
    ) {
        let mut new = crate::tlb::Tlb::new(capacity);
        let mut old = tlb::Tlb::new(capacity);
        for (op, page) in ops {
            if op == 0 {
                new.flush();
                old.flush();
            } else {
                prop_assert_eq!(new.touch(page), old.touch(page));
            }
            prop_assert_eq!(new.stats(), old.stats());
        }
    }

    /// Commits and touches past capacity, with swap images now and then
    /// corrupted so the EWB/ELDU MAC check fails on both sides alike.
    #[test]
    fn epc_matches_reference(
        capacity in 1u64..12,
        ops in proptest::collection::vec((0u8..16, 0u64..40), 1..300),
    ) {
        let config = PagingConfig {
            epc_bytes: capacity * PAGE_SIZE,
            ewb: 7_000,
            eldu: 7_000,
            fault_overhead: 5_000,
        };
        let mut new = crate::epc::Epc::new(config);
        let mut old = epc::Epc::new(config);
        prop_assert_eq!(new.capacity_pages(), old.capacity_pages());
        let first_page = PRM_BASE / PAGE_SIZE;
        for (op, n) in ops {
            // Pages 0..40 from the window base: committed ones and, past
            // them, uncommitted ones.
            let page = first_page + n;
            match op {
                0 => prop_assert_eq!(new.commit(7, n % 6 + 1), old.commit(7, n % 6 + 1)),
                1 => prop_assert_eq!(
                    new.corrupt_swapped_page(page),
                    old.corrupt_swapped_page(page)
                ),
                2 => prop_assert_eq!(new.touch(n), old.touch(n), "below the window"),
                _ => prop_assert_eq!(new.touch(page), old.touch(page)),
            }
            prop_assert_eq!(new.stats(), old.stats());
            prop_assert_eq!(new.resident_pages(), old.resident_pages());
            prop_assert_eq!(new.is_committed(page), old.is_committed(page));
        }
    }
}
