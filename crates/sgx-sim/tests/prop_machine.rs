//! Property tests over the machine model's invariants.

use proptest::prelude::*;

use sgx_sim::{AccessKind, Cycles, EnclaveBuildOptions, Machine, SimConfig};

fn machine() -> Machine {
    Machine::new(SimConfig::builder().deterministic().build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Virtual time is monotone under any access sequence, and every
    /// access has positive cost.
    #[test]
    fn clock_monotone_and_costs_positive(
        offsets in proptest::collection::vec((0u64..65_536, 1u64..256, any::<bool>()), 1..200),
    ) {
        let mut m = machine();
        let base = m.alloc_untrusted(1 << 17, 64);
        let mut last = m.now();
        for (off, len, write) in offsets {
            let len = len.min((1 << 17) - off);
            if len == 0 { continue; }
            let cost = if write {
                m.write(base.offset(off), len).unwrap()
            } else {
                m.read(base.offset(off), len).unwrap()
            };
            prop_assert!(cost > Cycles::ZERO);
            prop_assert!(m.now() >= last + cost);
            last = m.now();
        }
    }

    /// Re-reading any just-read line is never more expensive (cache
    /// warmth only helps).
    #[test]
    fn rereads_never_cost_more(addr_offs in proptest::collection::vec(0u64..16_384, 1..100)) {
        let mut m = machine();
        let base = m.alloc_untrusted(1 << 15, 64);
        for off in addr_offs {
            let off = off & !63;
            let first = m.read(base.offset(off), 8).unwrap();
            let second = m.read(base.offset(off), 8).unwrap();
            prop_assert!(second <= first, "warm read {second} > cold-ish read {first}");
        }
    }

    /// Encrypted reads cost at least as much as plaintext reads for the
    /// same (cold) access pattern.
    #[test]
    fn encrypted_never_cheaper(len in 64u64..8_192) {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let enc = m.alloc_enclave_heap(eid, 8_192, 64).unwrap();
        let plain = m.alloc_untrusted(8_192, 64);
        // Warm both (page-in), then flush for a fair cold comparison.
        m.read(enc, len).unwrap();
        m.read(plain, len).unwrap();
        m.flush_all_caches();
        let enc_cost = m.read(enc, len).unwrap();
        m.flush_all_caches();
        let plain_cost = m.read(plain, len).unwrap();
        prop_assert!(
            enc_cost >= plain_cost,
            "encrypted {enc_cost} < plaintext {plain_cost} for len {len}"
        );
    }

    /// Enclave entry/exit pairs always balance: after any sequence of
    /// eenter/eexit attempts, a final exit fails iff we are not inside.
    #[test]
    fn entry_exit_state_machine(ops in proptest::collection::vec(any::<bool>(), 1..60)) {
        let mut m = machine();
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let mut inside = false;
        for enter in ops {
            if enter {
                let r = m.eenter(eid, 0);
                prop_assert_eq!(r.is_ok(), !inside);
                if r.is_ok() { inside = true; }
            } else {
                let r = m.eexit(eid, 0);
                prop_assert_eq!(r.is_ok(), inside);
                if r.is_ok() { inside = false; }
            }
        }
    }

    /// The deterministic configuration is reproducible: identical access
    /// sequences cost identical cycles.
    #[test]
    fn determinism(seq in proptest::collection::vec((0u64..4_096, any::<bool>()), 1..120)) {
        let run = |seq: &[(u64, bool)]| {
            let mut m = machine();
            let base = m.alloc_untrusted(1 << 13, 64);
            for &(off, w) in seq {
                if w {
                    m.write(base.offset(off & !7), 8).unwrap();
                } else {
                    m.read(base.offset(off & !7), 8).unwrap();
                }
            }
            m.now()
        };
        prop_assert_eq!(run(&seq), run(&seq));
    }
}

#[test]
fn access_kind_is_plain_data() {
    // Keep the public enum honest (Send + Sync + Copy).
    fn assert_traits<T: Send + Sync + Copy>() {}
    assert_traits::<AccessKind>();
}

mod epc_properties {
    use proptest::prelude::*;
    use sgx_sim::Epc;
    use sgx_sim::PagingConfig;
    use sgx_sim::PAGE_SIZE;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Residency never exceeds physical capacity, whatever the touch
        /// sequence; every touch of a committed page succeeds.
        #[test]
        fn residency_bounded_by_capacity(
            capacity in 2u64..32,
            committed in 1u64..64,
            touches in proptest::collection::vec(0u64..64, 1..300),
        ) {
            let mut epc = Epc::new(PagingConfig {
                epc_bytes: capacity * PAGE_SIZE,
                ewb: 7_000,
                eldu: 7_000,
                fault_overhead: 5_000,
            });
            let (base, _) = epc.commit(1, committed).unwrap();
            prop_assert!(epc.resident_pages() <= capacity);
            for t in touches {
                let page = base.offset((t % committed) * PAGE_SIZE).page();
                let touch = epc.touch(page).unwrap();
                prop_assert!(epc.resident_pages() <= capacity);
                // A touch that paged in must charge at least fault+ELDU.
                if touch.paged_in {
                    prop_assert!(touch.cost.get() >= 12_000);
                } else {
                    prop_assert_eq!(touch.cost.get(), 0);
                }
                // Immediately re-touching is free (the page is resident).
                let again = epc.touch(page).unwrap();
                prop_assert!(!again.paged_in);
            }
            // Conservation: every ELDU besides commit-time thrash pairs
            // with a prior EWB of some victim.
            let stats = epc.stats();
            prop_assert!(stats.eldu <= stats.ewb + committed);
        }
    }
}

mod mee_properties {
    use proptest::prelude::*;
    use sgx_sim::mee::{AccessPattern, Mee};
    use sgx_sim::SimConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Load cost is bounded: at least the crypto, at most crypto plus a
        /// full tree walk; and repeating the same line immediately never
        /// costs more than the first access.
        #[test]
        fn walk_cost_bounds(lines in proptest::collection::vec(0u64..100_000, 1..200)) {
            let cfg = SimConfig::default().mee;
            let mut mee = Mee::new(93 * 1024 * 1024, cfg);
            let levels = u64::from(mee.tree().levels());
            for line in lines {
                let first = mee.load_cost(line, AccessPattern::Demand).get();
                prop_assert!(first >= cfg.crypto_load);
                prop_assert!(first <= cfg.crypto_load + levels * cfg.node_fetch);
                let second = mee.load_cost(line, AccessPattern::Demand).get();
                prop_assert!(second <= first, "repeat walk must not lengthen");
            }
        }

        /// Write-backs bump versions by exactly one, monotonically.
        #[test]
        fn versions_monotone(ops in proptest::collection::vec((0u64..4_096, any::<bool>()), 1..300)) {
            let mut mee = Mee::new(16 << 20, SimConfig::default().mee);
            let mut model: std::collections::HashMap<u64, u64> = Default::default();
            for (line, streamed) in ops {
                let pattern = if streamed { AccessPattern::Streamed } else { AccessPattern::Demand };
                mee.writeback_cost(line, pattern);
                *model.entry(line).or_insert(0) += 1;
                prop_assert_eq!(mee.tree().version(line), model[&line]);
            }
        }
    }
}
