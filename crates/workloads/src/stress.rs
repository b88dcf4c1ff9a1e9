//! Stress-SGX-style object workload generators for the streaming data
//! path.
//!
//! Stress-ng's SGX descendant drives enclaves with working sets chosen to
//! sit on either side of the EPC paging cliff; [`cliff_ramp`] does the
//! same for the streaming storage path: sizes double from well under the
//! EPC capacity to several times over it, so a single run *crosses the
//! paging cliff mid-run* (the adaptive chunker's raison d'être). It emits
//! a deterministic list of [`ObjectSpec`]s — name, size, content seed,
//! dedup ratio — and [`ObjectSpec::fill`] materializes the bytes, so a
//! bench can replay the exact same object stream across interface modes
//! and chunking policies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Content block size used for dedup-controlled fills (matches the
/// storage app's dedup/auth block).
pub const STRESS_BLOCK: usize = 4096;

/// One object of a stress workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Object name (unique within the workload).
    pub name: String,
    /// Object size in bytes.
    pub bytes: usize,
    /// Content seed: equal seeds reproduce equal bytes.
    pub seed: u64,
    /// Fraction of the object's 4 KiB blocks drawn from a small shared
    /// pool (0.0 = all-unique content, 1.0 = maximally dedupable).
    pub dedup_fraction: f64,
}

impl ObjectSpec {
    /// Materializes the object's bytes, deterministically from the spec.
    /// Blocks are either drawn from the shared canonical pool (with
    /// probability [`ObjectSpec::dedup_fraction`]) or filled with
    /// spec-seeded pseudorandom bytes.
    pub fn fill(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.bytes];
        let mut rng = StdRng::seed_from_u64(self.seed);
        for block in out.chunks_mut(STRESS_BLOCK) {
            if rng.gen::<f64>() < self.dedup_fraction {
                let canon = canonical_block(rng.gen_range(0..CANONICAL_POOL));
                block.copy_from_slice(&canon[..block.len()]);
            } else {
                rng.fill(block);
            }
        }
        out
    }
}

/// Size of the shared canonical-block pool dedupable fills draw from.
const CANONICAL_POOL: u64 = 16;

fn canonical_block(index: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0xD00D_0000 ^ index);
    let mut block = vec![0u8; STRESS_BLOCK];
    rng.fill(&mut block[..]);
    block
}

/// Working sets that cross the EPC paging cliff mid-run: object sizes
/// double from `epc_bytes / 8` until they exceed `4 * epc_bytes`, so the
/// early objects stream EPC-resident and the late ones thrash. Content
/// is unique (no dedup shortcut softening the paging cost).
pub fn cliff_ramp(epc_bytes: usize, seed: u64) -> Vec<ObjectSpec> {
    let mut specs = Vec::new();
    let mut bytes = (epc_bytes / 8).max(STRESS_BLOCK);
    let mut i = 0;
    while bytes <= epc_bytes.saturating_mul(4) {
        specs.push(ObjectSpec {
            name: format!("cliff-{i}"),
            bytes,
            seed: seed.wrapping_add(i),
            dedup_fraction: 0.0,
        });
        bytes *= 2;
        i += 1;
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_are_deterministic() {
        let spec = ObjectSpec {
            name: "x".into(),
            bytes: 100_000,
            seed: 42,
            dedup_fraction: 0.5,
        };
        assert_eq!(spec.fill(), spec.fill());
        let other = ObjectSpec {
            seed: 43,
            ..spec.clone()
        };
        assert_ne!(spec.fill(), other.fill());
    }

    #[test]
    fn cliff_ramp_spans_the_epc_capacity() {
        let epc = 8 << 20;
        let specs = cliff_ramp(epc, 7);
        assert!(specs.first().unwrap().bytes < epc);
        assert!(specs.last().unwrap().bytes > epc, "{specs:?}");
        // Sizes strictly double.
        for w in specs.windows(2) {
            assert_eq!(w[1].bytes, w[0].bytes * 2);
        }
    }

    #[test]
    fn dedup_fraction_produces_repeated_blocks() {
        let spec = ObjectSpec {
            name: "d".into(),
            bytes: 64 * STRESS_BLOCK,
            seed: 5,
            dedup_fraction: 1.0,
        };
        let data = spec.fill();
        let mut blocks: Vec<&[u8]> = data.chunks(STRESS_BLOCK).collect();
        blocks.sort();
        blocks.dedup();
        assert!(
            blocks.len() <= CANONICAL_POOL as usize,
            "fully dedupable fill draws only canonical blocks"
        );
    }
}
