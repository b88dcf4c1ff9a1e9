//! Byte-accurate staging twin of [`crate::marshal`].
//!
//! `sgx-sim` is a pure cycle model — it charges for copies and zeroing but
//! stores no byte contents, so it cannot *witness* that No-Redundant-Zeroing
//! leaves observable bytes untouched. This module re-implements the staging
//! data movement on real `Vec<u8>` memory with the same per-direction
//! policy, so tests can assert byte-for-byte equivalence between the
//! SDK-faithful (zeroing) and NRZ (eliding) marshallers.
//!
//! Fidelity points that matter for the equivalence argument:
//!
//! * The scratch region is **reused across calls and never cleared** — like
//!   the ocall stack frame and the HotCalls shared buffer, it retains
//!   whatever the previous call left behind. Under NRZ a callee genuinely
//!   sees stale garbage in its `out` regions.
//! * Fresh scratch growth is poisoned with `0xA5`, never zero, so a test
//!   cannot pass by accident on conveniently-zero memory.
//! * The zeroing policy mirrors [`crate::marshal::stage`]: the SDK-faithful
//!   untrusted proxy zeroes `out` *and* `in&out` staging regions (the
//!   whole-frame `memset`); NRZ elides both.

use crate::edl::Direction;

/// The poison byte used for never-touched scratch memory.
pub(crate) const POISON: u8 = 0xA5;

/// A reusable untrusted staging region holding real bytes.
///
/// One instance models one ocall stack frame / HotCalls channel buffer:
/// call it repeatedly and each call stages over whatever the previous call
/// left behind, exactly the condition NRZ must be safe under.
#[derive(Debug, Default)]
pub struct ByteStaging {
    scratch: Vec<u8>,
}

/// Where one buffer landed in the scratch region.
#[derive(Debug, Clone, Copy)]
struct ByteStaged {
    offset: usize,
    len: usize,
    direction: Direction,
}

impl ByteStaging {
    /// A fresh, empty staging region.
    pub fn new() -> Self {
        ByteStaging::default()
    }

    /// Ensures capacity for `len` more bytes, poisoning any growth.
    fn grow_to(&mut self, len: usize) {
        if self.scratch.len() < len {
            self.scratch.resize(len, POISON);
        }
    }

    /// Runs one marshalled call over real bytes.
    ///
    /// Each element of `bufs` is a caller buffer plus its EDL transfer
    /// mode. The callee is invoked once per buffer, in declaration order,
    /// with the buffer's index and the bytes it is allowed to see:
    ///
    /// * `user_check` — the caller bytes themselves (zero-copy);
    /// * `in` / `in&out` / `out` — the staged copy.
    ///
    /// When `nrz` is false the staged region is zeroed for `out` and
    /// `in&out` before any copy-in (the SDK-faithful whole-frame `memset`);
    /// when `nrz` is true that zeroing is skipped and `out` regions expose
    /// whatever bytes the previous call left. After the callee runs,
    /// `out`/`in&out` staged bytes are copied back to the caller.
    pub fn run_call(
        &mut self,
        bufs: &mut [(Vec<u8>, Direction)],
        nrz: bool,
        mut callee: impl FnMut(usize, &mut [u8]),
    ) {
        // Carve disjoint 64-byte-aligned regions, like StagingArea::alloc.
        let mut staged = Vec::with_capacity(bufs.len());
        let mut offset = 0usize;
        for (caller, direction) in bufs.iter() {
            if *direction == Direction::UserCheck {
                staged.push(None);
                continue;
            }
            let aligned = (offset + 63) & !63;
            staged.push(Some(ByteStaged {
                offset: aligned,
                len: caller.len(),
                direction: *direction,
            }));
            offset = aligned + caller.len();
        }
        self.grow_to(offset);

        // Stage in: zero (or don't), then copy callee-bound data.
        for (s, (caller, _)) in staged.iter().zip(bufs.iter()) {
            let Some(s) = s else { continue };
            let region = &mut self.scratch[s.offset..s.offset + s.len];
            match s.direction {
                Direction::Out => {
                    if !nrz {
                        region.fill(0);
                    }
                }
                Direction::InOut => {
                    if !nrz {
                        region.fill(0);
                    }
                    region.copy_from_slice(caller);
                }
                Direction::In => region.copy_from_slice(caller),
                Direction::UserCheck => unreachable!("not staged"),
            }
        }

        // Callee body: sees staged copies (or the original for user_check).
        for (i, (s, (caller, _))) in staged.iter().zip(bufs.iter_mut()).enumerate() {
            match s {
                None => callee(i, caller.as_mut_slice()),
                Some(s) => callee(i, &mut self.scratch[s.offset..s.offset + s.len]),
            }
        }

        // Unstage: copy caller-bound data back.
        for (s, (caller, _)) in staged.iter().zip(bufs.iter_mut()) {
            let Some(s) = s else { continue };
            if matches!(s.direction, Direction::Out | Direction::InOut) {
                caller.copy_from_slice(&self.scratch[s.offset..s.offset + s.len]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nrz_exposes_stale_bytes_to_a_lazy_callee() {
        let mut staging = ByteStaging::new();
        // First call leaves a distinctive pattern in scratch.
        let mut first = [(vec![0u8; 128], Direction::Out)];
        staging.run_call(&mut first, false, |_, b| b.fill(0xEE));
        // Second call's callee writes nothing: under NRZ it reads back the
        // previous call's garbage, under zeroing it reads zeros. This is the
        // hazard NRZ accepts — and why it is only safe for callees that
        // fully write their out buffers.
        let mut zeroed = [(vec![1u8; 128], Direction::Out)];
        staging.run_call(&mut zeroed, false, |_, _| {});
        assert!(zeroed[0].0.iter().all(|&b| b == 0));
        staging.run_call(&mut first, false, |_, b| b.fill(0xEE));
        let mut stale = [(vec![1u8; 128], Direction::Out)];
        staging.run_call(&mut stale, true, |_, _| {});
        assert!(stale[0].0.iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn fresh_scratch_is_poisoned_not_zero() {
        let mut staging = ByteStaging::new();
        let mut bufs = [(vec![0u8; 64], Direction::Out)];
        staging.run_call(&mut bufs, true, |_, b| {
            assert!(b.iter().all(|&x| x == POISON));
            b.fill(7);
        });
        assert!(bufs[0].0.iter().all(|&b| b == 7));
    }

    #[test]
    fn user_check_passes_caller_bytes_through() {
        let mut staging = ByteStaging::new();
        let mut bufs = [(vec![3u8; 32], Direction::UserCheck)];
        staging.run_call(&mut bufs, true, |_, b| {
            assert!(b.iter().all(|&x| x == 3));
            b[0] = 9;
        });
        assert_eq!(bufs[0].0[0], 9);
    }
}
