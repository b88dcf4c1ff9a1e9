//! The EPC-aware streaming chunk sizer.
//!
//! [`ChunkSizer`] is a one-way ratchet that halves a streaming chunk while
//! the EPC's paging bill per streamed byte stays high. Every input is
//! handed in by the caller — the paging counters of each streamed window
//! — so it decides the same in every build.

use crate::error::{HotCallError, Result};

/// Paging cycles per streamed byte above which the chunk sizer halves the
/// chunk.
const CHUNK_SHRINK_ABOVE: f64 = 0.5;
/// The chunk sizer's floor is the max chunk divided by this.
const CHUNK_FLOOR_DIVISOR: usize = 16;
/// Windows the chunk sizer holds still after a move: the paging counters
/// need a window at the new size (the post-shrink refault transient has
/// to drain) before they mean anything.
const CHUNK_HOLD_WINDOWS: u32 = 2;

/// The EPC-aware streaming chunk sizer, a one-way ratchet. The rule is a
/// bandwidth break-even: a streamed chunk that fits the resident EPC
/// costs only its marshalling, while one that pushes the enclave's
/// working set past the paging cliff pays EWB/ELDU per byte. Fed each
/// window's paging-cycle bill and byte count, the sizer starts at the
/// max chunk and halves it while the bill exceeds 0.5 cycles per
/// streamed byte, down to a floor of a sixteenth of the max, holding two
/// windows after each move. It never grows: a probed cliff is never
/// re-entered.
#[derive(Debug)]
pub struct ChunkSizer {
    chunk: usize,
    floor: usize,
    hold: u32,
    shrinks: u64,
}

impl ChunkSizer {
    /// A sizer starting at `max_chunk` bytes.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for a zero `max_chunk`.
    pub fn new(max_chunk: usize) -> Result<Self> {
        if max_chunk == 0 {
            return Err(HotCallError::InvalidConfig(
                "chunk sizer needs a positive max chunk",
            ));
        }
        Ok(ChunkSizer {
            chunk: max_chunk,
            floor: (max_chunk / CHUNK_FLOOR_DIVISOR).max(1),
            hold: 0,
            shrinks: 0,
        })
    }

    /// The chunk size the next submission should use.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk
    }

    /// Halvings so far.
    pub fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Reports one streamed window: `paging_cycles` charged by the EPC
    /// while `bytes` moved. Returns the new chunk size if the window
    /// halved it, `None` otherwise. Zero-byte windows are ignored (no
    /// rate to read) and do not count toward a hold.
    pub fn observe(&mut self, paging_cycles: u64, bytes: u64) -> Option<usize> {
        if bytes == 0 {
            return None;
        }
        if self.hold > 0 {
            self.hold -= 1;
            return None;
        }
        if paging_cycles as f64 / bytes as f64 <= CHUNK_SHRINK_ABOVE || self.chunk == self.floor {
            return None;
        }
        self.chunk = (self.chunk / 2).max(self.floor);
        self.shrinks += 1;
        self.hold = CHUNK_HOLD_WINDOWS;
        Some(self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sizer_is_a_one_way_ratchet() {
        const MAX: usize = 1 << 20;
        // 600 paging cycles per 1 000 bytes: over the 0.5 watermark.
        const THRASH: u64 = 600;
        let mut sizer = ChunkSizer::new(MAX).unwrap();
        assert_eq!(sizer.chunk_bytes(), MAX, "starts at max");
        // One window per row: its paging cycles and bytes, the chunk after
        // it, and the rule the row pins. `observe` must answer the new
        // chunk exactly when it moved.
        let table: &[(u64, u64, usize, &str)] = &[
            (THRASH, 1_000, MAX / 2, "a window above 0.5 halves"),
            (THRASH, 1_000, MAX / 2, "hold 1 of 2"),
            (10_000, 0, MAX / 2, "a zero-byte window is no hold"),
            (THRASH, 1_000, MAX / 2, "hold 2 of 2"),
            (THRASH, 1_000, MAX / 4, "halves right after the hold"),
            (0, 1_000, MAX / 4, "hold 1 of 2"),
            (0, 1_000, MAX / 4, "hold 2 of 2"),
            (0, 1_000, MAX / 4, "a zero-paging window never grows"),
            (500, 1_000, MAX / 4, "exactly 0.5 is not above it"),
            (THRASH, 1_000, MAX / 8, "halves"),
            (THRASH, 1_000, MAX / 8, "hold 1 of 2"),
            (THRASH, 1_000, MAX / 8, "hold 2 of 2"),
            (THRASH, 1_000, MAX / 16, "halves onto the floor"),
            (THRASH, 1_000, MAX / 16, "hold 1 of 2"),
            (THRASH, 1_000, MAX / 16, "hold 2 of 2"),
            (5_000_000, 1_000, MAX / 16, "the floor holds"),
            (5_000_000, 1_000, MAX / 16, "and stays"),
        ];
        for (i, &(paging, bytes, chunk, rule)) in table.iter().enumerate() {
            let moved = (chunk != sizer.chunk_bytes()).then_some(chunk);
            assert_eq!(sizer.observe(paging, bytes), moved, "row {i}: {rule}");
            assert_eq!(sizer.chunk_bytes(), chunk, "row {i}: {rule}");
        }
        assert_eq!(sizer.shrinks(), 4);
        let mut tiny = ChunkSizer::new(2).unwrap();
        assert_eq!(tiny.observe(THRASH, 1_000), Some(1), "floor of 1, not 0");
        assert!(ChunkSizer::new(0).is_err(), "a zero max is refused");
    }
}
