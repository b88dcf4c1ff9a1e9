//! The byte-payload hot path: arena-backed buffers over the submission
//! ring.
//!
//! A byte plane *is* a [`RingServer`]: [`ByteRing`] names it at `HotBuf`
//! payloads, and its one payload-specific method, [`ByteRing::caller`],
//! pairs the ring's one requester with its own [`SlabArena`]: a request
//! buffer is acquired from the arena (inline for cache-line-sized
//! payloads, a recycled slab otherwise), travels through the ring *by
//! value*, is transformed **in place** by the handler — the same buffer
//! carries the response back — and returns to the arena when redeemed.
//! Steady state does zero per-call heap work: small payloads never touch
//! the heap, large ones cycle through the per-size-class free lists.
//!
//! Handlers see `(request_len, &mut [u8])` over the buffer's full capacity
//! and return the response length. Capacity beyond the request holds
//! whatever the previous call left there — the NRZ discipline: write your
//! response, report its length, and nobody pays for zeroing in between.

use crate::error::Result;

use super::arena::{ArenaStats, HotBuf, SlabArena};
use super::ring::{RingRequester, RingServer, Ticket};
use super::CallTable;

/// A call table whose handlers transform byte payloads in place.
#[derive(Debug, Default)]
pub struct ByteCallTable {
    inner: CallTable<HotBuf, HotBuf>,
}

impl ByteCallTable {
    /// An empty table.
    pub fn new() -> Self {
        ByteCallTable::default()
    }

    /// Registers a handler and returns its call id.
    ///
    /// The handler receives the request length and the buffer's **full
    /// capacity** as a mutable slice (bytes past the request length are
    /// unspecified garbage — recycled memory is not zeroed), writes its
    /// response from offset 0, and returns the response length, which is
    /// clamped to the capacity.
    pub fn register<F>(&mut self, handler: F) -> u32
    where
        F: Fn(usize, &mut [u8]) -> usize + Send + Sync + 'static,
    {
        self.inner.register(move |mut buf: HotBuf| {
            let req_len = buf.len();
            let cap = buf.capacity();
            let resp_len = handler(req_len, buf.raw_mut()).min(cap);
            buf.set_len(resp_len);
            buf
        })
    }
}

impl From<ByteCallTable> for CallTable<HotBuf, HotBuf> {
    fn from(table: ByteCallTable) -> Self {
        table.inner
    }
}

/// A running byte-payload ring: the one plane server at `HotBuf`
/// payloads, with in-place handlers from a [`ByteCallTable`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{ByteCallTable, ByteRing};
/// use hotcalls::HotCallConfig;
///
/// let mut table = ByteCallTable::new();
/// let upper = table.register(|n, buf| {
///     buf[..n].make_ascii_uppercase();
///     n
/// });
/// let ring = ByteRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
/// let mut caller = ring.caller();
/// let n = caller
///     .call_with(upper, b"hotcalls", 0, |resp| {
///         assert_eq!(resp, b"HOTCALLS");
///         resp.len()
///     })
///     .unwrap();
/// assert_eq!(n, 8);
/// assert_eq!(caller.arena_stats().inline_hits, 1);
/// assert_eq!(ring.stats().calls, 1);
/// ```
pub type ByteRing = RingServer<HotBuf, HotBuf>;

impl RingServer<HotBuf, HotBuf> {
    /// The ring's one requester handle (see [`RingServer::requester`])
    /// with its own private arena (no cross-thread coordination on the
    /// buffer path).
    ///
    /// # Panics
    ///
    /// As [`RingServer::requester`]: if a handle of this plane is alive.
    pub fn caller(&self) -> ByteCaller {
        ByteCaller {
            requester: self.requester(),
            arena: SlabArena::new(),
        }
    }
}

/// A byte-call handle owning the arena its payloads cycle through.
#[derive(Debug)]
pub struct ByteCaller {
    requester: RingRequester<HotBuf, HotBuf>,
    arena: SlabArena,
}

impl ByteCaller {
    /// Issues a call carrying `data`, with room for a response of up to
    /// `out_capacity` bytes, and returns the response length. The payload
    /// buffer is recycled into the arena on return.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call`]. On error the in-flight buffer is lost
    /// to the slot (freed on shutdown), not recycled.
    pub fn call(&mut self, id: u32, data: &[u8], out_capacity: usize) -> Result<usize> {
        self.call_with(id, data, out_capacity, <[u8]>::len)
    }

    /// Issues a call and hands the response bytes to `read` before the
    /// buffer is recycled — the zero-copy way to consume a response.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call`].
    pub fn call_with<R>(
        &mut self,
        id: u32,
        data: &[u8],
        out_capacity: usize,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let buf = self.arena.acquire(data, out_capacity);
        let resp = self.requester.call(id, buf)?;
        let r = read(resp.as_slice());
        self.arena.recycle(resp);
        Ok(r)
    }

    /// Submits a call without waiting: the pipelined byte path. The
    /// request is staged into an arena buffer (inline for small payloads)
    /// and travels through the ring while the caller keeps working; redeem
    /// with [`ByteCaller::wait_any_with`].
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`]. On error the staged buffer is lost to
    /// the slot (freed on shutdown), not recycled.
    pub fn submit(&mut self, id: u32, data: &[u8], out_capacity: usize) -> Result<Ticket> {
        let buf = self.arena.acquire(data, out_capacity);
        self.requester.submit(id, buf)
    }

    /// Waits for the oldest of `tickets` to complete (removing it from the
    /// set; see [`RingRequester::wait_any`]), hands its response bytes to
    /// `read`, and recycles the buffer.
    /// Returns the completed submission's sequence number (see
    /// [`Ticket::seq`]) alongside `read`'s result.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait_any`].
    pub fn wait_any_with<R>(
        &mut self,
        tickets: &mut Vec<Ticket>,
        read: impl FnOnce(u64, &[u8]) -> R,
    ) -> Result<(u64, R)> {
        let (seq, resp) = self.requester.wait_any(tickets)?;
        let r = read(seq, resp.as_slice());
        self.arena.recycle(resp);
        Ok((seq, r))
    }

    /// Counters of this caller's private arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HotCallConfig;

    fn echo_table() -> (ByteCallTable, u32, u32) {
        let mut t = ByteCallTable::new();
        let rev = t.register(|n, buf| {
            buf[..n].reverse();
            n
        });
        // An `out`-style handler: ignores the request body, reads the
        // requested response size from an 8-byte header, fills that many
        // bytes.
        let produce = t.register(|n, buf| {
            assert!(n >= 8);
            let want = u64::from_le_bytes(buf[..8].try_into().unwrap()) as usize;
            let want = want.min(buf.len());
            buf[..want].fill(0xAB);
            want
        });
        (t, rev, produce)
    }

    #[test]
    fn inline_payloads_roundtrip_in_place() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        for _ in 0..100 {
            caller
                .call_with(rev, b"abcdef", 0, |resp| assert_eq!(resp, b"fedcba"))
                .unwrap();
        }
        let stats = caller.arena_stats();
        assert_eq!(stats.inline_hits, 100);
        assert_eq!(stats.allocs, 0, "inline path must never touch the heap");
        assert_eq!(ring.stats().calls, 100);
    }

    #[test]
    fn slab_payloads_recycle_in_steady_state() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let data = vec![7u8; 2000];
        for _ in 0..50 {
            let n = caller.call(rev, &data, 0).unwrap();
            assert_eq!(n, 2000);
        }
        let stats = caller.arena_stats();
        assert_eq!(stats.allocs, 1, "one cold alloc, then reuse");
        assert_eq!(stats.recycles, 49);
    }

    #[test]
    fn out_style_call_grows_into_its_capacity() {
        let (t, _, produce) = echo_table();
        let ring = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let want = 1500u64.to_le_bytes();
        let n = caller
            .call_with(produce, &want, 1500, |resp| {
                assert!(resp.iter().all(|&b| b == 0xAB));
                resp.len()
            })
            .unwrap();
        assert_eq!(n, 1500);
        // 8-byte request, 1500-byte response: the capacity hint routed it
        // to a slab big enough for the reply.
        assert_eq!(caller.arena_stats().allocs, 1);
    }

    #[test]
    fn pipelined_byte_calls_recycle_buffers() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 16, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        let payload = vec![9u8; 700];
        for _ in 0..20 {
            let mut tickets: Vec<Ticket> = (0..8)
                .map(|_| caller.submit(rev, &payload, 0).unwrap())
                .collect();
            while !tickets.is_empty() {
                let (_, n) = caller
                    .wait_any_with(&mut tickets, |_, resp| resp.len())
                    .unwrap();
                assert_eq!(n, 700);
            }
        }
        // 8 buffers in flight at once: at most 8 cold allocs ever, the
        // rest recycled.
        let s = caller.arena_stats();
        assert!(s.allocs <= 8, "pipelined arena leaked allocs: {s:?}");
        assert_eq!(ring.stats().calls, 160);
    }

    #[test]
    fn pooled_byte_ring_serves_and_reports_governor() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 8, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        for _ in 0..100 {
            caller
                .call_with(rev, b"abcd", 0, |resp| assert_eq!(resp, b"dcba"))
                .unwrap();
        }
        let g = ring.governor_stats();
        assert_eq!((g.active, g.min, g.max, g.parks), (1, 1, 1, 0));
        assert_eq!(ring.stats().calls, 100);
    }

    #[test]
    fn byte_ring_reports_its_occupancy_and_name() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let mut caller = ring.caller();
        caller.call(rev, b"ab", 0).unwrap();
        let rs = ring.ring_stats();
        assert_eq!(rs.occupancy, 0);
        assert_eq!(rs.totals.calls - rs.totals.fused_runs, 1);
        assert_eq!(ring.telemetry("b").name, "b");
    }

    /// Calls until one ran inline: the responder then dozes, and a fused
    /// call wakes nobody.
    fn await_fusing(ring: &ByteRing, caller: &mut ByteCaller, id: u32) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let before = ring.stats().fused_runs;
            caller.call(id, b"ab", 0).unwrap();
            if ring.stats().fused_runs > before {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "never fused");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn fused_byte_calls_run_inline_and_recycle() {
        let fused = HotCallConfig {
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let (t, rev, _) = echo_table();
        let small = ByteRing::spawn_pool(t, 4, 1, fused).unwrap();
        let (t, _, _) = echo_table();
        let large = ByteRing::spawn_pool(t, 8, 1, fused).unwrap();
        for ring in [small, large] {
            let mut caller = ring.caller();
            await_fusing(&ring, &mut caller, rev);
            let before = ring.stats();
            let hits_before = caller.arena_stats().inline_hits;
            for _ in 0..100 {
                caller
                    .call_with(rev, b"abcdef", 0, |resp| assert_eq!(resp, b"fedcba"))
                    .unwrap();
            }
            let stats = caller.arena_stats();
            assert_eq!(stats.inline_hits - hits_before, 100);
            assert_eq!(stats.allocs, 0, "fused path must stay heap-free too");
            let s = ring.stats();
            assert_eq!(s.calls - before.calls, 100);
            assert_eq!(s.fused_runs - before.fused_runs, 100, "{s:?}");
        }
    }
}
