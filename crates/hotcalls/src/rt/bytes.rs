//! The byte-payload hot path: arena-backed buffers over the submission
//! ring.
//!
//! [`ByteRing`] specializes [`super::RingServer`] — ring or sharded, it is
//! one type — to `HotBuf` payloads and pairs every caller with its own [`SlabArena`]: a request buffer is
//! acquired from the arena (inline for cache-line-sized payloads, a
//! recycled slab otherwise), travels through the ring *by value*, is
//! transformed **in place** by the handler — the same buffer carries the
//! response back — and returns to the arena when redeemed. Steady state
//! does zero per-call heap work: small payloads never touch the heap,
//! large ones cycle through the per-size-class free lists.
//!
//! Handlers see `(request_len, &mut [u8])` over the buffer's full capacity
//! and return the response length. Capacity beyond the request holds
//! whatever the previous call left there — the NRZ discipline: write your
//! response, report its length, and nobody pays for zeroing in between.

use crate::config::{
    GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy, RingStats, ShardPolicy,
};
use crate::error::Result;
use crate::telemetry::{PlaneProvider, PlaneTelemetry};

use super::arena::{ArenaStats, HotBuf, SlabArena};
use super::ring::{Bundle, RingRequester, RingServer, Ticket};
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

/// A running byte-payload ring: responder pool + in-place handlers.
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
/// ```
#[derive(Debug)]
pub struct ByteRing {
    server: RingServer<HotBuf, HotBuf>,
}

impl ByteRing {
    /// Spawns `n_responders` threads draining a ring of `capacity` slots.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_pool`].
    pub fn spawn_pool(
        table: ByteCallTable,
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_pool(table.inner, capacity, n_responders, config)
            .map(|server| ByteRing { server })
    }

    /// Spawns an adaptive pool governed by `policy` (see
    /// [`RingServer::spawn_adaptive`]): between `policy.min` and
    /// `policy.max` responders active, surplus parked when idle, woken on
    /// backlog.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_adaptive`].
    pub fn spawn_adaptive(
        table: ByteCallTable,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_adaptive(table.inner, capacity, policy, config)
            .map(|server| ByteRing { server })
    }

    /// Spawns the sharded shape (see [`RingServer::spawn_sharded`]):
    /// `policy.resolved_shards()` independent rings of
    /// `capacity_per_shard` slots each, one work-stealing responder per
    /// shard, callers pinned to home shards by the router.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_sharded`].
    pub fn spawn_sharded(
        table: ByteCallTable,
        capacity_per_shard: usize,
        policy: ShardPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        RingServer::spawn_sharded(table.inner, capacity_per_shard, policy, config)
            .map(|server| ByteRing { server })
    }

    /// A caller handle with its own private arena (no cross-thread
    /// coordination on the buffer path), pinned to a router-chosen home
    /// shard (always shard 0 on a single-ring plane).
    pub fn caller(&self) -> ByteCaller {
        ByteCaller {
            requester: self.server.requester(),
            arena: SlabArena::new(),
        }
    }

    /// A caller pinned to an explicit home shard — the affinity override
    /// for workloads that partition connections themselves. On a
    /// single-ring plane only shard 0 exists.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] if `shard` is out of range.
    pub fn caller_on(&self, shard: usize) -> Result<ByteCaller> {
        Ok(ByteCaller {
            requester: self.server.requester_on(shard)?,
            arena: SlabArena::new(),
        })
    }

    /// Number of responder threads in the pool (active and parked).
    pub fn responders(&self) -> usize {
        self.server.responders()
    }

    /// Number of ring shards (1 for the single-ring plane).
    pub fn shards(&self) -> usize {
        self.server.shards()
    }

    /// Transport statistics, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.server.stats()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.server.governor_stats()
    }

    /// Sets the plane's active responder target (the `ctl` sizer's
    /// control surface), clamped into the policy's bounds, and returns
    /// the value installed. See [`RingServer::set_active`].
    pub fn set_active(&self, n: usize) -> usize {
        self.server.set_active(n)
    }

    /// The full per-shard snapshot. A single-ring plane reports itself as
    /// one shard (no steals, no cross-shard wakes).
    pub fn ring_stats(&self) -> RingStats {
        self.server.ring_stats()
    }

    /// A full telemetry view of the byte plane: per-lane stage histograms,
    /// reap latency, and the shard-schema stats, tagged with a byte-plane
    /// kind so dashboards can tell payload lanes from typed rings.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        let mut t = self.server.telemetry(name);
        t.kind = self.plane_kind();
        t
    }

    /// A boxed provider for [`crate::TelemetryRegistry::register_plane`],
    /// capturing the plane's shared state so snapshots stay live after
    /// this handle is dropped.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        self.server.telemetry_provider_as(name, self.plane_kind())
    }

    fn plane_kind(&self) -> &'static str {
        if self.shards() > 1 {
            "byte-sharded"
        } else {
            "byte-single"
        }
    }

    /// Stops the responders and joins them.
    pub fn shutdown(self) {
        self.server.shutdown()
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
    /// with [`ByteCaller::wait_with`] or [`ByteCaller::wait_any_with`].
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`]. On error the staged buffer is lost to
    /// the slot (freed on shutdown), not recycled.
    pub fn submit(&mut self, id: u32, data: &[u8], out_capacity: usize) -> Result<Ticket> {
        let buf = self.arena.acquire(data, out_capacity);
        self.requester.submit(id, buf)
    }

    /// Waits for a submitted call, hands the response bytes to `read`,
    /// and recycles the buffer into the arena.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait`].
    pub fn wait_with<R>(&mut self, ticket: Ticket, read: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let resp = self.requester.wait(ticket)?;
        let r = read(resp.as_slice());
        self.arena.recycle(resp);
        Ok(r)
    }

    /// Waits until *any* of `tickets` completes (removing it from the
    /// set), hands its response bytes to `read`, and recycles the buffer.
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

    /// Submits `bundle` as one ring slot and hands each response to
    /// `read` (called with the bundle position and the response bytes) in
    /// submission order, recycling every buffer into the arena. Per-call
    /// failures surface as `Err` entries in the returned vector.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::call_bundle`].
    pub fn call_bundle_with<R>(
        &mut self,
        bundle: ByteBundle,
        mut read: impl FnMut(usize, &[u8]) -> R,
    ) -> Result<Vec<Result<R>>> {
        let results = self.requester.call_bundle(bundle.inner)?;
        let mut out = Vec::with_capacity(results.len());
        for (i, res) in results.into_iter().enumerate() {
            out.push(match res {
                Ok(buf) => {
                    let r = read(i, buf.as_slice());
                    self.arena.recycle(buf);
                    Ok(r)
                }
                Err(e) => Err(e),
            });
        }
        Ok(out)
    }

    /// Submits `bundle` as one ring slot and returns each call's response
    /// length (the buffers are recycled without being read).
    ///
    /// # Errors
    ///
    /// As [`ByteCaller::call_bundle_with`].
    pub fn call_bundle(&mut self, bundle: ByteBundle) -> Result<Vec<Result<usize>>> {
        self.call_bundle_with(bundle, |_, resp| resp.len())
    }

    /// Counters of this caller's private arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Transport statistics, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.requester.stats()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.requester.governor_stats()
    }

    /// The home shard this caller's submissions land on (always 0 on a
    /// single-ring plane).
    pub fn home_shard(&self) -> usize {
        self.requester.home()
    }
}

/// A bundle of byte calls staged in a caller's arena: N small calls, one
/// ring submission, one responder dispatch, at most one wakeup.
///
/// Build with [`ByteBundle::push`] (which stages each request through the
/// owning caller's arena — inline for cache-line-sized payloads), then
/// issue with [`ByteCaller::call_bundle`] /
/// [`ByteCaller::call_bundle_with`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{ByteBundle, ByteCallTable, ByteRing};
/// use hotcalls::HotCallConfig;
///
/// let mut table = ByteCallTable::new();
/// let upper = table.register(|n, buf| {
///     buf[..n].make_ascii_uppercase();
///     n
/// });
/// let ring = ByteRing::spawn_pool(table, 8, 1, HotCallConfig::patient()).unwrap();
/// let mut caller = ring.caller();
/// let mut bundle = ByteBundle::new();
/// bundle
///     .push(&mut caller, upper, b"hot", 0)
///     .push(&mut caller, upper, b"calls", 0);
/// let lens = caller.call_bundle(bundle).unwrap();
/// let lens: Vec<usize> = lens.into_iter().map(|r| r.unwrap()).collect();
/// assert_eq!(lens, [3, 5]);
/// ```
#[derive(Debug, Default)]
pub struct ByteBundle {
    inner: Bundle<HotBuf>,
}

impl ByteBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        ByteBundle::default()
    }

    /// An empty bundle with room for `n` calls.
    pub fn with_capacity(n: usize) -> Self {
        ByteBundle {
            inner: Bundle::with_capacity(n),
        }
    }

    /// Stages one call: `data` is copied into a buffer from `caller`'s
    /// arena (inline when it fits a cache line) with room for a response
    /// of up to `out_capacity` bytes.
    pub fn push(
        &mut self,
        caller: &mut ByteCaller,
        id: u32,
        data: &[u8],
        out_capacity: usize,
    ) -> &mut Self {
        let buf = caller.arena.acquire(data, out_capacity);
        self.inner.push(id, buf);
        self
    }

    /// Calls staged so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Nothing staged yet?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ring = ByteRing::spawn_pool(t, 4, 2, HotCallConfig::patient()).unwrap();
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
        let ring = ByteRing::spawn_pool(t, 16, 2, HotCallConfig::patient()).unwrap();
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
    fn byte_bundle_roundtrips_inline_payloads() {
        let (t, rev, _) = echo_table();
        let single = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        let (t, _, _) = echo_table();
        let sharded =
            ByteRing::spawn_sharded(t, 8, ShardPolicy::fixed(2), HotCallConfig::patient()).unwrap();
        // The affinity override reaches every shard and nothing past them.
        for (ring, top_shard) in [(single, 0), (sharded, 1)] {
            assert!(ring.caller_on(top_shard + 1).is_err());
            let mut caller = ring.caller_on(top_shard).unwrap();
            assert_eq!(caller.home_shard(), top_shard);
            let mut bundle = ByteBundle::with_capacity(3);
            bundle
                .push(&mut caller, rev, b"ab", 0)
                .push(&mut caller, rev, b"xyz", 0)
                .push(&mut caller, rev, b"hotcalls", 0);
            assert_eq!(bundle.len(), 3);
            let mut seen = Vec::new();
            let results = caller
                .call_bundle_with(bundle, |i, resp| {
                    seen.push((i, resp.to_vec()));
                    resp.len()
                })
                .unwrap();
            let lens: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(lens, [2, 3, 8]);
            assert_eq!(
                seen,
                [
                    (0, b"ba".to_vec()),
                    (1, b"zyx".to_vec()),
                    (2, b"sllactoh".to_vec())
                ]
            );
            // All three payloads fit a cache line: the bundle stays
            // heap-free on the buffer side.
            assert_eq!(caller.arena_stats().inline_hits, 3);
            assert_eq!(ring.stats().calls, 3);
        }
    }

    #[test]
    fn adaptive_byte_ring_serves_and_reports_governor() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_adaptive(
            t,
            8,
            ResponderPolicy::elastic(1, 3),
            HotCallConfig::patient(),
        )
        .unwrap();
        assert_eq!(ring.responders(), 3);
        let mut caller = ring.caller();
        for _ in 0..100 {
            caller
                .call_with(rev, b"abcd", 0, |resp| assert_eq!(resp, b"dcba"))
                .unwrap();
        }
        let g = ring.governor_stats();
        assert_eq!((g.min, g.max), (1, 3));
        assert!(g.active >= 1 && g.active <= 3, "{g:?}");
        assert_eq!(ring.stats().calls, 100);
    }

    #[test]
    fn sharded_byte_ring_roundtrips_and_reports_shards() {
        let (t, rev, _) = echo_table();
        let ring =
            ByteRing::spawn_sharded(t, 8, ShardPolicy::fixed(2), HotCallConfig::patient()).unwrap();
        assert_eq!(ring.shards(), 2);
        assert_eq!(ring.responders(), 2);
        let mut a = ring.caller();
        let mut b = ring.caller();
        assert_ne!(a.home_shard(), b.home_shard(), "router must spread homes");
        for _ in 0..50 {
            a.call_with(rev, b"abc", 0, |resp| assert_eq!(resp, b"cba"))
                .unwrap();
            b.call_with(rev, b"wxyz", 0, |resp| assert_eq!(resp, b"zyxw"))
                .unwrap();
        }
        assert_eq!(ring.stats().calls, 100);
        let rs = ring.ring_stats();
        assert_eq!(rs.shards.len(), 2);
        assert_eq!(rs.shards.iter().map(|s| s.serviced).sum::<u64>(), 100);
    }

    #[test]
    fn single_ring_reports_one_shard() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 4, 1, HotCallConfig::patient()).unwrap();
        assert_eq!(ring.shards(), 1);
        let mut caller = ring.caller();
        caller.call(rev, b"ab", 0).unwrap();
        assert!(ring.caller_on(1).is_err());
        let rs = ring.ring_stats();
        assert_eq!(rs.shards.len(), 1);
        assert_eq!(rs.shards[0].serviced, 1);
        assert_eq!(rs.steals(), 0);
    }

    #[test]
    fn fused_byte_calls_run_inline_and_recycle() {
        let fused = HotCallConfig::fused(crate::config::FusedMode::Always);
        let (t, rev, _) = echo_table();
        let single = ByteRing::spawn_pool(t, 4, 1, fused).unwrap();
        let (t, _, _) = echo_table();
        let sharded = ByteRing::spawn_sharded(t, 8, ShardPolicy::fixed(2), fused).unwrap();
        for ring in [single, sharded] {
            // Two callers: on the sharded plane the router homes them on
            // different shards.
            let mut callers = [ring.caller(), ring.caller()];
            for _ in 0..50 {
                for caller in &mut callers {
                    caller
                        .call_with(rev, b"abcdef", 0, |resp| assert_eq!(resp, b"fedcba"))
                        .unwrap();
                }
            }
            for caller in &callers {
                let stats = caller.arena_stats();
                assert_eq!(stats.inline_hits, 50);
                assert_eq!(stats.allocs, 0, "fused path must stay heap-free too");
            }
            let s = ring.stats();
            assert_eq!(s.calls, 100);
            assert_eq!(s.fused_runs, 100, "{s:?}");
        }
    }

    #[test]
    fn concurrent_callers_have_independent_arenas() {
        let (t, rev, _) = echo_table();
        let ring = ByteRing::spawn_pool(t, 8, 2, HotCallConfig::patient()).unwrap();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let mut caller = ring.caller();
            handles.push(std::thread::spawn(move || {
                let data = vec![3u8; 300];
                for _ in 0..200 {
                    caller.call(rev, &data, 0).unwrap();
                }
                caller.arena_stats()
            }));
        }
        for h in handles {
            let s = h.join().unwrap();
            assert_eq!(s.allocs, 1);
            assert_eq!(s.recycles, 199);
        }
        assert_eq!(ring.stats().calls, 600);
    }
}
