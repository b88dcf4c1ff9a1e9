//! The application environment: one machine + one call interface.
//!
//! Every ported application runs against an [`AppEnv`] in one of four
//! modes — the four bars of the paper's Figs. 10/11:
//!
//! | mode | boundary crossing |
//! |---|---|
//! | [`IfaceMode::Native`] | plain syscalls (~150 cycles + kernel copy) |
//! | [`IfaceMode::Sdk`] | full SDK ocalls/ecalls (8,200+ cycles) |
//! | [`IfaceMode::HotCalls`] | HotCalls (~620 cycles) |
//! | [`IfaceMode::HotCallsNrz`] | HotCalls + No-Redundant-Zeroing |

use std::collections::BTreeMap;
use std::sync::Arc;

use hotcalls::ctl::{ApiId, CtlTelemetry, Transport};
use hotcalls::rt::{ArenaStats, ByteBundle, ByteCallTable, ByteCaller, ByteRing};
use hotcalls::sim::SimHotCalls;
use hotcalls::telemetry::{ApiCensus, ApiCensusRow, CtlProvider, PlaneProvider, PlaneTelemetry};
use hotcalls::{
    Controller, CtlStats, FusedMode, GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy,
    RingStats, ShardPolicy,
};
use sgx_sdk::edger8r::{edger8r, Proxies};
use sgx_sdk::edl::{parse_edl, Direction};
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Addr, Cycles, EnclaveBuildOptions, Machine, SimConfig};

use crate::error::Result;
use crate::porting::{generate_edl, ApiDecl};

/// Cost of a plain Linux syscall trap (paper cites ~150 cycles, after
/// FlexSC).
pub const SYSCALL_TRAP: u64 = 150;

/// Per-shard ring capacity of the real threaded transport behind the
/// HotCalls modes.
const RT_RING_CAPACITY: usize = 32;
/// Shards of the transport's data plane (= ceiling of its responder
/// pool: one "On Call" responder per shard). The shard governor parks
/// down to one active shard when the application's call rate doesn't
/// justify more.
const RT_SHARDS: usize = 2;
/// Empty polls before a pool responder parks; applications build many
/// environments and single-core hosts cannot afford spinning responders.
const RT_IDLE_POLLS_BEFORE_SLEEP: u64 = 256;

/// The real switchless transport carried alongside the cycle model in the
/// HotCalls modes: a pooled, batched-drain submission ring whose responder
/// threads play the untrusted "On Call" side. The simulator still charges
/// the paper's cycle costs; this pool moves each call's marshalled payload
/// for real through arena-backed buffers — callee-bound bytes ride in the
/// request, the "OS" writes caller-bound bytes into the same buffer in
/// place, and the buffer recycles into the caller's slab arena (inline in
/// the slot when it fits a cache line), so every application API call
/// exercises the production zero-copy data plane.
#[derive(Debug)]
struct RtPool {
    server: ByteRing,
    /// One caller per shard, each pinned to its home ring by the router
    /// — an application connection maps onto exactly one lane, so
    /// distinct connections never contend on a head CAS.
    lanes: Vec<ByteCaller>,
    /// The lane the current connection's calls ride on.
    lane: usize,
    ids: BTreeMap<&'static str, u32>,
    /// Fallback id for calls outside the declared API table (and the
    /// `RunEnclaveFunction` ecall shell).
    run_fn: u32,
    /// Reusable staging for the request payload: 8-byte response-length
    /// header followed by the callee-bound bytes. Grows to the largest
    /// request ever sent and is never shrunk or re-zeroed.
    tx_scratch: Vec<u8>,
}

/// The untrusted responder's "OS body", shared by every API id: consume
/// the callee-bound payload, then write the number of caller-bound bytes
/// the 8-byte request header asked for — `read`/`recvfrom` semantics, the
/// full-buffer write that makes NRZ's elided zeroing safe.
fn os_responder(req_len: usize, buf: &mut [u8]) -> usize {
    let want = if req_len >= 8 {
        u64::from_le_bytes(buf[..8].try_into().expect("8-byte header")) as usize
    } else {
        0
    };
    let want = want.min(buf.len());
    buf[..want].fill(0x42);
    want
}

/// Which data plane the real transport rides in the HotCalls modes — the
/// "hot vs sharded" axis of the Table-2 census.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtTransport {
    /// One adaptive submission ring shared by every connection — the
    /// paper's plain HotCalls shape.
    Single,
    /// The sharded multi-ring plane with work-stealing responders
    /// (the default; what `AppEnv::new` always used before the knob).
    #[default]
    Sharded,
    /// One adaptive ring whose callers run break-even-eligible calls
    /// inline — the fused run-to-completion fast path. Quiet call tails
    /// (a lone connection between bursts) skip the handoff entirely;
    /// bursts spill to the pooled responders automatically.
    Fused,
    /// Zero-config: the plane spawns with [`HotCallConfig::auto`] /
    /// [`ResponderPolicy::auto`] and a [`Controller`] closes the loop —
    /// each API is routed to its measured break-even transport (SDK for
    /// rare calls, switchless for hot ones), the responder pool resizes
    /// from worker efficiency, and batch flush thresholds track backlog.
    /// No knob on this variant is chosen by the application.
    Auto,
}

impl RtTransport {
    /// Census label for this transport ("hot" / "sharded" / "fused" /
    /// "auto").
    pub fn label(&self) -> &'static str {
        match self {
            RtTransport::Single => "hot",
            RtTransport::Sharded => "sharded",
            RtTransport::Fused => "fused",
            RtTransport::Auto => "auto",
        }
    }
}

/// How many routed calls between sizer ticks in the Auto transport. Each
/// tick reads one [`RingStats`] snapshot and may resize the responder
/// pool, so the cadence amortizes snapshot cost without letting the
/// controller fall behind a phase shift.
const CTL_TICK_EVERY: u64 = 64;

/// The control half of the Auto transport: the break-even router plus the
/// registered API ids it routes between.
#[derive(Debug)]
struct AutoCtl {
    /// Shared so telemetry providers can hold the controller alive.
    controller: Arc<Controller>,
    ids: BTreeMap<&'static str, ApiId>,
    /// The `RunEnclaveFunction` ecall shell (also the fallback for calls
    /// outside the declared table). Pinned to the hot plane — an ecall
    /// has no SDK-ocall shape to demote to.
    run_fn: ApiId,
    /// Routed calls observed so far; drives the sizer-tick cadence.
    observed: u64,
}

impl AutoCtl {
    fn new(apis: &[ApiDecl]) -> Self {
        let mut controller = Controller::auto();
        let mut ids = BTreeMap::new();
        for api in apis {
            // Every declared API may ride switchless or fall back to the
            // SDK ocall path; the router decides from measured cycles.
            ids.insert(
                api.name,
                controller.register(api.name, Transport::Hot, &[Transport::Sdk, Transport::Hot]),
            );
        }
        let run_fn = controller.register("RunEnclaveFunction", Transport::Hot, &[Transport::Hot]);
        AutoCtl {
            controller: Arc::new(controller),
            ids,
            run_fn,
            observed: 0,
        }
    }

    fn id_of(&self, name: &str) -> ApiId {
        self.ids.get(name).copied().unwrap_or(self.run_fn)
    }
}

impl RtPool {
    fn new(apis: &[ApiDecl], transport: RtTransport) -> Result<Self> {
        let mut table = ByteCallTable::new();
        let mut ids = BTreeMap::new();
        for api in apis {
            ids.insert(api.name, table.register(os_responder));
        }
        let run_fn = table.register(os_responder);
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(RT_IDLE_POLLS_BEFORE_SLEEP),
            ..HotCallConfig::patient()
        };
        let server = match transport {
            // One adaptive ring: the governor may park down to a single
            // responder, the classic HotCalls topology.
            RtTransport::Single => ByteRing::spawn_adaptive(
                table,
                RT_RING_CAPACITY,
                ResponderPolicy::elastic(1, RT_SHARDS),
                config,
            )?,
            // Sharded adaptive plane: RT_SHARDS independent rings with one
            // work-stealing responder each, parked down to one active shard
            // when the application's call rate is low — the oversubscription
            // fix matters here because every benchmark builds several
            // environments side by side.
            RtTransport::Sharded => ByteRing::spawn_sharded(
                table,
                RT_RING_CAPACITY,
                ShardPolicy::elastic(1, RT_SHARDS),
                config,
            )?,
            // The single-ring shape with Auto fusing: a quiet application
            // call tail runs its ocall inline on the requester core; the
            // pooled responders only engage once the backlog crosses the
            // break-even occupancy.
            RtTransport::Fused => ByteRing::spawn_adaptive(
                table,
                RT_RING_CAPACITY,
                ResponderPolicy::elastic(1, RT_SHARDS),
                HotCallConfig {
                    fused_mode: FusedMode::Auto,
                    ..config
                },
            )?,
            // Zero-config: the auto policies size the pool to the host
            // (the governor and the controller's sizer park the excess)
            // and fusing stays on its measured break-even occupancy. The
            // per-API routing rides in `AutoCtl`, outside the plane.
            RtTransport::Auto => ByteRing::spawn_adaptive(
                table,
                RT_RING_CAPACITY,
                ResponderPolicy::auto(),
                HotCallConfig::auto(),
            )?,
        };
        let lanes = (0..server.shards())
            .map(|s| server.caller_on(s))
            .collect::<hotcalls::Result<Vec<_>>>()?;
        Ok(RtPool {
            server,
            lanes,
            lane: 0,
            ids,
            run_fn,
            tx_scratch: Vec::new(),
        })
    }

    /// Routes the given connection's subsequent calls onto its home lane
    /// (and therefore its home shard).
    fn route_connection(&mut self, conn: u64) {
        self.lane = (conn % self.lanes.len() as u64) as usize;
    }

    /// Carries one call: `in_bytes` travel to the responder, `out_bytes`
    /// come back (written by the responder into the same buffer). Returns
    /// the caller-bound byte count actually produced.
    fn call(&mut self, name: &str, in_bytes: u64, out_bytes: u64) -> Result<u64> {
        let id = self.ids.get(name).copied().unwrap_or(self.run_fn);
        let req_len = self.stage_request(in_bytes, out_bytes);
        let n = self.lanes[self.lane].call(id, &self.tx_scratch[..req_len], out_bytes as usize)?;
        Ok(n as u64)
    }

    /// Stages one request into `tx_scratch`: 8-byte response-length header
    /// followed by `in_bytes` of callee-bound payload. Returns the staged
    /// length.
    fn stage_request(&mut self, in_bytes: u64, out_bytes: u64) -> usize {
        let req_len = 8 + in_bytes as usize;
        if self.tx_scratch.len() < req_len {
            self.tx_scratch.resize(req_len, 0);
        }
        self.tx_scratch[..8].copy_from_slice(&out_bytes.to_le_bytes());
        req_len
    }

    /// Carries a batch of calls as **one** ring submission (one slot
    /// claim, one responder dispatch, at most one wakeup for the whole
    /// batch). Returns the total caller-bound bytes produced.
    fn call_bundle(&mut self, calls: &[(&'static str, u64, u64)]) -> Result<u64> {
        let mut bundle = ByteBundle::with_capacity(calls.len());
        for &(name, in_bytes, out_bytes) in calls {
            let id = self.ids.get(name).copied().unwrap_or(self.run_fn);
            let req_len = self.stage_request(in_bytes, out_bytes);
            // Each push copies the staged request into an arena buffer, so
            // the scratch is immediately reusable for the next entry.
            bundle.push(
                &mut self.lanes[self.lane],
                id,
                &self.tx_scratch[..req_len],
                out_bytes as usize,
            );
        }
        let results = self.lanes[self.lane].call_bundle(bundle)?;
        let mut produced = 0u64;
        for r in results {
            produced += r? as u64;
        }
        Ok(produced)
    }

    fn stats(&self) -> HotCallStats {
        self.server.stats()
    }

    /// Arena counters summed over every lane (each lane owns a private
    /// arena).
    fn arena_stats(&self) -> ArenaStats {
        let mut total = ArenaStats::default();
        for lane in &self.lanes {
            let s = lane.arena_stats();
            total.allocs += s.allocs;
            total.recycles += s.recycles;
            total.inline_hits += s.inline_hits;
            total.stale_recycles += s.stale_recycles;
        }
        total
    }

    fn governor_stats(&self) -> GovernorStats {
        self.server.governor_stats()
    }

    fn ring_stats(&self) -> RingStats {
        self.server.ring_stats()
    }
}

/// The four interface configurations of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IfaceMode {
    /// No enclave: the unmodified application.
    Native,
    /// Straightforward SGX port using SDK ecalls/ocalls.
    Sdk,
    /// SGX port with HotCalls for the frequent calls.
    HotCalls,
    /// HotCalls plus the No-Redundant-Zeroing marshalling fix.
    HotCallsNrz,
}

impl IfaceMode {
    /// All four modes, in the order the figures plot them.
    pub const ALL: [IfaceMode; 4] = [
        IfaceMode::Native,
        IfaceMode::Sdk,
        IfaceMode::HotCalls,
        IfaceMode::HotCallsNrz,
    ];

    /// Human-readable label used by the benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            IfaceMode::Native => "native",
            IfaceMode::Sdk => "sgx-sdk",
            IfaceMode::HotCalls => "hotcalls",
            IfaceMode::HotCallsNrz => "hotcalls+nrz",
        }
    }

    /// Does this mode run inside an enclave?
    pub fn in_enclave(&self) -> bool {
        !matches!(self, IfaceMode::Native)
    }
}

/// A rate-accumulator driving the auxiliary API-call mix.
///
/// Table 2 gives per-second call rates; per request/packet these are
/// fractional (e.g. openVPN issues ~3.4 `poll`s per packet). The mix
/// accumulates fractional credits and fires a call each time a credit
/// crosses 1.0, reproducing the aggregate rates exactly.
#[derive(Debug, Clone)]
pub struct ApiMix {
    entries: Vec<(&'static str, f64, f64)>,
}

impl ApiMix {
    /// Builds a mix from (name, calls-per-event) pairs.
    pub fn new(rates: &[(&'static str, f64)]) -> Self {
        ApiMix {
            entries: rates.iter().map(|&(n, r)| (n, r, 0.0)).collect(),
        }
    }

    /// Advances one event (request/packet); returns the calls to issue.
    pub fn tick(&mut self) -> Vec<&'static str> {
        let mut fire = Vec::new();
        for (name, rate, acc) in &mut self.entries {
            *acc += *rate;
            while *acc >= 1.0 {
                fire.push(*name);
                *acc -= 1.0;
            }
        }
        fire
    }
}

/// One machine + one application interface.
#[derive(Debug)]
pub struct AppEnv {
    /// The simulated machine (virtual clock, caches, MEE, EPC).
    pub machine: Machine,
    mode: IfaceMode,
    proxies: Proxies,
    ctx: Option<EnclaveCtx>,
    hot: Option<SimHotCalls>,
    /// Real pooled transport (HotCalls modes only).
    rt: Option<RtPool>,
    /// Break-even router + sizer loop ([`RtTransport::Auto`] only).
    ctl: Option<AutoCtl>,
    /// Which plane shape the transport uses (census "hot" vs "sharded").
    transport: RtTransport,
    api_costs: BTreeMap<&'static str, u64>,
    api_counts: BTreeMap<&'static str, u64>,
    /// Untrusted bounce buffer used as the native syscall copy target.
    native_bounce: Addr,
    start: Cycles,
}

impl AppEnv {
    /// Builds an environment for `mode` with the application's API table.
    /// `heap_bytes` sizes the enclave's secure heap (the application's
    /// data set lives there in enclave modes).
    ///
    /// # Errors
    ///
    /// Fails if EDL generation/parsing or enclave construction fails.
    pub fn new(
        config: SimConfig,
        mode: IfaceMode,
        apis: &[ApiDecl],
        heap_bytes: u64,
    ) -> Result<Self> {
        Self::with_transport(config, mode, apis, heap_bytes, RtTransport::default())
    }

    /// As [`AppEnv::new`], but choosing the real transport's plane shape
    /// explicitly — the census needs the same application driven over the
    /// single-ring ("hot") and sharded planes side by side.
    ///
    /// # Errors
    ///
    /// Fails if EDL generation/parsing or enclave construction fails.
    pub fn with_transport(
        config: SimConfig,
        mode: IfaceMode,
        apis: &[ApiDecl],
        heap_bytes: u64,
        transport: RtTransport,
    ) -> Result<Self> {
        let mut machine = Machine::new(config);
        let edl_src = generate_edl(apis);
        let edl = parse_edl(&edl_src).map_err(sgx_sdk::SdkError::Edl)?;
        let proxies = edger8r(&edl)?;
        let api_costs = apis.iter().map(|a| (a.name, a.os_cost)).collect();
        let native_bounce = machine.alloc_untrusted(64 * 1024, 4096);

        let (ctx, hot, rt, ctl) = if mode.in_enclave() {
            let eid = machine.build_enclave(EnclaveBuildOptions {
                heap_bytes: heap_bytes + (4 << 20), // app data + SDK scratch
                ..EnclaveBuildOptions::default()
            })?;
            let options = MarshalOptions {
                no_redundant_zeroing: mode == IfaceMode::HotCallsNrz,
                optimized_memset: false,
            };
            let ctx = EnclaveCtx::new(&mut machine, eid, &edl, options)?;
            let (hot, rt, ctl) = if matches!(mode, IfaceMode::HotCalls | IfaceMode::HotCallsNrz) {
                let ctl = if transport == RtTransport::Auto {
                    Some(AutoCtl::new(apis))
                } else {
                    None
                };
                (
                    Some(SimHotCalls::new(
                        &mut machine,
                        &ctx,
                        HotCallConfig::default(),
                    )?),
                    Some(RtPool::new(apis, transport)?),
                    ctl,
                )
            } else {
                (None, None, None)
            };
            (Some(ctx), hot, rt, ctl)
        } else {
            (None, None, None, None)
        };

        let start = machine.now();
        Ok(AppEnv {
            machine,
            mode,
            proxies,
            ctx,
            hot,
            rt,
            ctl,
            transport,
            api_costs,
            api_counts: BTreeMap::new(),
            native_bounce,
            start,
        })
    }

    /// The active mode.
    pub fn mode(&self) -> IfaceMode {
        self.mode
    }

    /// Allocates application data: enclave heap in enclave modes, regular
    /// memory natively.
    ///
    /// # Errors
    ///
    /// Fails if the respective arena is exhausted.
    pub fn alloc_data(&mut self, size: u64) -> Result<Addr> {
        match &self.ctx {
            Some(ctx) => Ok(self.machine.alloc_enclave_heap(ctx.eid, size, 64)?),
            None => Ok(self.machine.alloc_untrusted(size, 64)),
        }
    }

    /// Enters the enclave's long-running `ecall_main` (openVPN/lighttpd
    /// pattern). A no-op natively.
    ///
    /// # Errors
    ///
    /// Fails if already entered.
    pub fn enter_main(&mut self) -> Result<()> {
        if let Some(ctx) = &mut self.ctx {
            ctx.enter_main(&mut self.machine)?;
        }
        Ok(())
    }

    /// Issues one OS API call through the configured interface. `bufs`
    /// supplies the declared buffer arguments (application data addresses).
    ///
    /// # Errors
    ///
    /// Propagates interface failures.
    pub fn api_call(&mut self, name: &'static str, bufs: &[BufArg]) -> Result<()> {
        *self.api_counts.entry(name).or_insert(0) += 1;
        let os_cost = self.api_costs.get(name).copied().unwrap_or(300);

        match self.mode {
            IfaceMode::Native => {
                let m = &mut self.machine;
                m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                // Kernel copy between user buffer and kernel space.
                let plan = self.proxies.ocall(name)?;
                for (step, arg) in plan.steps.iter().zip(bufs.iter()) {
                    let bounce = self.native_bounce;
                    match step.direction {
                        Direction::In => {
                            m.read(arg.addr, arg.len)?;
                            m.write(bounce, arg.len)?;
                        }
                        Direction::Out => {
                            m.read(bounce, arg.len)?;
                            m.write(arg.addr, arg.len)?;
                        }
                        Direction::InOut => {
                            m.read(arg.addr, arg.len)?;
                            m.write(arg.addr, arg.len)?;
                        }
                        Direction::UserCheck => {}
                    }
                }
                Ok(())
            }
            IfaceMode::Sdk => {
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                ctx.ocall(&mut self.machine, name, bufs, |_, m, _| {
                    m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                    Ok(())
                })?;
                Ok(())
            }
            IfaceMode::HotCalls | IfaceMode::HotCallsNrz => {
                // Zero-config transport: ask the break-even router where
                // this call goes before touching the plane.
                if let Some(ctl) = &self.ctl {
                    let api = ctl.id_of(name);
                    let route = ctl.controller.route(api);
                    return self.api_call_routed(name, bufs, os_cost, api, route);
                }
                // The real data plane: stage the callee-bound bytes into an
                // arena-backed buffer, submit it into the pooled ring, and
                // let an "On Call" responder write the caller-bound bytes
                // back into the same buffer.
                let (in_bytes, out_bytes) = self.payload_bytes(name, bufs)?;
                let rt = self.rt.as_mut().expect("hot mode has rt pool");
                let produced = rt.call(name, in_bytes, out_bytes)?;
                debug_assert_eq!(produced, out_bytes, "responder fills the out request");
                // The cycle model: charge the paper's HotCall cost.
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                let hot = self.hot.as_mut().expect("hot mode has channel");
                hot.hot_ocall(&mut self.machine, ctx, name, bufs, |_, m, _| {
                    m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                    Ok(())
                })?;
                Ok(())
            }
        }
    }

    /// One call under the Auto transport, on the transport the router
    /// chose: `Sdk` takes the plain ocall path (no ring traffic, no
    /// responder standby — the break-even loss side for rare calls),
    /// anything else rides the switchless plane. Either way the call's
    /// measured virtual-cycle cost feeds back into the router.
    fn api_call_routed(
        &mut self,
        name: &'static str,
        bufs: &[BufArg],
        os_cost: u64,
        api: ApiId,
        route: Transport,
    ) -> Result<()> {
        let t0 = self.machine.now();
        if route == Transport::Sdk {
            let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
            ctx.ocall(&mut self.machine, name, bufs, |_, m, _| {
                m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                Ok(())
            })?;
        } else {
            let (in_bytes, out_bytes) = self.payload_bytes(name, bufs)?;
            let rt = self.rt.as_mut().expect("hot mode has rt pool");
            let produced = rt.call(name, in_bytes, out_bytes)?;
            debug_assert_eq!(produced, out_bytes, "responder fills the out request");
            let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
            let hot = self.hot.as_mut().expect("hot mode has channel");
            hot.hot_ocall(&mut self.machine, ctx, name, bufs, |_, m, _| {
                m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                Ok(())
            })?;
        }
        let cycles = (self.machine.now() - t0).get();
        self.ctl_observe(api, route, cycles);
        Ok(())
    }

    /// Feeds one measured call into the controller and, on the tick
    /// cadence, lets the sizer resize the responder pool from the plane's
    /// own efficiency counters.
    fn ctl_observe(&mut self, api: ApiId, transport: Transport, cycles: u64) {
        let stamp = self.machine.now().get();
        let ctl = self.ctl.as_mut().expect("routed call has a controller");
        ctl.controller.observe(api, transport, cycles, stamp);
        ctl.observed += 1;
        if ctl.observed.is_multiple_of(CTL_TICK_EVERY) {
            if let Some(rt) = &self.rt {
                let decision = ctl.controller.tick(&rt.ring_stats());
                if let Some(n) = decision.responders {
                    rt.server.set_active(n);
                }
            }
        }
    }

    /// Callee-bound and caller-bound byte totals of one call, from the
    /// generated proxy's marshalling plan.
    fn payload_bytes(&self, name: &'static str, bufs: &[BufArg]) -> Result<(u64, u64)> {
        let plan = self.proxies.ocall(name)?;
        let mut in_bytes = 0u64;
        let mut out_bytes = 0u64;
        for (step, arg) in plan.steps.iter().zip(bufs.iter()) {
            match step.direction {
                Direction::In => in_bytes += arg.len,
                Direction::Out => out_bytes += arg.len,
                Direction::InOut => {
                    in_bytes += arg.len;
                    out_bytes += arg.len;
                }
                Direction::UserCheck => {}
            }
        }
        Ok((in_bytes, out_bytes))
    }

    /// Issues a batch of OS API calls at once — the bundled hot path.
    ///
    /// In the HotCalls modes the whole batch rides the real transport as
    /// **one** ring submission (one slot claim, one responder dispatch, at
    /// most one wakeup), amortizing per-call ring traffic exactly the way
    /// HotCall bundling speeds up IO-intensive enclave apps; the cycle
    /// model still charges each call individually. Native and SDK modes
    /// have no transport to amortize and issue the calls one by one.
    ///
    /// Each entry is `(api name, optional buffer argument)` — the shape of
    /// the applications' Table 2 auxiliary mixes, which is what gets
    /// bundled in practice.
    ///
    /// # Errors
    ///
    /// Propagates interface failures (a failure inside a bundled call
    /// fails the batch).
    pub fn api_call_batch(&mut self, calls: &[(&'static str, Option<BufArg>)]) -> Result<()> {
        if calls.is_empty() {
            return Ok(());
        }
        if !matches!(self.mode, IfaceMode::HotCalls | IfaceMode::HotCallsNrz) {
            for (name, buf) in calls {
                let bufs: &[BufArg] = match buf {
                    Some(b) => core::slice::from_ref(b),
                    None => &[],
                };
                self.api_call(name, bufs)?;
            }
            return Ok(());
        }
        // Stage every call's byte plan, then carry the batch as a single
        // bundle through the real data plane.
        let mut staged = Vec::with_capacity(calls.len());
        for (name, buf) in calls {
            *self.api_counts.entry(name).or_insert(0) += 1;
            let bufs: &[BufArg] = match buf {
                Some(b) => core::slice::from_ref(b),
                None => &[],
            };
            let (in_bytes, out_bytes) = self.payload_bytes(name, bufs)?;
            staged.push((*name, in_bytes, out_bytes));
        }
        let t0 = self.machine.now();
        // Under the Auto transport the sizer's flush threshold decides the
        // bundle grain: small flushes keep latency low on quiet phases,
        // backlog grows them toward one-submission batches.
        let flush = self
            .ctl
            .as_ref()
            .map(|c| c.controller.bundle_flush().max(1))
            .unwrap_or(staged.len().max(1));
        let rt = self.rt.as_mut().expect("hot mode has rt pool");
        for chunk in staged.chunks(flush) {
            rt.call_bundle(chunk)?;
        }
        // The cycle model charges each call's paper cost individually —
        // bundling amortizes the transport, not the simulated OS work.
        for (name, buf) in calls {
            let os_cost = self.api_costs.get(name).copied().unwrap_or(300);
            let bufs: &[BufArg] = match buf {
                Some(b) => core::slice::from_ref(b),
                None => &[],
            };
            let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
            let hot = self.hot.as_mut().expect("hot mode has channel");
            hot.hot_ocall(&mut self.machine, ctx, name, bufs, |_, m, _| {
                m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
                Ok(())
            })?;
        }
        // Feed the batch back as per-call Bundled costs so the router's
        // telemetry covers the bundled transport too (the amortized share
        // of the batch window, not each call's solo cost).
        if self.ctl.is_some() {
            let per_call = (self.machine.now() - t0).get() / staged.len().max(1) as u64;
            let apis: Vec<ApiId> = {
                let ctl = self.ctl.as_ref().expect("checked above");
                staged.iter().map(|(name, _, _)| ctl.id_of(name)).collect()
            };
            for api in apis {
                self.ctl_observe(api, Transport::Bundled, per_call);
            }
        }
        Ok(())
    }

    /// Calls back *into* the enclave (the `RunEnclaveFunction` ecall the
    /// paper adds for libevent-style callbacks). `body` is the trusted
    /// work; natively it is just invoked.
    ///
    /// # Errors
    ///
    /// Propagates interface failures or `body` errors.
    pub fn run_enclave_function<R>(
        &mut self,
        body: impl FnOnce(&mut AppEnv) -> Result<R>,
    ) -> Result<R> {
        *self.api_counts.entry("RunEnclaveFucntion").or_insert(0) += 1;
        match self.mode {
            IfaceMode::Native => {
                // A plain function call through libevent.
                self.machine.charge(Cycles::new(40));
                body(self)
            }
            IfaceMode::Sdk => {
                // Charge the full ecall path around the body. The body needs
                // `&mut self` (it issues nested api_calls), so the ecall
                // shell is run with an empty SDK body and the trusted work
                // follows within the entered window.
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                ctx.enter_main(&mut self.machine)?;
                self.machine.charge(Cycles::new(
                    self.machine.config().sdk.ecall_untrusted_sw / 2,
                ));
                let r = body(self);
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                ctx.leave_main(&mut self.machine)?;
                r
            }
            IfaceMode::HotCalls | IfaceMode::HotCallsNrz => {
                // The real data plane carries the ecall shell (the 8-byte
                // routine pointer rides inline in the slot)...
                let t0 = self.machine.now();
                let rt = self.rt.as_mut().expect("hot mode has rt pool");
                rt.call("RunEnclaveFunction", 8, 0)?;
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                let hot = self.hot.as_mut().expect("hot mode has channel");
                // ...the hot-ecall transport shell (the user_check
                // start_routine pointer travels as-is)...
                let routine = BufArg::new(self.native_bounce, 8);
                hot.hot_ecall(
                    &mut self.machine,
                    ctx,
                    "RunEnclaveFunction",
                    &[routine],
                    |_, _, _| Ok(()),
                )?;
                // The Auto transport observes the shell's cost (the body
                // is trusted work, not interface) even though the ecall is
                // pinned hot — the row keeps the census complete.
                if let Some(ctl) = &self.ctl {
                    let api = ctl.run_fn;
                    let cycles = (self.machine.now() - t0).get();
                    self.ctl_observe(api, Transport::Hot, cycles);
                }
                // ...then the trusted body. Under the Auto transport the
                // router may send one of the body's API calls down the SDK
                // ocall path, which exits and re-enters on a current TCS:
                // hold one for the body unless the caller already did
                // (`enter_main`).
                let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                let enter = self.ctl.is_some() && !ctx.in_enclave();
                if enter {
                    ctx.enter_main(&mut self.machine)?;
                }
                let r = body(self);
                if enter {
                    let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
                    ctx.leave_main(&mut self.machine)?;
                }
                r
            }
        }
    }

    /// Charges pure application compute.
    pub fn compute(&mut self, cycles: u64) {
        self.machine.charge(Cycles::new(cycles));
    }

    /// Virtual seconds elapsed since construction.
    pub fn elapsed_secs(&self) -> f64 {
        (self.machine.now() - self.start).as_secs(self.machine.config().core_ghz)
    }

    /// Elapsed virtual cycles since construction.
    pub fn elapsed(&self) -> Cycles {
        self.machine.now() - self.start
    }

    /// API call counts (all modes), keyed by symbol — the raw material of
    /// Table 2. The `RunEnclaveFucntion` key reproduces the paper's own
    /// spelling of its ecall.
    pub fn api_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.api_counts
    }

    /// Total edge calls issued (enclave modes: ocalls + ecalls).
    pub fn total_calls(&self) -> u64 {
        self.api_counts.values().sum()
    }

    /// Statistics of the real pooled transport (HotCalls modes only):
    /// calls carried, responder wakeups, utilization. `None` for modes
    /// that have no switchless channel.
    pub fn rt_stats(&self) -> Option<HotCallStats> {
        self.rt.as_ref().map(RtPool::stats)
    }

    /// Buffer-arena counters of the real transport (HotCalls modes only):
    /// inline hits, slab recycles, fresh allocations. `None` for modes
    /// that have no switchless channel.
    pub fn arena_stats(&self) -> Option<ArenaStats> {
        self.rt.as_ref().map(RtPool::arena_stats)
    }

    /// Responder-governor counters of the real transport (HotCalls modes
    /// only): active/parked responders and park/wake decisions. `None`
    /// for modes that have no switchless channel.
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        self.rt.as_ref().map(RtPool::governor_stats)
    }

    /// Per-shard statistics of the real transport's sharded data plane
    /// (HotCalls modes only): serviced counts, steal probes and hits,
    /// cross-shard wakes, park state. `None` for modes that have no
    /// switchless channel.
    pub fn rt_ring_stats(&self) -> Option<RingStats> {
        self.rt.as_ref().map(RtPool::ring_stats)
    }

    /// Routes the calls that follow onto `conn`'s home lane of the
    /// sharded transport (connections map onto shards round-robin, so
    /// distinct connections never contend on a submission ring). A no-op
    /// in modes without a switchless channel.
    pub fn route_connection(&mut self, conn: u64) {
        if let Some(rt) = self.rt.as_mut() {
            rt.route_connection(conn);
        }
    }

    /// Number of independent submission lanes the switchless transport
    /// offers (one per shard of the sharded plane). Modes without a
    /// switchless channel report 1 — everything serializes on the one
    /// interface. The load harness uses this as the service parallelism
    /// of its queueing model.
    pub fn lanes(&self) -> usize {
        self.rt.as_ref().map_or(1, |rt| rt.lanes.len().max(1))
    }

    /// Measures the mean *host* cost of one `api_call` to `name` in
    /// nanoseconds: `warmup` discarded calls, then the wall-clock mean
    /// over `samples` calls. This is the per-event service cost the
    /// open-loop load harness feeds its latency-vs-offered-load model —
    /// real end-to-end time through whichever transport this environment
    /// routes `name` over (ring handoff and responder included in the hot
    /// modes, simulated-crossing bookkeeping included in all of them).
    ///
    /// # Errors
    ///
    /// As [`AppEnv::api_call`].
    pub fn sample_call_cost(
        &mut self,
        name: &'static str,
        warmup: u32,
        samples: u32,
    ) -> Result<f64> {
        for _ in 0..warmup {
            self.api_call(name, &[])?;
        }
        let samples = samples.max(1);
        let start = std::time::Instant::now();
        for _ in 0..samples {
            self.api_call(name, &[])?;
        }
        Ok(start.elapsed().as_nanos() as f64 / f64::from(samples))
    }

    /// Cycles spent inside the call interface so far (enclave modes only;
    /// zero natively). Drives Table 2's "Core Time" column.
    pub fn interface_cycles(&self) -> Cycles {
        match (&self.ctx, &self.hot) {
            (Some(ctx), _) => ctx.stats().total_cycles(),
            _ => Cycles::ZERO,
        }
    }

    /// The label this environment's census rows file under: `native`,
    /// `sdk`, or — in the HotCalls modes — the transport's shape
    /// (`hot` for the single ring, `sharded` for the multi-ring plane).
    pub fn census_mode(&self) -> &'static str {
        match self.mode {
            IfaceMode::Native => "native",
            IfaceMode::Sdk => "sdk",
            IfaceMode::HotCalls | IfaceMode::HotCallsNrz => self.transport.label(),
        }
    }

    /// The Table-2-style API census of everything this environment has
    /// issued so far: per-API call counts and rates from the application's
    /// own accounting, per-call cycle cost and interface share from the
    /// SDK's edge-call ledger, and the paper's "Core Time" fraction.
    /// Rows are sorted most-frequent first, as Table 2 prints them.
    pub fn api_census(&self, app: &str) -> ApiCensus {
        let elapsed = self.elapsed();
        let elapsed_secs = self.elapsed_secs();
        let interface_cycles = self.interface_cycles().get();
        let per_name = self
            .ctx
            .as_ref()
            .map(|ctx| ctx.stats().merged())
            .unwrap_or_default();
        let mut rows: Vec<ApiCensusRow> = self
            .api_counts
            .iter()
            .map(|(&name, &calls)| {
                // The count ledger keeps the paper's own misspelling of
                // its ecall; the EDL (and thus the cycle ledger) uses the
                // corrected name. One row, both ledgers.
                let ledger_name = if name == "RunEnclaveFucntion" {
                    "RunEnclaveFunction"
                } else {
                    name
                };
                let cycles = per_name.get(ledger_name).map_or(0, |s| s.cycles.get());
                ApiCensusRow {
                    name: name.to_string(),
                    calls,
                    calls_per_sec: if elapsed_secs > 0.0 {
                        calls as f64 / elapsed_secs
                    } else {
                        0.0
                    },
                    cycles_per_call: if calls > 0 {
                        cycles as f64 / calls as f64
                    } else {
                        0.0
                    },
                    share_of_interface: if interface_cycles > 0 {
                        cycles as f64 / interface_cycles as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        rows.sort_by(|a, b| b.calls.cmp(&a.calls).then_with(|| a.name.cmp(&b.name)));
        ApiCensus {
            app: app.to_string(),
            mode: self.census_mode().to_string(),
            elapsed_secs,
            total_calls: self.total_calls(),
            interface_cycles,
            core_time_fraction: self
                .ctx
                .as_ref()
                .map_or(0.0, |ctx| ctx.stats().core_time_fraction(elapsed)),
            rows,
        }
    }

    /// Full telemetry of the real transport's plane (HotCalls modes only):
    /// per-lane queue/service histograms, reap latency, shard counters.
    pub fn rt_telemetry(&self, name: &str) -> Option<PlaneTelemetry> {
        self.rt.as_ref().map(|rt| rt.server.telemetry(name))
    }

    /// A provider for [`hotcalls::TelemetryRegistry::register_plane`]
    /// backed by the transport's live shared state (HotCalls modes only).
    pub fn rt_telemetry_provider(&self, name: impl Into<String>) -> Option<PlaneProvider> {
        self.rt
            .as_ref()
            .map(|rt| rt.server.telemetry_provider(name))
    }

    /// Decision counters of the zero-config control loop — route flips,
    /// SDK demotions, sizer grows/shrinks ([`RtTransport::Auto`] only).
    pub fn ctl_stats(&self) -> Option<CtlStats> {
        self.ctl.as_ref().map(|c| c.controller.stats())
    }

    /// The control plane's telemetry section: per-API routes and EWMA
    /// costs plus the decision counters ([`RtTransport::Auto`] only).
    pub fn ctl_telemetry(&self, name: &str) -> Option<CtlTelemetry> {
        self.ctl.as_ref().map(|c| c.controller.telemetry(name))
    }

    /// A provider for [`hotcalls::TelemetryRegistry::register_ctl`]
    /// holding the controller alive ([`RtTransport::Auto`] only).
    pub fn ctl_provider(&self, name: impl Into<String>) -> Option<CtlProvider> {
        self.ctl.as_ref().map(|c| c.controller.provider(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::porting::ApiDecl;
    use sgx_sim::SimConfig;

    fn apis() -> Vec<ApiDecl> {
        vec![
            ApiDecl::receives("read", 600),
            ApiDecl::sends("sendmsg", 800),
            ApiDecl::plain("getpid", 80),
        ]
    }

    fn env(mode: IfaceMode) -> AppEnv {
        AppEnv::new(
            SimConfig::builder().deterministic().build(),
            mode,
            &apis(),
            1 << 20,
        )
        .unwrap()
    }

    #[test]
    fn native_calls_are_cheap_sdk_calls_are_not() {
        let mut native = env(IfaceMode::Native);
        let buf = native.alloc_data(2048).unwrap();
        native.api_call("getpid", &[]).unwrap();
        let s = native.machine.now();
        native.api_call("getpid", &[]).unwrap();
        let native_cost = (native.machine.now() - s).get();

        let mut sdk = env(IfaceMode::Sdk);
        let _ = buf;
        sdk.enter_main().unwrap();
        sdk.api_call("getpid", &[]).unwrap();
        let s = sdk.machine.now();
        sdk.api_call("getpid", &[]).unwrap();
        let sdk_cost = (sdk.machine.now() - s).get();

        assert!(native_cost < 600, "native syscall: {native_cost}");
        assert!(
            sdk_cost > 7_000,
            "sdk ocall should cost thousands: {sdk_cost}"
        );
    }

    #[test]
    fn hot_mode_is_between_native_and_sdk() {
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        hot.api_call("getpid", &[]).unwrap();
        let s = hot.machine.now();
        hot.api_call("getpid", &[]).unwrap();
        let cost = (hot.machine.now() - s).get();
        assert!((300..2_500).contains(&cost), "hot call cost: {cost}");
    }

    #[test]
    fn buffered_calls_move_data_in_all_modes() {
        for mode in IfaceMode::ALL {
            let mut e = env(mode);
            let data = e.alloc_data(2048).unwrap();
            e.enter_main().unwrap();
            e.api_call("sendmsg", &[BufArg::new(data, 2048)]).unwrap();
            e.api_call("read", &[BufArg::new(data, 2048)]).unwrap();
            assert_eq!(e.api_counts()["read"], 1, "{mode:?}");
        }
    }

    #[test]
    fn hot_mode_routes_calls_through_the_rt_pool() {
        let mut hot = env(IfaceMode::HotCalls);
        let data = hot.alloc_data(128).unwrap();
        hot.enter_main().unwrap();
        hot.api_call("getpid", &[]).unwrap();
        hot.api_call("read", &[BufArg::new(data, 128)]).unwrap();
        let r = hot
            .run_enclave_function(|e| {
                e.api_call("sendmsg", &[BufArg::new(data, 64)])?;
                Ok(1u32)
            })
            .unwrap();
        assert_eq!(r, 1);
        // Two direct ocalls + the RunEnclaveFunction shell + one nested
        // ocall, all carried by the real pooled data plane.
        let stats = hot.rt_stats().expect("hot mode has a pool");
        assert_eq!(stats.calls, 4);
        // Modes without a switchless channel have no pool.
        assert!(env(IfaceMode::Native).rt_stats().is_none());
        assert!(env(IfaceMode::Sdk).rt_stats().is_none());
    }

    #[test]
    fn rt_payloads_ride_the_arena() {
        let mut hot = env(IfaceMode::HotCallsNrz);
        let data = hot.alloc_data(4096).unwrap();
        hot.enter_main().unwrap();
        // No buffers: the 8-byte header rides inline in the slot.
        hot.api_call("getpid", &[]).unwrap();
        // 2 KiB `out` reads: one cold slab alloc, then steady-state reuse.
        for _ in 0..10 {
            hot.api_call("read", &[BufArg::new(data, 2048)]).unwrap();
        }
        let arena = hot.arena_stats().expect("hot mode has an arena");
        assert!(arena.inline_hits >= 1, "{arena:?}");
        assert_eq!(arena.allocs, 1, "{arena:?}");
        assert_eq!(arena.recycles, 9, "{arena:?}");
        assert!(env(IfaceMode::Sdk).arena_stats().is_none());
        assert!(env(IfaceMode::Native).arena_stats().is_none());
    }

    #[test]
    fn api_call_batch_bundles_on_the_hot_path() {
        let mut hot = env(IfaceMode::HotCalls);
        let data = hot.alloc_data(2048).unwrap();
        hot.enter_main().unwrap();
        let batch: Vec<(&'static str, Option<BufArg>)> = vec![
            ("getpid", None),
            ("read", Some(BufArg::new(data, 1024))),
            ("sendmsg", Some(BufArg::new(data, 512))),
        ];
        hot.api_call_batch(&batch).unwrap();
        // All three calls counted, all carried by the real transport.
        assert_eq!(hot.api_counts()["getpid"], 1);
        assert_eq!(hot.api_counts()["read"], 1);
        assert_eq!(hot.api_counts()["sendmsg"], 1);
        assert_eq!(hot.rt_stats().unwrap().calls, 3);
        // Governor surface exists in hot modes only.
        let g = hot.governor_stats().unwrap();
        assert_eq!((g.min, g.max), (1, 2));
        assert!(env(IfaceMode::Native).governor_stats().is_none());
    }

    #[test]
    fn route_connection_spreads_calls_over_shards() {
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        // Two connections, routed to distinct lanes of the sharded plane.
        for conn in 0..2u64 {
            hot.route_connection(conn);
            for _ in 0..5 {
                hot.api_call("getpid", &[]).unwrap();
            }
        }
        let rs = hot.rt_ring_stats().expect("hot mode has a sharded plane");
        assert_eq!(rs.shards.len(), 2);
        assert_eq!(rs.totals.calls, 10);
        // Each connection's submissions landed on its own shard's ring
        // (completions may be produced by either responder via stealing,
        // so only the *submission* placement is asserted — through the
        // serviced totals, which cover both shards).
        assert_eq!(rs.shards.iter().map(|s| s.serviced).sum::<u64>(), 10);
        // Modes without a switchless channel expose no shard stats, and
        // routing is a no-op there.
        let mut native = env(IfaceMode::Native);
        native.route_connection(7);
        assert!(native.rt_ring_stats().is_none());
    }

    #[test]
    fn api_call_batch_falls_back_per_call_in_other_modes() {
        for mode in [IfaceMode::Native, IfaceMode::Sdk] {
            let mut e = env(mode);
            let data = e.alloc_data(256).unwrap();
            e.enter_main().unwrap();
            e.api_call_batch(&[("getpid", None), ("read", Some(BufArg::new(data, 256)))])
                .unwrap();
            assert_eq!(e.api_counts()["getpid"], 1, "{mode:?}");
            assert_eq!(e.api_counts()["read"], 1, "{mode:?}");
        }
    }

    #[test]
    fn single_transport_is_one_ring_and_censuses_as_hot() {
        let mut hot = AppEnv::with_transport(
            SimConfig::builder().deterministic().build(),
            IfaceMode::HotCalls,
            &apis(),
            1 << 20,
            RtTransport::Single,
        )
        .unwrap();
        hot.enter_main().unwrap();
        for _ in 0..4 {
            hot.api_call("getpid", &[]).unwrap();
        }
        assert_eq!(hot.census_mode(), "hot");
        let rs = hot.rt_ring_stats().unwrap();
        assert_eq!(rs.shards.len(), 1, "single plane is one degenerate shard");
        assert_eq!(rs.totals.calls, 4);
        // The default transport censuses as "sharded"; sdk/native keep
        // their own labels regardless of transport.
        assert_eq!(env(IfaceMode::HotCalls).census_mode(), "sharded");
        assert_eq!(env(IfaceMode::Sdk).census_mode(), "sdk");
        assert_eq!(env(IfaceMode::Native).census_mode(), "native");
    }

    #[test]
    fn fused_transport_runs_call_tails_inline_and_censuses_as_fused() {
        let mut hot = AppEnv::with_transport(
            SimConfig::builder().deterministic().build(),
            IfaceMode::HotCalls,
            &apis(),
            1 << 20,
            RtTransport::Fused,
        )
        .unwrap();
        let data = hot.alloc_data(2048).unwrap();
        hot.enter_main().unwrap();
        for _ in 0..4 {
            hot.api_call("getpid", &[]).unwrap();
        }
        hot.api_call("read", &[BufArg::new(data, 1024)]).unwrap();
        hot.run_enclave_function(|e| {
            e.api_call("sendmsg", &[BufArg::new(data, 64)])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(hot.census_mode(), "fused");
        let stats = hot.rt_stats().unwrap();
        // 4 getpid + read + the RunEnclaveFunction shell + nested sendmsg.
        assert_eq!(stats.calls, 7);
        // With Auto fusing, every `call` either ran inline or was declined
        // with an accounted fallback — the two must partition the total.
        assert_eq!(stats.fused_runs + stats.fused_fallbacks, 7, "{stats:?}");
        let rs = hot.rt_ring_stats().unwrap();
        assert_eq!(rs.shards.len(), 1, "fused transport is one ring");
    }

    #[test]
    fn auto_transport_routes_observes_and_censuses_as_auto() {
        let mut auto = AppEnv::with_transport(
            SimConfig::builder().deterministic().build(),
            IfaceMode::HotCalls,
            &apis(),
            1 << 20,
            RtTransport::Auto,
        )
        .unwrap();
        let data = auto.alloc_data(2048).unwrap();
        auto.enter_main().unwrap();
        for _ in 0..80 {
            auto.api_call("getpid", &[]).unwrap();
        }
        auto.api_call("read", &[BufArg::new(data, 1024)]).unwrap();
        auto.run_enclave_function(|e| {
            e.api_call("sendmsg", &[BufArg::new(data, 64)])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(auto.census_mode(), "auto");
        assert_eq!(auto.api_counts()["getpid"], 80);
        // Modes/transports without a controller expose no ctl surface.
        assert!(env(IfaceMode::HotCalls).ctl_stats().is_none());
        assert!(env(IfaceMode::Sdk).ctl_provider("x").is_none());
        let stats = auto.ctl_stats().expect("auto transport has a controller");
        let t = auto.ctl_telemetry("app-ctl").unwrap();
        assert_eq!(t.name, "app-ctl");
        // Every declared API plus the ecall shell has a route row, each on
        // an allowed transport.
        assert_eq!(t.routes.len(), 4);
        if hotcalls::TELEMETRY_ENABLED {
            // 83 routed calls crossed several decide windows and at least
            // one sizer tick.
            assert!(stats.decisions >= 1, "{stats:?}");
            assert!(stats.ticks >= 1, "{stats:?}");
            let getpid = t.routes.iter().find(|r| r.api == "getpid").unwrap();
            assert!(getpid.observes >= 80, "{getpid:?}");
        }
        // The provider snapshot matches the live controller.
        let provider = auto.ctl_provider("prov").unwrap();
        assert_eq!(provider().routes.len(), 4);
    }

    #[test]
    fn auto_transport_batches_by_the_flush_threshold() {
        let mut auto = AppEnv::with_transport(
            SimConfig::builder().deterministic().build(),
            IfaceMode::HotCalls,
            &apis(),
            1 << 20,
            RtTransport::Auto,
        )
        .unwrap();
        let data = auto.alloc_data(2048).unwrap();
        auto.enter_main().unwrap();
        let batch: Vec<(&'static str, Option<BufArg>)> = vec![
            ("getpid", None),
            ("read", Some(BufArg::new(data, 1024))),
            ("sendmsg", Some(BufArg::new(data, 512))),
        ];
        auto.api_call_batch(&batch).unwrap();
        // All three calls counted and carried, whatever the chunk grain
        // the sizer's flush threshold picked.
        assert_eq!(auto.api_counts()["getpid"], 1);
        assert_eq!(auto.rt_stats().unwrap().calls, 3);
        if hotcalls::TELEMETRY_ENABLED {
            // Each bundled call fed a Bundled-cost observation back.
            let t = auto.ctl_telemetry("b").unwrap();
            let observed: u64 = t.routes.iter().map(|r| r.observes).sum();
            assert!(observed >= 3, "{t:?}");
        }
    }

    #[test]
    fn api_census_reports_counts_rates_and_shares() {
        let mut sdk = env(IfaceMode::Sdk);
        let data = sdk.alloc_data(1024).unwrap();
        sdk.enter_main().unwrap();
        for _ in 0..6 {
            sdk.api_call("read", &[BufArg::new(data, 1024)]).unwrap();
        }
        sdk.api_call("getpid", &[]).unwrap();
        let census = sdk.api_census("unit-test-app");
        assert_eq!(census.app, "unit-test-app");
        assert_eq!(census.mode, "sdk");
        assert_eq!(census.total_calls, 7);
        assert!(census.elapsed_secs > 0.0);
        assert!(census.interface_cycles > 0);
        assert!(census.core_time_fraction > 0.0);
        // Rows are most-frequent first and their interface shares are a
        // partition of the total (every call here went through the edge).
        assert_eq!(census.rows[0].name, "read");
        assert_eq!(census.rows[0].calls, 6);
        assert!(
            census.rows[0].cycles_per_call > 1_000.0,
            "sdk ocalls cost thousands"
        );
        let share_sum: f64 = census.rows.iter().map(|r| r.share_of_interface).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
    }

    #[test]
    fn rt_telemetry_separates_queue_and_service() {
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        for _ in 0..8 {
            hot.api_call("getpid", &[]).unwrap();
        }
        let t = hot.rt_telemetry("app-rt").expect("hot mode has a plane");
        assert_eq!(t.kind, "byte-sharded");
        assert_eq!(t.stats.totals.calls, 8);
        if hotcalls::TELEMETRY_ENABLED {
            // Every serviced call recorded one queue and one service
            // sample; every redeemed call one reap sample.
            assert_eq!(t.merged_queue().count(), 8);
            assert_eq!(t.merged_service().count(), 8);
            assert_eq!(t.reap.count(), 8);
        }
        assert!(env(IfaceMode::Native).rt_telemetry("x").is_none());
        assert!(env(IfaceMode::Sdk).rt_telemetry_provider("x").is_none());
    }

    #[test]
    fn api_mix_reproduces_fractional_rates() {
        let mut mix = ApiMix::new(&[("poll", 3.4), ("getpid", 0.5), ("time", 1.0)]);
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for _ in 0..1000 {
            for name in mix.tick() {
                *counts.entry(name).or_insert(0) += 1;
            }
        }
        assert!(
            (3_399..=3_400).contains(&counts["poll"]),
            "{}",
            counts["poll"]
        );
        assert_eq!(counts["getpid"], 500);
        assert_eq!(counts["time"], 1_000);
    }

    #[test]
    fn run_enclave_function_counts_and_nests() {
        let mut e = env(IfaceMode::Sdk);
        let data = e.alloc_data(64).unwrap();
        let r = e
            .run_enclave_function(|e| {
                e.api_call("sendmsg", &[BufArg::new(data, 64)])?;
                Ok(7u32)
            })
            .unwrap();
        assert_eq!(r, 7);
        assert_eq!(e.api_counts()["RunEnclaveFucntion"], 1);
        assert_eq!(e.api_counts()["sendmsg"], 1);
    }
}
