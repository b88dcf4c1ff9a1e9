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

use hotcalls::rt::{ByteCallTable, ByteRing, HotBuf, SlabArena, Window};
use hotcalls::sim::SimHotCalls;
use hotcalls::telemetry::{ArenaStats, GovernorStats, HotCallStats, PlaneTelemetry};
use hotcalls::HotCallConfig;
use sgx_sdk::edger8r::{edger8r, Proxies};
use sgx_sdk::edl::{parse_edl, Direction};
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Addr, Cycles, EnclaveBuildOptions, Machine, SimConfig};

use crate::error::Result;
use crate::porting::{generate_edl, ApiDecl};

/// Cost of a plain Linux syscall trap (paper cites ~150 cycles, after
/// FlexSC).
pub(crate) const SYSCALL_TRAP: u64 = 150;

/// Ring capacity of the real threaded transport behind the HotCalls
/// modes.
const RT_RING_CAPACITY: usize = 32;

/// The real switchless transport carried alongside the cycle model in the
/// HotCalls modes: a batched-drain submission ring whose one responder
/// thread plays the untrusted "On Call" side. The simulator still charges
/// the paper's cycle costs; this pool moves each call's marshalled payload
/// for real through arena-backed buffers — callee-bound bytes ride in the
/// request, the "OS" writes caller-bound bytes into the same buffer in
/// place, and the buffer recycles into the caller's slab arena (inline in
/// the slot when it fits a cache line), so every application API call
/// exercises the production zero-copy data plane.
#[derive(Debug)]
struct RtPool {
    server: ByteRing,
    /// The one caller's handle, as a window that carries a batch's calls
    /// (empty between batches): an environment's calls come from one
    /// thread.
    window: Window<HotBuf, HotBuf>,
    /// The arena every payload buffer cycles through.
    arena: SlabArena,
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

impl RtPool {
    fn new(apis: &[ApiDecl]) -> Result<Self> {
        let mut table = ByteCallTable::new();
        let mut ids = BTreeMap::new();
        for api in apis {
            ids.insert(api.name, table.register(os_responder));
        }
        let run_fn = table.register(os_responder);
        // One responder is enough for one requester thread, and it dozes
        // when the application's call rate is low — every benchmark builds
        // several environments side by side, and a dozed plane runs the
        // synchronous calls inline.
        let server = ByteRing::spawn_pool(table, RT_RING_CAPACITY, 1, HotCallConfig::auto())?;
        // One below the capacity: the batch depth the app figures are
        // measured at (a window may be as deep as the ring).
        let window = server.requester().window(RT_RING_CAPACITY - 1)?;
        Ok(RtPool {
            server,
            window,
            arena: SlabArena::new(),
            ids,
            run_fn,
            tx_scratch: Vec::new(),
        })
    }

    /// Carries one call: `in_bytes` travel to the responder, `out_bytes`
    /// come back (written by the responder into the same buffer). Returns
    /// the caller-bound byte count actually produced.
    fn call(&mut self, name: &str, in_bytes: u64, out_bytes: u64) -> Result<u64> {
        let (id, req) = self.stage_request(name, in_bytes, out_bytes);
        let resp = self.window.requester().call(id, req)?;
        let n = resp.len() as u64;
        self.arena.recycle(resp);
        Ok(n)
    }

    /// Stages one request into an arena buffer with room for `out_bytes`
    /// of response: 8-byte response-length header followed by `in_bytes`
    /// of callee-bound payload, assembled in `tx_scratch`. Returns the
    /// call id of `name` and the buffer.
    fn stage_request(&mut self, name: &str, in_bytes: u64, out_bytes: u64) -> (u32, HotBuf) {
        let req_len = 8 + in_bytes as usize;
        if self.tx_scratch.len() < req_len {
            self.tx_scratch.resize(req_len, 0);
        }
        self.tx_scratch[..8].copy_from_slice(&out_bytes.to_le_bytes());
        let req = self
            .arena
            .acquire(&self.tx_scratch[..req_len], out_bytes as usize);
        (self.ids.get(name).copied().unwrap_or(self.run_fn), req)
    }

    /// Submits one call of a batch without waiting; a full window first
    /// redeems its oldest call.
    fn submit_windowed(&mut self, name: &str, in_bytes: u64, out_bytes: u64) -> Result<()> {
        let (id, req) = self.stage_request(name, in_bytes, out_bytes);
        if let Some(oldest) = self.window.submit(id, req)? {
            self.arena.recycle(oldest);
        }
        Ok(())
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
    pub(crate) fn in_enclave(&self) -> bool {
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
pub(crate) struct ApiMix {
    entries: Vec<(&'static str, f64, f64)>,
}

impl ApiMix {
    /// Builds a mix from (name, calls-per-event) pairs.
    pub(crate) fn new(rates: &[(&'static str, f64)]) -> Self {
        ApiMix {
            entries: rates.iter().map(|&(n, r)| (n, r, 0.0)).collect(),
        }
    }

    /// Advances one event (request/packet); returns the calls to issue.
    pub(crate) fn tick(&mut self) -> Vec<&'static str> {
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

/// One API's row in the Table-2-style census.
#[derive(Debug, Clone)]
pub struct ApiCensusRow {
    /// API (edge function) name.
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Calls per (virtual) second.
    pub calls_per_sec: f64,
    /// Mean interface cycles per call.
    pub cycles_per_call: f64,
    /// This API's share of all interface cycles, in `[0, 1]`.
    pub share_of_interface: f64,
}

/// A Table-2-style census of one application under one interface mode
/// ([`AppEnv::api_census`]): which APIs were called, how often, at what
/// per-call cycle cost, and what fraction of core time the interface
/// consumed.
#[derive(Debug, Clone)]
pub struct ApiCensus {
    /// Application name (`memcached`, `lighttpd`, `openvpn`).
    pub app: String,
    /// Interface mode label (`AppEnv::census_mode`: `native`, `sdk` or
    /// `hot`).
    pub mode: String,
    /// Virtual seconds the measured window spanned.
    pub elapsed_secs: f64,
    /// Total API calls issued.
    pub total_calls: u64,
    /// Total cycles spent inside the call interface.
    pub interface_cycles: u64,
    /// Fraction of elapsed core time spent in the interface (Table 2's
    /// "Core Time" column).
    pub core_time_fraction: f64,
    /// Per-API rows, most frequent first.
    pub rows: Vec<ApiCensusRow>,
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
        let mut machine = Machine::new(config);
        let edl_src = generate_edl(apis);
        let edl = parse_edl(&edl_src).map_err(sgx_sdk::SdkError::Edl)?;
        let proxies = edger8r(&edl)?;
        let api_costs = apis.iter().map(|a| (a.name, a.os_cost)).collect();
        let native_bounce = machine.alloc_untrusted(64 * 1024, 4096);

        let (ctx, hot, rt) = if mode.in_enclave() {
            let eid = machine.build_enclave(EnclaveBuildOptions {
                heap_bytes: heap_bytes + (4 << 20), // app data + SDK scratch
                ..EnclaveBuildOptions::default()
            })?;
            let options = MarshalOptions {
                no_redundant_zeroing: mode == IfaceMode::HotCallsNrz,
                optimized_memset: false,
            };
            let ctx = EnclaveCtx::new(&mut machine, eid, &edl, options)?;
            let (hot, rt) = if matches!(mode, IfaceMode::HotCalls | IfaceMode::HotCallsNrz) {
                (
                    Some(SimHotCalls::new(
                        &mut machine,
                        &ctx,
                        HotCallConfig::default(),
                    )?),
                    Some(RtPool::new(apis)?),
                )
            } else {
                (None, None)
            };
            (Some(ctx), hot, rt)
        } else {
            (None, None, None)
        };

        let start = machine.now();
        Ok(AppEnv {
            machine,
            mode,
            proxies,
            ctx,
            hot,
            rt,
            api_costs,
            api_counts: BTreeMap::new(),
            native_bounce,
            start,
        })
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
            IfaceMode::Sdk => self.sdk_ocall(name, bufs, os_cost),
            IfaceMode::HotCalls | IfaceMode::HotCallsNrz => self.hot_ocall(name, bufs, os_cost),
        }
    }

    /// One full SDK ocall around the OS work.
    fn sdk_ocall(&mut self, name: &'static str, bufs: &[BufArg], os_cost: u64) -> Result<()> {
        let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
        ctx.ocall(&mut self.machine, name, bufs, |_, m, _| {
            m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
            Ok(())
        })?;
        Ok(())
    }

    /// One switchless call. The real data plane first: stage the
    /// callee-bound bytes into an arena-backed buffer, submit it into the
    /// pooled ring, and let an "On Call" responder write the caller-bound
    /// bytes back into the same buffer. Then the cycle model.
    fn hot_ocall(&mut self, name: &'static str, bufs: &[BufArg], os_cost: u64) -> Result<()> {
        let (in_bytes, out_bytes) = self.payload_bytes(name, bufs)?;
        let rt = self.rt.as_mut().expect("hot mode has rt pool");
        let produced = rt.call(name, in_bytes, out_bytes)?;
        debug_assert_eq!(produced, out_bytes, "responder fills the out request");
        self.charge_hot_ocall(name, bufs, os_cost)
    }

    /// The cycle model of one switchless call: the paper's HotCall cost
    /// around the OS work.
    fn charge_hot_ocall(
        &mut self,
        name: &'static str,
        bufs: &[BufArg],
        os_cost: u64,
    ) -> Result<()> {
        let ctx = self.ctx.as_mut().expect("enclave mode has ctx");
        let hot = self.hot.as_mut().expect("hot mode has channel");
        hot.hot_ocall(&mut self.machine, ctx, name, bufs, |_, m, _| {
            m.charge(Cycles::new(SYSCALL_TRAP + os_cost));
            Ok(())
        })?;
        Ok(())
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

    /// Issues a batch of OS API calls at once.
    ///
    /// In the HotCalls modes the batch rides the real transport as a
    /// pipelined window — one ring submission per call, many in flight;
    /// the cycle model charges each call individually. Native and SDK
    /// modes issue the calls one by one.
    ///
    /// Each entry is `(api name, optional buffer argument)` — the shape of
    /// the applications' Table 2 auxiliary mixes.
    ///
    /// # Errors
    ///
    /// Propagates interface failures: the first failing call stops the
    /// batch, and its error is returned once every call already in flight
    /// has been redeemed.
    pub(crate) fn api_call_batch(
        &mut self,
        calls: &[(&'static str, Option<BufArg>)],
    ) -> Result<()> {
        if calls.is_empty() {
            return Ok(());
        }
        if !matches!(self.mode, IfaceMode::HotCalls | IfaceMode::HotCallsNrz) {
            for (name, buf) in calls {
                self.api_call(name, buf.as_slice())?;
            }
            return Ok(());
        }
        let mut outcome = Ok(());
        for (name, buf) in calls {
            *self.api_counts.entry(name).or_insert(0) += 1;
            let plan = self.payload_bytes(name, buf.as_slice());
            let rt = self.rt.as_mut().expect("hot mode has rt pool");
            outcome = plan.and_then(|(i, o)| rt.submit_windowed(name, i, o));
            if outcome.is_err() {
                break;
            }
        }
        // Redeem every call still in flight, so none outlives the batch.
        let rt = self.rt.as_mut().expect("hot mode has rt pool");
        let arena = &mut rt.arena;
        let drained = rt.window.drain(|resp| arena.recycle(resp));
        outcome.and(drained.map_err(Into::into))?;
        for (name, buf) in calls {
            let os_cost = self.api_costs.get(name).copied().unwrap_or(300);
            self.charge_hot_ocall(name, buf.as_slice(), os_cost)?;
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
    pub(crate) fn run_enclave_function<R>(
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
                // ...then the trusted body.
                body(self)
            }
        }
    }

    /// Charges pure application compute.
    pub(crate) fn compute(&mut self, cycles: u64) {
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
        self.rt.as_ref().map(|rt| rt.server.stats())
    }

    /// Buffer-arena counters of the real transport (HotCalls modes only):
    /// inline hits, slab recycles, fresh allocations. `None` for modes
    /// that have no switchless channel.
    pub fn arena_stats(&self) -> Option<ArenaStats> {
        self.rt.as_ref().map(|rt| rt.arena.stats())
    }

    /// The real transport's responder in [`GovernorStats`] form
    /// (HotCalls modes only): a plane has one responder, so `active ==
    /// min == max == 1` and the park/wake counters read zero. `None` for
    /// modes that have no switchless channel.
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        self.rt.as_ref().map(|rt| rt.server.governor_stats())
    }

    /// Cycles spent inside the call interface so far (enclave modes only;
    /// zero natively). Drives Table 2's "Core Time" column.
    pub fn interface_cycles(&self) -> Cycles {
        match &self.ctx {
            Some(ctx) => ctx.stats().total_cycles(),
            None => Cycles::ZERO,
        }
    }

    /// The label this environment's census rows file under: `native`,
    /// `sdk`, or `hot` in both HotCalls modes.
    pub(crate) fn census_mode(&self) -> &'static str {
        match self.mode {
            IfaceMode::Native => "native",
            IfaceMode::Sdk => "sdk",
            IfaceMode::HotCalls | IfaceMode::HotCallsNrz => "hot",
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
    /// queue/service histograms, reap latency, ring counters.
    pub fn rt_telemetry(&self, name: &str) -> Option<PlaneTelemetry> {
        self.rt.as_ref().map(|rt| rt.server.telemetry(name))
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
    fn api_call_batch_submits_one_ticket_per_call() {
        let mut hot = env(IfaceMode::HotCalls);
        let data = hot.alloc_data(2048).unwrap();
        hot.enter_main().unwrap();
        let batch: Vec<(&'static str, Option<BufArg>)> = vec![
            ("getpid", None),
            ("read", Some(BufArg::new(data, 1024))),
            ("sendmsg", Some(BufArg::new(data, 512))),
        ];
        hot.api_call_batch(&batch).unwrap();
        // All three counted, each carried in a ring submission of its own.
        assert_eq!(hot.api_counts()["getpid"], 1);
        assert_eq!(hot.api_counts()["read"], 1);
        assert_eq!(hot.api_counts()["sendmsg"], 1);
        let s = hot.rt_stats().unwrap();
        assert_eq!((s.calls, s.busy_polls), (3, 3));
        // Governor surface exists in hot modes only.
        let g = hot.governor_stats().unwrap();
        assert_eq!((g.min, g.max), (1, 1));
        assert!(env(IfaceMode::Native).governor_stats().is_none());
    }

    #[test]
    fn api_call_batch_laps_the_ring_without_wedging() {
        // Three ring laps in one batch: no submission may lap a held ticket.
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        let n = 3 * RT_RING_CAPACITY;
        hot.api_call_batch(&vec![("getpid", None); n]).unwrap();
        // A failing call stops its batch, but no ticket outlives a batch.
        let failing = [("getpid", None), ("undeclared", None)];
        assert!(hot.api_call_batch(&failing).is_err());
        assert!(hot.rt.as_ref().unwrap().window.is_empty());
        let s = hot.rt_stats().unwrap();
        assert_eq!((s.calls, s.busy_polls), (n as u64 + 1, n as u64 + 1));
    }

    #[test]
    fn new_builds_the_one_responder_byte_ring() {
        // The plane `AppEnv::new` carries HotCalls-mode calls on (the one
        // the memcached benchmarks measure): one ring, one responder, and
        // every call either serviced by it or — once it has dozed — run
        // inline.
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        for _ in 0..8 {
            hot.api_call("getpid", &[]).unwrap();
        }
        let t = hot.rt_telemetry("plane").unwrap();
        assert_eq!((t.name.as_str(), t.stats.occupancy), ("plane", 0));
        let rs = t.stats;
        let s = hot.rt_stats().unwrap();
        assert_eq!(s.calls, 8, "{s:?}");
        assert_eq!(rs.totals.busy_polls + s.fused_runs, 8, "{rs:?}");
        assert!(env(IfaceMode::Native).rt_telemetry("plane").is_none());
        let g = hot.governor_stats().unwrap();
        assert_eq!((g.min, g.max), (1, 1));
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
        // Both HotCalls modes census as "hot"; sdk and native keep their
        // own labels.
        assert_eq!(env(IfaceMode::HotCalls).census_mode(), "hot");
        assert_eq!(env(IfaceMode::HotCallsNrz).census_mode(), "hot");
        assert_eq!(env(IfaceMode::Sdk).census_mode(), "sdk");
        assert_eq!(env(IfaceMode::Native).census_mode(), "native");
    }

    #[test]
    fn rt_telemetry_separates_queue_and_service() {
        let mut hot = env(IfaceMode::HotCalls);
        hot.enter_main().unwrap();
        // One batch: its submissions always ride the responder, where a
        // synchronous call on the dozed plane would run inline and record
        // no stage sample.
        hot.api_call_batch(&[("getpid", None); 8]).unwrap();
        let t = hot.rt_telemetry("app-rt").expect("hot mode has a plane");
        assert_eq!(t.name, "app-rt");
        assert_eq!(t.stats.totals.calls, 8);
        if hotcalls::telemetry::TELEMETRY_ENABLED {
            // Every serviced call recorded one queue and one service
            // sample; every redeemed call one reap sample.
            assert_eq!(t.merged_queue().count(), 8);
            assert_eq!(t.merged_service().count(), 8);
            assert_eq!(t.reap.count(), 8);
        }
        assert!(env(IfaceMode::Native).rt_telemetry("x").is_none());
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
