//! The system under test. This is the only file of the benchmark that
//! names product types, and it builds them with the constructors the
//! crate docs and examples show (`HotCallServer::spawn`,
//! `ByteRing::spawn_pool`, `AppEnv::new`, `SecureStore::new`,
//! `SimHotCalls::new`) — so when ROADMAP item 1 collapses the planes, the
//! benchmark needs at most a follow-up here.
//!
//! Each workload has a sim half (virtual cycles on `sgx-sim`, the same op
//! stream through the HotCalls+NRZ port and through the SDK port) and a
//! host half (wall clock on the live `hotcalls::rt` plane). All loops are
//! closed: an enclave thread blocks on its ocall, so one generator thread
//! that waits for each reply is the real traffic shape.

use std::time::Instant;

use apps::memcached::protocol::{self, Opcode, Status};
use apps::memcached::{self, Memcached};
use apps::porting::generate_edl;
use apps::storage::SecureStore;
use apps::{AppEnv, IfaceMode};
use bytes::Bytes;
use hotcalls::rt::{
    ByteCallTable, ByteCaller, ByteRing, CallTable, HotCallServer, Requester, SgCallTable, SgList,
    SgRing, Ticket,
};
use hotcalls::sim::SimHotCalls;
use hotcalls::telemetry::{ArenaStats, GovernorStats, HotCallStats, PlaneTelemetry};
use hotcalls::HotCallConfig;
use sgx_sdk::edger8r::edger8r;
use sgx_sdk::edl::{parse_edl, Direction};
use sgx_sdk::marshal::{stage, stage_sg, unstage, CallerSide, StagingArea};
use sgx_sdk::memops::sdk_memcpy;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Addr, EnclaveBuildOptions, EnclaveId, Machine, SimConfig, Telemetry};

use crate::gen::{mix, word_sum, Rng};
use crate::metrics::Metrics;
use crate::stats::ratio;
use crate::trace::{Probe, Span, SpanProbe};
use crate::workload::{Res, Scale, SetupNotes, SimReport, SimSide, Trial, Workload};

const MIB: f64 = (1u64 << 20) as f64;

fn fail<E: core::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig::builder().seed(seed).build()
}

// ---------------------------------------------------------------------
// Shared sim plumbing
// ---------------------------------------------------------------------

/// Simulator counters at the start of a measured region.
struct Mark {
    cycles: u64,
    t: Telemetry,
}

fn mark(m: &Machine) -> Mark {
    Mark {
        cycles: m.now().get(),
        t: m.telemetry(),
    }
}

fn pair_delta(now: (u64, u64), then: (u64, u64)) -> (u64, u64) {
    (now.0 - then.0, now.1 - then.1)
}

/// Cache-line lookups the machine has made since `before` (every access
/// looks its lines up in L1 first).
fn l1_lookups_since(before: &Mark, m: &Machine) -> u64 {
    let (hits, misses) = pair_delta(m.telemetry().l1, before.t.l1);
    hits + misses
}

/// Fills the machine-level counters of `side` with the deltas since
/// `before`.
fn close_side(side: &mut SimSide, before: &Mark, m: &Machine) {
    let t = m.telemetry();
    side.cycles = m.now().get() - before.cycles;
    side.l1_lookups = l1_lookups_since(before, m);
    side.llc = pair_delta(t.llc, before.t.llc);
    side.tlb = pair_delta(t.tlb, before.t.tlb);
    side.mee = pair_delta(t.mee_cache, before.t.mee_cache);
    side.epc_faults = t.epc.eldu - before.t.epc.eldu;
    side.paging_cycles = t.epc.paging_cycles - before.t.epc.paging_cycles;
    side.aex = t.aex_events - before.t.aex_events;
}

/// Isolated probe: host microseconds of `parse_edl` + `edger8r` on `src`
/// (best of 5: the probe is microseconds long, so a single preemption
/// would dominate).
fn set_edl_probe(out: &mut Metrics, src: &str) -> Res<()> {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let edl = parse_edl(src).map_err(fail("parse_edl"))?;
        let proxies = edger8r(&edl).map_err(fail("edger8r"))?;
        std::hint::black_box(&proxies);
        best = best.min(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set("sgx-sdk.edl.host_us", best);
    Ok(())
}

/// One enclave with one ocall declared, entered and ready: the fixture of
/// the two call workloads' sim halves. `hot` is present on the
/// HotCalls+NRZ port and absent on the SDK port.
struct SimPort {
    m: Machine,
    ctx: EnclaveCtx,
    hot: Option<SimHotCalls>,
    /// The enclave-side message buffers, `slots` of them back to back;
    /// each call marshals the one the seeded op stream names.
    pool: Addr,
}

/// What the untrusted callee does with the staged buffer.
#[derive(Clone, Copy)]
struct CallShape {
    name: &'static str,
    len: u64,
    /// `[in,out]`: the callee also writes the buffer back.
    writes_back: bool,
}

impl SimPort {
    fn build(
        seed: u64,
        edl_src: &str,
        hot: bool,
        pool_bytes: u64,
        notes: Option<&mut SetupNotes>,
    ) -> Res<SimPort> {
        let mut m = Machine::new(sim_config(seed));
        let before = m.now().get();
        let t = Instant::now();
        let eid = m
            .build_enclave(EnclaveBuildOptions::default())
            .map_err(fail("build_enclave"))?;
        if let Some(n) = notes {
            n.enclave_build_cycles = m.now().get() - before;
            n.enclave_build_host_ns = t.elapsed().as_nanos() as u64;
        }
        let edl = parse_edl(edl_src).map_err(fail("parse_edl"))?;
        let options = if hot {
            MarshalOptions::nrz()
        } else {
            MarshalOptions::default()
        };
        let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, options).map_err(fail("EnclaveCtx"))?;
        let hot = if hot {
            Some(
                SimHotCalls::new(&mut m, &ctx, HotCallConfig::default())
                    .map_err(fail("SimHotCalls"))?,
            )
        } else {
            None
        };
        let pool = m
            .alloc_enclave_heap(eid, pool_bytes, 64)
            .map_err(fail("alloc buffers"))?;
        ctx.enter_main(&mut m).map_err(fail("enter_main"))?;
        Ok(SimPort { m, ctx, hot, pool })
    }

    /// One call of `shape` through this port's interface, marshalling
    /// message buffer `slot`.
    fn call(&mut self, shape: CallShape, slot: u32) -> bool {
        let bufs = [BufArg::new(
            self.pool.offset(slot as u64 * shape.len),
            shape.len,
        )];
        let body = |_: &mut EnclaveCtx, m: &mut Machine, args: &sgx_sdk::CallArgs| {
            m.read(args.bufs[0], shape.len)?;
            if shape.writes_back {
                m.write(args.bufs[0], shape.len)?;
            }
            Ok(())
        };
        match &mut self.hot {
            Some(hot) => hot
                .hot_ocall(&mut self.m, &mut self.ctx, shape.name, &bufs, body)
                .is_ok(),
            None => self.ctx.ocall(&mut self.m, shape.name, &bufs, body).is_ok(),
        }
    }

    /// One untimed call on each of the `slots` buffers, then one
    /// measured call per entry of `order`.
    fn run(&mut self, shape: CallShape, slots: u32, order: &[u32]) -> Res<SimSide> {
        for slot in 0..slots {
            if !self.call(shape, slot) {
                return Err(format!("sim warm-up call {} failed", shape.name));
            }
        }
        let ops = order.len() as u64;
        let hot_before = self.hot.as_ref().map(SimHotCalls::stats);
        let before = mark(&self.m);
        let mut side = SimSide {
            ops: ops as f64,
            attempted: ops,
            call_cycles: Vec::with_capacity(ops as usize),
            ..SimSide::default()
        };
        for &slot in order {
            let t0 = self.m.now().get();
            if !self.call(shape, slot) {
                side.failed += 1;
            }
            side.call_cycles.push(self.m.now().get() - t0);
        }
        close_side(&mut side, &before, &self.m);
        side.edge_calls = ops;
        side.iface_cycles = side.cycles;
        if let (Some(hot), Some(then)) = (&self.hot, hot_before) {
            let now = hot.stats();
            side.hot_calls = now.calls - then.calls;
            side.hot_fallbacks = now.fallbacks - then.fallbacks;
            // Every op must be accounted for as a hot call or a fallback.
            if side.hot_calls + side.hot_fallbacks != ops {
                side.failed += 1;
            }
        }
        Ok(side)
    }
}

/// `ops` message indices drawn uniformly from `0..messages`.
fn message_order(rng: &mut Rng, ops: u64, messages: u32) -> Vec<u32> {
    (0..ops)
        .map(|_| rng.below(messages as u64) as u32)
        .collect()
}

/// Isolated probe: stages one buffer of `shape` through the SDK's public
/// `stage` with a harness-owned area and reads the zeroing ledger —
/// (zeroed, elided) bytes per call under `ctx`'s marshalling options.
/// (`EnclaveCtx::ocall` and `hot_ocall` keep their own area private.)
fn zero_ledger_probe(
    m: &mut Machine,
    ctx: &EnclaveCtx,
    buf: Addr,
    shape: CallShape,
) -> Res<(f64, f64)> {
    let plan = ctx
        .proxies()
        .ocall(shape.name)
        .map_err(fail("proxy plan"))?
        .clone();
    let cap = shape.len + 8192;
    let scratch = m.alloc_untrusted(cap, 4096);
    let mut area = StagingArea::untrusted(m, scratch, cap);
    area.reserve(plan.struct_bytes);
    let (_, staged) = stage(
        m,
        &plan,
        &[BufArg::new(buf, shape.len)],
        &mut area,
        CallerSide::Trusted,
        ctx.options(),
    )
    .map_err(fail("stage probe"))?;
    unstage(m, &staged).map_err(fail("unstage probe"))?;
    let ledger = area.ledger();
    Ok((ledger.zeroed_bytes() as f64, ledger.elided_bytes() as f64))
}

/// Sets the two marshalling-ledger metrics from a probe on each port:
/// what the SDK port zeroes per op, what the NRZ port elides per op.
fn set_zero_ledger(
    out: &mut Metrics,
    sdk: &mut SimPort,
    hot: &mut SimPort,
    shape: CallShape,
) -> Res<()> {
    let (zeroed, _) = zero_ledger_probe(&mut sdk.m, &sdk.ctx, sdk.pool, shape)?;
    let (_, elided) = zero_ledger_probe(&mut hot.m, &hot.ctx, hot.pool, shape)?;
    out.set("sgx-sdk.marshal.zeroed_bytes_per_op", zeroed);
    out.set("sgx-sdk.marshal.elided_bytes_per_op", elided);
    Ok(())
}

/// Share of responder polls that found no work.
fn idle_poll_share(stats: HotCallStats) -> f64 {
    ratio(
        stats.idle_polls as f64,
        (stats.idle_polls + stats.busy_polls) as f64,
    )
}

fn set_ring_metrics(out: &mut Metrics, stats: HotCallStats, gov: GovernorStats) {
    let kops = stats.calls as f64 / 1e3;
    out.set("hotcalls.rt.ring.idle_poll_share", idle_poll_share(stats));
    out.set(
        "hotcalls.rt.ring.wakeups_per_kop",
        ratio(stats.wakeups as f64, kops),
    );
    out.set(
        "hotcalls.rt.governor.parks_per_kop",
        ratio(gov.parks as f64, kops),
    );
}

fn set_arena_metrics(out: &mut Metrics, arena: ArenaStats) {
    out.set(
        "hotcalls.rt.arena.allocs_per_kop",
        ratio(arena.allocs as f64, arena.acquires() as f64 / 1e3),
    );
    out.set(
        "hotcalls.rt.arena.inline_hit_share",
        arena.inline_hit_rate(),
    );
    out.set(
        "hotcalls.rt.arena.stale_recycles",
        arena.stale_recycles as f64,
    );
}

/// Stage histograms read through the public `telemetry(name)` snapshot
/// (RDTSC cycles of the host, not virtual cycles).
fn set_stage_metrics(out: &mut Metrics, t: &PlaneTelemetry) {
    out.set(
        "hotcalls.telemetry.queue_p50_cycles",
        t.merged_queue().percentile(0.5) as f64,
    );
    out.set(
        "hotcalls.telemetry.service_p50_cycles",
        t.merged_service().percentile(0.5) as f64,
    );
    out.set(
        "hotcalls.telemetry.reap_p50_cycles",
        t.reap.percentile(0.5) as f64,
    );
}

// ---------------------------------------------------------------------
// rt_call — the bare call
// ---------------------------------------------------------------------

const CALL_LEN: usize = 64;
/// Distinct messages the op stream draws from (64 KiB of enclave
/// buffers: past the modelled L1, inside L2).
const CALL_MESSAGES: u32 = 1024;
const CALL_EDL: &str =
    "enclave { untrusted { void o_send([in, size=n] const uint8_t* b, size_t n); }; };";
const CALL_SHAPE: CallShape = CallShape {
    name: "o_send",
    len: CALL_LEN as u64,
    writes_back: false,
};

#[derive(Debug)]
pub struct CallPayload {
    bytes: [u8; CALL_LEN],
    sum: u64,
}

#[derive(Debug)]
pub struct CallInputs {
    seed: u64,
    payloads: Vec<CallPayload>,
    /// The sim half's op stream: which message each call sends.
    sim_order: Vec<u32>,
    trial_ops: u64,
}

/// The reply to a call is the word sum of its payload.
fn call_reply_ok(p: &CallPayload, reply: &hotcalls::Result<u64>) -> bool {
    matches!(reply, Ok(sum) if *sum == p.sum)
}

pub struct RtCall {
    sdk: SimPort,
    hot: SimPort,
    server: HotCallServer<[u8; CALL_LEN], u64>,
    requester: Requester<[u8; CALL_LEN], u64>,
    id: u32,
}

impl RtCall {
    fn calls<P: Probe>(&mut self, inputs: &CallInputs, ops: u64, probe: &mut P) -> u64 {
        let mut failed = 0;
        let n = inputs.payloads.len() as u64;
        for i in 0..ops {
            let p = &inputs.payloads[(i % n) as usize];
            let s = probe.enter(Span::MailboxCall, i);
            let reply = self.requester.call(self.id, p.bytes);
            probe.exit(s);
            if !call_reply_ok(p, &reply) {
                failed += 1;
            }
        }
        failed
    }
}

impl Workload for RtCall {
    const NAME: &'static str = "rt_call";
    type Inputs = CallInputs;

    fn generate(seed: u64, scale: Scale) -> CallInputs {
        let mut rng = Rng::new(seed ^ 0x7274_5f63_616c_6c00);
        let payloads = (0..CALL_MESSAGES)
            .map(|_| {
                let mut bytes = [0u8; CALL_LEN];
                rng.fill(&mut bytes);
                CallPayload {
                    sum: word_sum(&bytes),
                    bytes,
                }
            })
            .collect();
        CallInputs {
            seed,
            payloads,
            sim_order: message_order(&mut rng, scale.of(50_000), CALL_MESSAGES),
            trial_ops: scale.of(10_000),
        }
    }

    fn build(inputs: &CallInputs, notes: &mut SetupNotes) -> Res<Self> {
        let pool = CALL_MESSAGES as u64 * CALL_LEN as u64;
        let hot = SimPort::build(inputs.seed, CALL_EDL, true, pool, Some(notes))?;
        let sdk = SimPort::build(inputs.seed, CALL_EDL, false, pool, None)?;
        let mut table: CallTable<[u8; CALL_LEN], u64> = CallTable::new();
        let id = table.register(|req: [u8; CALL_LEN]| word_sum(&req));
        let server = HotCallServer::spawn(table, HotCallConfig::default());
        let requester = server.requester();
        Ok(RtCall {
            sdk,
            hot,
            server,
            requester,
            id,
        })
    }

    fn sim(&mut self, inputs: &CallInputs) -> Res<SimReport> {
        Ok(SimReport {
            hot: self.hot.run(CALL_SHAPE, CALL_MESSAGES, &inputs.sim_order)?,
            sdk: self.sdk.run(CALL_SHAPE, CALL_MESSAGES, &inputs.sim_order)?,
        })
    }

    fn warm_host(&mut self, inputs: &CallInputs) -> Res<()> {
        match self.calls(inputs, inputs.trial_ops, &mut crate::trace::NoProbe) {
            0 => Ok(()),
            n => Err(format!("{n} warm-up calls failed")),
        }
    }

    fn host_trial<P: Probe>(
        &mut self,
        inputs: &CallInputs,
        trial: u64,
        probe: &mut P,
    ) -> Res<Trial> {
        let t = probe.enter(Span::Trial, trial);
        let failed = self.calls(inputs, inputs.trial_ops, probe);
        probe.exit(t);
        Ok(Trial {
            ops: inputs.trial_ops as f64,
            attempted: inputs.trial_ops,
            failed,
        })
    }

    fn layers(
        &mut self,
        _inputs: &CallInputs,
        _sim: &SimReport,
        probe: &SpanProbe,
        out: &mut Metrics,
    ) -> Res<f64> {
        set_edl_probe(out, CALL_EDL)?;
        set_zero_ledger(out, &mut self.sdk, &mut self.hot, CALL_SHAPE)?;
        let call_p50 = probe.quantile_ns(Span::MailboxCall, 0.5);
        out.set("hotcalls.rt.mailbox.call_p50_ns", call_p50);
        out.set(
            "hotcalls.rt.mailbox.call_p99_ns",
            probe.quantile_ns(Span::MailboxCall, 0.99),
        );
        let stats = self.server.stats();
        let kops = stats.calls as f64 / 1e3;
        out.set(
            "hotcalls.rt.mailbox.wakeups_per_kop",
            ratio(stats.wakeups as f64, kops),
        );
        out.set(
            "hotcalls.rt.mailbox.fallbacks_per_kop",
            ratio(stats.fallbacks as f64, kops),
        );
        out.set(
            "hotcalls.rt.mailbox.idle_poll_share",
            idle_poll_share(stats),
        );
        // One op is one mailbox call.
        Ok(call_p50)
    }

    fn verifiers_reject_corruption(&mut self, inputs: &CallInputs) -> Res<()> {
        let p = &inputs.payloads[0];
        let reply = self.requester.call(self.id, p.bytes);
        if !call_reply_ok(p, &reply) {
            return Err("rt_call verifier rejects a genuine reply".into());
        }
        let corrupted = reply.map(|sum| sum ^ 1);
        if call_reply_ok(p, &corrupted) {
            return Err("rt_call verifier accepts a corrupted reply".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// rt_pipe — payload-bearing and pipelined
// ---------------------------------------------------------------------

const PIPE_LEN: usize = 1024;
/// Distinct messages the op stream draws from (256 KiB of enclave
/// buffers: the size of the modelled L2).
const PIPE_MESSAGES: u32 = 256;
const PIPE_WINDOW: usize = 16;
const PIPE_RING: usize = 64;
const PIPE_MASK: u8 = 0x5A;
const PIPE_EDL: &str =
    "enclave { untrusted { void o_xfer([in, out, size=n] uint8_t* b, size_t n); }; };";
const PIPE_SHAPE: CallShape = CallShape {
    name: "o_xfer",
    len: PIPE_LEN as u64,
    writes_back: true,
};

#[derive(Debug)]
pub struct PipePayload {
    bytes: Vec<u8>,
    /// Word sum of the transformed payload the handler must return.
    reply_sum: u64,
}

#[derive(Debug)]
pub struct PipeInputs {
    seed: u64,
    payloads: Vec<PipePayload>,
    /// The sim half's op stream: which message each call carries.
    sim_order: Vec<u32>,
    trial_ops: u64,
}

/// The "OS" side of the byte lane: transforms the request in place, the
/// way `apps::env`'s responder fills the caller-bound bytes into the same
/// buffer.
fn pipe_handler(req_len: usize, buf: &mut [u8]) -> usize {
    for b in &mut buf[..req_len] {
        *b ^= PIPE_MASK;
    }
    req_len
}

fn pipe_reply_ok(expected_sum: u64, reply: &[u8]) -> bool {
    reply.len() == PIPE_LEN && word_sum(reply) == expected_sum
}

pub struct RtPipe {
    sdk: SimPort,
    hot: SimPort,
    ring: ByteRing,
    caller: ByteCaller,
    id: u32,
    tickets: Vec<Ticket>,
    /// Expected reply sum and submit time of each in-flight call, keyed
    /// by `seq % PIPE_RING` (in-flight calls occupy distinct ring slots).
    expect: [(u64, u64); PIPE_RING],
}

impl RtPipe {
    fn pipeline<P: Probe>(&mut self, inputs: &PipeInputs, ops: u64, probe: &mut P) -> Res<u64> {
        let n = inputs.payloads.len() as u64;
        let mut failed = 0;
        let mut submitted = 0u64;
        let mut done = 0u64;
        while done < ops {
            while submitted < ops && self.tickets.len() < PIPE_WINDOW {
                let p = &inputs.payloads[(submitted % n) as usize];
                let s = probe.enter(Span::BytesSubmit, submitted);
                let ticket = self.caller.submit(self.id, &p.bytes, PIPE_LEN);
                probe.exit(s);
                let ticket = ticket.map_err(fail("ByteCaller::submit"))?;
                self.expect[ticket.seq() as usize % PIPE_RING] = (p.reply_sum, probe.now_ns());
                self.tickets.push(ticket);
                submitted += 1;
            }
            let expect = &self.expect;
            let s = probe.enter(Span::BytesWaitAny, done);
            let reaped = self.caller.wait_any_with(&mut self.tickets, |seq, reply| {
                let (sum, submitted_at) = expect[seq as usize % PIPE_RING];
                (pipe_reply_ok(sum, reply), submitted_at)
            });
            probe.exit(s);
            let (_, (ok, submitted_at)) = reaped.map_err(fail("wait_any_with"))?;
            if P::ON {
                probe.sample(Span::BytesCall, probe.now_ns() - submitted_at);
            }
            if !ok {
                failed += 1;
            }
            done += 1;
        }
        Ok(failed)
    }
}

impl Workload for RtPipe {
    const NAME: &'static str = "rt_pipe";
    type Inputs = PipeInputs;

    fn generate(seed: u64, scale: Scale) -> PipeInputs {
        let mut rng = Rng::new(seed ^ 0x7274_5f70_6970_6500);
        let payloads = (0..PIPE_MESSAGES)
            .map(|_| {
                let bytes = rng.bytes(PIPE_LEN);
                let mut reply = bytes.clone();
                pipe_handler(PIPE_LEN, &mut reply);
                PipePayload {
                    reply_sum: word_sum(&reply),
                    bytes,
                }
            })
            .collect();
        PipeInputs {
            seed,
            payloads,
            sim_order: message_order(&mut rng, scale.of(50_000), PIPE_MESSAGES),
            trial_ops: scale.of(20_000),
        }
    }

    fn build(inputs: &PipeInputs, notes: &mut SetupNotes) -> Res<Self> {
        let pool = PIPE_MESSAGES as u64 * PIPE_LEN as u64;
        let hot = SimPort::build(inputs.seed, PIPE_EDL, true, pool, Some(notes))?;
        let sdk = SimPort::build(inputs.seed, PIPE_EDL, false, pool, None)?;
        let mut table = ByteCallTable::new();
        let id = table.register(pipe_handler);
        let ring = ByteRing::spawn_pool(table, PIPE_RING, 1, HotCallConfig::patient())
            .map_err(fail("ByteRing::spawn_pool"))?;
        let caller = ring.caller();
        Ok(RtPipe {
            sdk,
            hot,
            ring,
            caller,
            id,
            tickets: Vec::with_capacity(PIPE_WINDOW),
            expect: [(0, 0); PIPE_RING],
        })
    }

    fn sim(&mut self, inputs: &PipeInputs) -> Res<SimReport> {
        Ok(SimReport {
            hot: self.hot.run(PIPE_SHAPE, PIPE_MESSAGES, &inputs.sim_order)?,
            sdk: self.sdk.run(PIPE_SHAPE, PIPE_MESSAGES, &inputs.sim_order)?,
        })
    }

    fn warm_host(&mut self, inputs: &PipeInputs) -> Res<()> {
        match self.pipeline(inputs, inputs.trial_ops, &mut crate::trace::NoProbe)? {
            0 => Ok(()),
            n => Err(format!("{n} warm-up calls failed")),
        }
    }

    fn host_trial<P: Probe>(
        &mut self,
        inputs: &PipeInputs,
        trial: u64,
        probe: &mut P,
    ) -> Res<Trial> {
        let t = probe.enter(Span::Trial, trial);
        let failed = self.pipeline(inputs, inputs.trial_ops, probe);
        probe.exit(t);
        Ok(Trial {
            ops: inputs.trial_ops as f64,
            attempted: inputs.trial_ops,
            failed: failed?,
        })
    }

    fn layers(
        &mut self,
        _inputs: &PipeInputs,
        _sim: &SimReport,
        probe: &SpanProbe,
        out: &mut Metrics,
    ) -> Res<f64> {
        set_edl_probe(out, PIPE_EDL)?;
        set_zero_ledger(out, &mut self.sdk, &mut self.hot, PIPE_SHAPE)?;
        let submit_p50 = probe.quantile_ns(Span::BytesSubmit, 0.5);
        let wait_p50 = probe.quantile_ns(Span::BytesWaitAny, 0.5);
        out.set("hotcalls.rt.bytes.submit_p50_ns", submit_p50);
        out.set("hotcalls.rt.bytes.wait_any_p50_ns", wait_p50);
        out.set(
            "hotcalls.rt.bytes.call_p99_ns",
            probe.quantile_ns(Span::BytesCall, 0.99),
        );
        set_arena_metrics(out, self.caller.arena_stats());
        set_ring_metrics(out, self.ring.stats(), self.ring.governor_stats());
        set_stage_metrics(out, &self.ring.telemetry(Self::NAME));
        // One op is one submit plus one reap.
        Ok(submit_p50 + wait_p50)
    }

    fn verifiers_reject_corruption(&mut self, inputs: &PipeInputs) -> Res<()> {
        let p = &inputs.payloads[0];
        let reply = self
            .caller
            .call_with(self.id, &p.bytes, PIPE_LEN, <[u8]>::to_vec)
            .map_err(fail("call_with"))?;
        if !pipe_reply_ok(p.reply_sum, &reply) {
            return Err("rt_pipe verifier rejects a genuine reply".into());
        }
        let mut flipped = reply.clone();
        flipped[PIPE_LEN / 2] ^= 0x80;
        if pipe_reply_ok(p.reply_sum, &flipped)
            || pipe_reply_ok(p.reply_sum, &reply[..PIPE_LEN - 8])
        {
            return Err("rt_pipe verifier accepts a corrupted reply".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// kv_memtier — the paper's §6.2 application
// ---------------------------------------------------------------------

const KV_VALUE_LEN: usize = 2048;
/// Secure-heap size `crates/bench` gives the same 8192 x 2 KiB server.
const KV_HEAP: u64 = 64 << 20;

#[derive(Debug)]
struct KvOp {
    wire: Bytes,
    key: u32,
    opaque: u32,
    is_get: bool,
    /// Version (0 = prefill, i + 1 = the SET at stream index i) a GET
    /// must return on the first pass over the stream / on later passes.
    expect_first: u32,
    expect_steady: u32,
}

#[derive(Debug)]
pub struct KvInputs {
    seed: u64,
    keys: u32,
    prefill: Vec<Bytes>,
    /// The request stream: the sim half serves it once end to end, each
    /// host trial replays the next `window` requests of it (a whole
    /// number of windows). It spans the keyspace, so replays keep the
    /// working set above the modelled LLC.
    stream: Vec<KvOp>,
    window: usize,
}

fn kv_key(key: u32) -> Vec<u8> {
    format!("memtier-{key:012}").into_bytes()
}

/// Every value is one seed-derived word repeated, so the expected bytes
/// of any (key, version) are known without storing them.
fn kv_word(seed: u64, key: u32, version: u32) -> [u8; 8] {
    mix(seed ^ ((key as u64) << 32) ^ version as u64).to_le_bytes()
}

fn kv_value(seed: u64, key: u32, version: u32) -> Vec<u8> {
    kv_word(seed, key, version).repeat(KV_VALUE_LEN / 8)
}

/// Parses the wire reply and checks status, echoed opaque and — for a
/// GET — every byte of the value.
fn kv_reply_ok<P: Probe>(
    seed: u64,
    op: &KvOp,
    version: u32,
    reply: apps::Result<Bytes>,
    probe: &mut P,
) -> bool {
    let Ok(wire) = reply else {
        return false;
    };
    let s = probe.enter(Span::MemcachedParse, op.opaque as u64);
    let parsed = protocol::parse_response(wire);
    probe.exit(s);
    let Ok(resp) = parsed else {
        return false;
    };
    if resp.status != Status::Ok || resp.opaque != op.opaque {
        return false;
    }
    if op.is_get {
        let word = kv_word(seed, op.key, version);
        resp.opcode == Opcode::Get
            && resp.value.len() == KV_VALUE_LEN
            && resp.value.chunks_exact(8).all(|c| c == word)
    } else {
        resp.opcode == Opcode::Set && resp.value.is_empty()
    }
}

struct KvSide {
    env: AppEnv,
    server: Memcached,
}

impl KvSide {
    fn build(inputs: &KvInputs, mode: IfaceMode, notes: Option<&mut SetupNotes>) -> Res<KvSide> {
        let t = Instant::now();
        let mut env = AppEnv::new(
            sim_config(inputs.seed),
            mode,
            &memcached::api_table(),
            KV_HEAP,
        )
        .map_err(fail("AppEnv::new"))?;
        if let Some(n) = notes {
            // The machine starts at cycle 0 and `AppEnv::new` charges
            // only the enclave build.
            n.enclave_build_cycles = env.machine.now().get();
            n.enclave_build_host_ns = t.elapsed().as_nanos() as u64;
        }
        let mut server = Memcached::new(&mut env, inputs.keys as usize, KV_VALUE_LEN as u64)
            .map_err(fail("Memcached::new"))?;
        for (key, wire) in inputs.prefill.iter().enumerate() {
            let reply = server
                .serve(&mut env, wire.clone())
                .map_err(fail("prefill"))?;
            let resp = protocol::parse_response(reply).map_err(fail("prefill reply"))?;
            if resp.status != Status::Ok || resp.opaque != key as u32 {
                return Err(format!("prefill of key {key} was not acknowledged"));
            }
        }
        Ok(KvSide { env, server })
    }

    fn serve<P: Probe>(&mut self, seed: u64, op: &KvOp, first_pass: bool, probe: &mut P) -> bool {
        let o = probe.enter(Span::Op, op.opaque as u64);
        let s = probe.enter(Span::MemcachedServe, op.opaque as u64);
        let reply = self.server.serve(&mut self.env, op.wire.clone());
        probe.exit(s);
        let version = if first_pass {
            op.expect_first
        } else {
            op.expect_steady
        };
        let ok = kv_reply_ok(seed, op, version, reply, probe);
        probe.exit(o);
        ok
    }

    /// The sim half of one port: the whole stream once, first pass.
    fn sim_pass(&mut self, inputs: &KvInputs) -> SimSide {
        let before = mark(&self.env.machine);
        let calls_before = self.env.total_calls();
        let iface_before = self.env.interface_cycles().get();
        let n = inputs.stream.len();
        let mut side = SimSide {
            ops: n as f64,
            attempted: n as u64,
            call_cycles: Vec::with_capacity(n),
            ..SimSide::default()
        };
        for op in &inputs.stream {
            let calls = self.env.total_calls();
            let iface = self.env.interface_cycles().get();
            if !self.serve(inputs.seed, op, true, &mut crate::trace::NoProbe) {
                side.failed += 1;
            }
            let calls = self.env.total_calls() - calls;
            let iface = self.env.interface_cycles().get() - iface;
            side.call_cycles.push(iface / calls.max(1));
        }
        close_side(&mut side, &before, &self.env.machine);
        side.edge_calls = self.env.total_calls() - calls_before;
        side.iface_cycles = self.env.interface_cycles().get() - iface_before;
        side
    }
}

pub struct KvMemtier {
    hot: KvSide,
    sdk: KvSide,
    /// Stream position the next host trial starts at. Trials replay the
    /// stream in its own order, wrapping, because the expected value of a
    /// GET depends on every SET before it.
    cursor: usize,
}

impl Workload for KvMemtier {
    const NAME: &'static str = "kv_memtier";
    type Inputs = KvInputs;

    fn generate(seed: u64, scale: Scale) -> KvInputs {
        let keys = scale.of(8192) as u32;
        let window = scale.of(400) as usize;
        let n = 50 * window;
        let mut rng = Rng::new(seed ^ 0x6b76_5f6d_656d_7400);
        let prefill = (0..keys)
            .map(|k| protocol::encode_set(&kv_key(k), &kv_value(seed, k, 0), k))
            .collect();
        // SET:GET 1:1, keys uniform over the keyspace.
        let picks: Vec<(u32, bool)> = (0..n)
            .map(|i| (rng.below(keys as u64) as u32, i % 2 == 1))
            .collect();
        // Version each key holds once the whole stream has been served.
        let mut final_version = vec![0u32; keys as usize];
        for (i, &(key, is_get)) in picks.iter().enumerate() {
            if !is_get {
                final_version[key as usize] = i as u32 + 1;
            }
        }
        let mut current = vec![0u32; keys as usize];
        let mut set_this_pass = vec![false; keys as usize];
        let stream = picks
            .iter()
            .enumerate()
            .map(|(i, &(key, is_get))| {
                let k = key as usize;
                let opaque = i as u32;
                if is_get {
                    KvOp {
                        wire: protocol::encode_get(&kv_key(key), opaque),
                        key,
                        opaque,
                        is_get,
                        expect_first: current[k],
                        expect_steady: if set_this_pass[k] {
                            current[k]
                        } else {
                            final_version[k]
                        },
                    }
                } else {
                    let version = i as u32 + 1;
                    current[k] = version;
                    set_this_pass[k] = true;
                    KvOp {
                        wire: protocol::encode_set(
                            &kv_key(key),
                            &kv_value(seed, key, version),
                            opaque,
                        ),
                        key,
                        opaque,
                        is_get,
                        expect_first: version,
                        expect_steady: version,
                    }
                }
            })
            .collect();
        KvInputs {
            seed,
            keys,
            prefill,
            stream,
            window,
        }
    }

    fn build(inputs: &KvInputs, notes: &mut SetupNotes) -> Res<Self> {
        Ok(KvMemtier {
            hot: KvSide::build(inputs, IfaceMode::HotCallsNrz, Some(notes))?,
            sdk: KvSide::build(inputs, IfaceMode::Sdk, None)?,
            cursor: 0,
        })
    }

    /// The prefill already served one SET per key through the whole
    /// request path, so both ports enter the measured pass warm.
    fn sim(&mut self, inputs: &KvInputs) -> Res<SimReport> {
        Ok(SimReport {
            hot: self.hot.sim_pass(inputs),
            sdk: self.sdk.sim_pass(inputs),
        })
    }

    /// The sim pass over the full stream is the host warm-up too; after
    /// it every replayed window sees steady-state values.
    fn warm_host(&mut self, _inputs: &KvInputs) -> Res<()> {
        Ok(())
    }

    fn host_trial<P: Probe>(&mut self, inputs: &KvInputs, trial: u64, probe: &mut P) -> Res<Trial> {
        let start = self.cursor;
        let ops = &inputs.stream[start..start + inputs.window];
        self.cursor = (start + inputs.window) % inputs.stream.len();
        let t = probe.enter(Span::Trial, trial);
        let mut failed = 0;
        for op in ops {
            if !self.hot.serve(inputs.seed, op, false, probe) {
                failed += 1;
            }
        }
        probe.exit(t);
        Ok(Trial {
            ops: ops.len() as f64,
            attempted: ops.len() as u64,
            failed,
        })
    }

    fn layers(
        &mut self,
        inputs: &KvInputs,
        sim: &SimReport,
        probe: &SpanProbe,
        out: &mut Metrics,
    ) -> Res<f64> {
        set_edl_probe(out, &generate_edl(&memcached::api_table()))?;
        out.set(
            "apps.memcached.serve_p50_ns",
            probe.quantile_ns(Span::MemcachedServe, 0.5),
        );
        out.set(
            "apps.memcached.serve_p99_ns",
            probe.quantile_ns(Span::MemcachedServe, 0.99),
        );
        let env = &mut self.hot.env;
        if let (Some(stats), Some(gov)) = (env.rt_stats(), env.governor_stats()) {
            set_ring_metrics(out, stats, gov);
        }
        if let Some(arena) = env.arena_stats() {
            set_arena_metrics(out, arena);
        }
        if let Some(t) = env.rt_telemetry(Self::NAME) {
            set_stage_metrics(out, &t);
        }

        // Isolated probe: one `read` of a value-sized buffer through
        // `AppEnv::api_call` — marshalling model, sim HotCall and the live
        // byte lane, without memcached around it.
        let rx = env
            .alloc_data(KV_VALUE_LEN as u64)
            .map_err(fail("probe buffer"))?;
        let probe_calls = 2_000u64.min(inputs.stream.len() as u64).max(100);
        let bufs = [BufArg::new(rx, KV_VALUE_LEN as u64)];
        for _ in 0..100 {
            env.api_call("read", &bufs).map_err(fail("api_call"))?;
        }
        let before = mark(&env.machine);
        let t = Instant::now();
        for _ in 0..probe_calls {
            env.api_call("read", &bufs).map_err(fail("api_call"))?;
        }
        let api_ns = t.elapsed().as_nanos() as f64 / probe_calls as f64;
        let api_lookups = l1_lookups_since(&before, &env.machine) as f64 / probe_calls as f64;
        out.set("apps.env.api_call_host_ns", api_ns);

        // Isolated probe: the memory model alone — value-sized reads and
        // writes scattered over 16 MiB of enclave heap.
        let (access_ns, lookups_per_access) = machine_access_probe(inputs.seed)?;
        out.set("sgx-sim.machine.host_ns_per_access", access_ns);

        // Explained host time per request: its edge calls at the isolated
        // api_call cost, plus the cache-line lookups memcached itself
        // makes (all lookups minus those inside the edge calls) at the
        // isolated per-lookup cost.
        let edge_calls = ratio(sim.hot.edge_calls as f64, sim.hot.ops);
        let lookups = ratio(sim.hot.l1_lookups as f64, sim.hot.ops);
        let own_lookups = (lookups - edge_calls * api_lookups).max(0.0);
        Ok(edge_calls * api_ns + own_lookups * ratio(access_ns, lookups_per_access))
    }

    fn verifiers_reject_corruption(&mut self, inputs: &KvInputs) -> Res<()> {
        // On a freshly built server, serve the stream in order up to its
        // first GET, whose reply is then a first-pass reply.
        let none = &mut crate::trace::NoProbe;
        let mut first_get = None;
        for op in &inputs.stream {
            let reply = self
                .hot
                .server
                .serve(&mut self.hot.env, op.wire.clone())
                .map_err(fail("serve"))?;
            if op.is_get {
                first_get = Some((op, reply));
                break;
            }
        }
        let (op, reply) = first_get.ok_or("stream has no GET")?;
        let version = op.expect_first;
        if !kv_reply_ok(inputs.seed, op, version, Ok(reply.clone()), none) {
            return Err("kv_memtier verifier rejects a genuine reply".into());
        }
        let mut bytes = reply.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let mut wrong_opaque = reply.to_vec();
        wrong_opaque[12] ^= 0x40;
        for (what, corrupted) in [("value byte", bytes), ("opaque", wrong_opaque)] {
            if kv_reply_ok(inputs.seed, op, version, Ok(Bytes::from(corrupted)), none) {
                return Err(format!(
                    "kv_memtier verifier accepts a reply with a corrupted {what}"
                ));
            }
        }
        if kv_reply_ok(inputs.seed, op, version.wrapping_add(1), Ok(reply), none) {
            return Err("kv_memtier verifier accepts a stale value".into());
        }
        Ok(())
    }
}

/// Host ns per 2 KiB `Machine::read`/`write` at scattered offsets of a
/// 16 MiB enclave region, and the L1 lookups one such access makes.
fn machine_access_probe(seed: u64) -> Res<(f64, f64)> {
    const REGION: u64 = 16 << 20;
    const ACCESSES: u64 = 20_000;
    let mut m = Machine::new(sim_config(seed));
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: REGION + (1 << 20),
            ..EnclaveBuildOptions::default()
        })
        .map_err(fail("probe enclave"))?;
    let base = m
        .alloc_enclave_heap(eid, REGION, 4096)
        .map_err(fail("probe region"))?;
    let mut rng = Rng::new(seed);
    let slabs = REGION / KV_VALUE_LEN as u64;
    let offsets: Vec<u64> = (0..ACCESSES)
        .map(|_| rng.below(slabs) * KV_VALUE_LEN as u64)
        .collect();
    let touch = |m: &mut Machine, i: usize, off: u64| {
        let addr = base.offset(off);
        if i.is_multiple_of(2) {
            m.read(addr, KV_VALUE_LEN as u64)
        } else {
            m.write(addr, KV_VALUE_LEN as u64)
        }
    };
    for (i, &off) in offsets.iter().enumerate().take(2_000) {
        touch(&mut m, i, off).map_err(fail("probe warm-up"))?;
    }
    let before = mark(&m);
    let t = Instant::now();
    for (i, &off) in offsets.iter().enumerate() {
        touch(&mut m, i, off).map_err(fail("probe access"))?;
    }
    let ns = t.elapsed().as_nanos() as f64 / ACCESSES as f64;
    Ok((ns, l1_lookups_since(&before, &m) as f64 / ACCESSES as f64))
}

// ---------------------------------------------------------------------
// store_stream — bandwidth
// ---------------------------------------------------------------------

/// The sim half's object and the physical EPC of its machine: half the
/// object, so the enclave-side source pages for real.
const STREAM_OBJECT: u64 = 16 << 20;
const STREAM_EPC: u64 = STREAM_OBJECT / 2;
const STREAM_SIM_CHUNK: u64 = 256 << 10;
/// Arena segment granularity (`hotcalls::rt::DEFAULT_SEGMENT_BYTES`).
const STREAM_SEGMENT: u64 = 16 << 10;
const STREAM_EDL: &str = "enclave { untrusted {
    void o_sink([in, out, size=n] uint8_t* b, size_t n);
    void o_sink_sg([user_check] void* p);
}; };";
const STREAM_SDK_SHAPE: CallShape = CallShape {
    name: "o_sink",
    len: STREAM_SIM_CHUNK,
    writes_back: false,
};
const STORE_WINDOW: usize = 4;
const STORE_CHUNK: usize = 128 << 10;
const STORE_RING: usize = 64;

#[derive(Debug)]
pub struct StoreObject {
    name: String,
    data: Vec<u8>,
    /// Block tags of the reference whole-object sealer, computed while
    /// generating (expected output, not part of the timed work).
    reference_tags: Vec<[u8; apps::storage::TAG_LEN]>,
}

#[derive(Debug)]
pub struct StoreInputs {
    seed: u64,
    secret: [u8; 32],
    objects: Vec<StoreObject>,
    /// Size of the sim half's object — `STREAM_OBJECT` plus a seed-drawn
    /// 0..=15 pages, so the last chunk's length is part of the input —
    /// and the EPC of its machine.
    sim_bytes: u64,
    sim_epc: u64,
}

fn chunk_segments(base: Addr, chunk: u64) -> Vec<BufArg> {
    let mut segs = Vec::with_capacity(chunk.div_ceil(STREAM_SEGMENT) as usize);
    let mut at = 0;
    while at < chunk {
        let seg = STREAM_SEGMENT.min(chunk - at);
        segs.push(BufArg::new(base.offset(at), seg));
        at += seg;
    }
    segs
}

fn stream_machine(
    inputs: &StoreInputs,
    heap_bytes: u64,
    notes: Option<&mut SetupNotes>,
) -> Res<(Machine, EnclaveId)> {
    let mut m = Machine::new(
        SimConfig::builder()
            .seed(inputs.seed)
            .epc_bytes(inputs.sim_epc)
            .build(),
    );
    let before = m.now().get();
    let t = Instant::now();
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes,
            ..EnclaveBuildOptions::default()
        })
        .map_err(fail("build_enclave"))?;
    if let Some(n) = notes {
        n.enclave_build_cycles = m.now().get() - before;
        n.enclave_build_host_ns = t.elapsed().as_nanos() as u64;
    }
    Ok((m, eid))
}

/// The SDK port of the streaming transfer (the composition
/// `ablation_storage`'s ladder measures): a single-pointer ocall cannot
/// take a segment list, so the object is first coalesced into one
/// contiguous enclave buffer — a second object-sized footprint — and each
/// chunk then crosses as an `[in,out]` buffer: whole-frame memset, copy
/// out, EEXIT/EENTER, whole-chunk copy back.
struct StreamSdk {
    m: Machine,
    ctx: EnclaveCtx,
    obj: Addr,
    coalesced: Addr,
    bytes: u64,
}

impl StreamSdk {
    fn build(inputs: &StoreInputs) -> Res<Self> {
        let bytes = inputs.sim_bytes;
        let (mut m, eid) = stream_machine(inputs, 2 * bytes + (4 << 20), None)?;
        let edl = parse_edl(STREAM_EDL).map_err(fail("parse_edl"))?;
        let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default())
            .map_err(fail("EnclaveCtx"))?;
        let obj = m
            .alloc_enclave_heap(eid, bytes, 4096)
            .map_err(fail("obj"))?;
        let coalesced = m
            .alloc_enclave_heap(eid, bytes, 4096)
            .map_err(fail("coalesced"))?;
        ctx.enter_main(&mut m).map_err(fail("enter_main"))?;
        Ok(StreamSdk {
            m,
            ctx,
            obj,
            coalesced,
            bytes,
        })
    }

    fn pass(&mut self, side: &mut SimSide) {
        let mut at = 0;
        while at < self.bytes {
            let seg = STREAM_SEGMENT.min(self.bytes - at);
            if sdk_memcpy(
                &mut self.m,
                self.coalesced.offset(at),
                self.obj.offset(at),
                seg,
            )
            .is_err()
            {
                side.failed += 1;
            }
            at += seg;
        }
        let mut off = 0;
        while off < self.bytes {
            let chunk = STREAM_SIM_CHUNK.min(self.bytes - off);
            let t0 = self.m.now().get();
            let sent = self.ctx.ocall(
                &mut self.m,
                "o_sink",
                &[BufArg::new(self.coalesced.offset(off), chunk)],
                |_, _, _| Ok(()),
            );
            side.call_cycles.push(self.m.now().get() - t0);
            side.attempted += 1;
            side.edge_calls += 1;
            if sent.is_err() {
                side.failed += 1;
            }
            off += chunk;
        }
    }
}

/// The scatter-gather NRZ port: each chunk's segments are staged
/// individually with per-segment direction — data rides `In`, a 64-byte
/// ack tag rides `Out` — and handed off with one switchless HotCall.
struct StreamHot {
    m: Machine,
    ctx: EnclaveCtx,
    hot: SimHotCalls,
    obj: Addr,
    tag: Addr,
    staging: Addr,
    staging_cap: u64,
    bytes: u64,
}

impl StreamHot {
    fn build(inputs: &StoreInputs, notes: &mut SetupNotes) -> Res<Self> {
        let bytes = inputs.sim_bytes;
        let (mut m, eid) = stream_machine(inputs, bytes + (4 << 20), Some(notes))?;
        let edl = parse_edl(STREAM_EDL).map_err(fail("parse_edl"))?;
        let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::nrz())
            .map_err(fail("EnclaveCtx"))?;
        let hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default())
            .map_err(fail("SimHotCalls"))?;
        let obj = m
            .alloc_enclave_heap(eid, bytes, 4096)
            .map_err(fail("obj"))?;
        let tag = m.alloc_enclave_heap(eid, 64, 64).map_err(fail("tag"))?;
        let staging_cap = STREAM_SIM_CHUNK + (64 << 10);
        let staging = m.alloc_untrusted(staging_cap, 4096);
        ctx.enter_main(&mut m).map_err(fail("enter_main"))?;
        Ok(StreamHot {
            m,
            ctx,
            hot,
            obj,
            tag,
            staging,
            staging_cap,
            bytes,
        })
    }

    /// Streams one chunk; returns the HotCall's cycles and the bytes of
    /// zeroing its staging elided.
    fn chunk(&mut self, off: u64, chunk: u64) -> Res<(u64, u64)> {
        let m = &mut self.m;
        let segs = chunk_segments(self.obj.offset(off), chunk);
        let mut area = StagingArea::untrusted(m, self.staging, self.staging_cap);
        let nrz = MarshalOptions::nrz();
        let staged = stage_sg(m, &segs, Direction::In, &mut area, CallerSide::Trusted, nrz)
            .map_err(fail("stage_sg in"))?;
        let tag = [BufArg::new(self.tag, 64)];
        let tag_staged = stage_sg(m, &tag, Direction::Out, &mut area, CallerSide::Trusted, nrz)
            .map_err(fail("stage_sg out"))?;
        let t0 = m.now().get();
        self.hot
            .hot_ocall(
                m,
                &mut self.ctx,
                "o_sink_sg",
                &[BufArg::new(self.staging, 0)],
                |_, _, _| Ok(()),
            )
            .map_err(fail("hot_ocall"))?;
        let call_cycles = m.now().get() - t0;
        unstage(m, &tag_staged).map_err(fail("unstage tag"))?;
        unstage(m, &staged).map_err(fail("unstage"))?;
        Ok((call_cycles, area.ledger().elided_bytes()))
    }

    fn pass(&mut self, side: &mut SimSide) {
        let before = self.hot.stats();
        let mut off = 0;
        while off < self.bytes {
            let chunk = STREAM_SIM_CHUNK.min(self.bytes - off);
            side.attempted += 1;
            side.edge_calls += 1;
            match self.chunk(off, chunk) {
                Ok((cycles, elided)) => {
                    side.call_cycles.push(cycles);
                    side.elided_bytes += elided;
                }
                Err(_) => side.failed += 1,
            }
            off += chunk;
        }
        let now = self.hot.stats();
        side.hot_calls += now.calls - before.calls;
        side.hot_fallbacks += now.fallbacks - before.fallbacks;
    }
}

/// Measured passes over the sim object.
const STREAM_SIM_PASSES: u64 = 2;

/// One untimed pass (commits and cold lines bias the first), then
/// `STREAM_SIM_PASSES` measured ones, on either streaming port.
fn measure_passes<T>(
    port: &mut T,
    ops: f64,
    machine: fn(&T) -> &Machine,
    pass: fn(&mut T, &mut SimSide),
) -> Res<SimSide> {
    let mut warm = SimSide::default();
    pass(port, &mut warm);
    if warm.failed > 0 {
        return Err("store_stream sim warm-up pass failed".into());
    }
    let before = mark(machine(port));
    let mut side = SimSide {
        ops,
        ..SimSide::default()
    };
    for _ in 0..STREAM_SIM_PASSES {
        pass(port, &mut side);
    }
    close_side(&mut side, &before, machine(port));
    side.iface_cycles = side.cycles;
    Ok(side)
}

pub struct StoreStream {
    sdk: StreamSdk,
    hot: StreamHot,
    store: SecureStore,
    /// (dedup hits, blocks) of the first ingest — later trials re-ingest
    /// known content and hit on every block.
    first_ingest: (u64, u64),
    /// Submitted minus redeemed tickets over every put so far.
    ticket_leak: u64,
    /// Host ns inside put / get and MiB moved, traced trials only.
    put_ns: u64,
    get_ns: u64,
    traced_mib: f64,
}

/// A put is verified against the reference sealer's tags and the
/// stream's own conservation counts.
fn put_ok(store: &SecureStore, obj: &StoreObject, receipt: &apps::storage::PutReceipt) -> bool {
    receipt.report.submitted == receipt.report.redeemed
        && receipt.report.bytes_in == obj.data.len() as u64
        && receipt.report.bytes_out == obj.data.len() as u64
        && store
            .object(&obj.name)
            .is_some_and(|stored| stored.block_tags() == obj.reference_tags.as_slice())
}

fn get_ok(obj: &StoreObject, plain: &[u8]) -> bool {
    plain == obj.data.as_slice()
}

impl StoreStream {
    fn round<P: Probe>(&mut self, inputs: &StoreInputs, probe: &mut P) -> Trial {
        let mut trial = Trial::default();
        for (i, obj) in inputs.objects.iter().enumerate() {
            let o = probe.enter(Span::Op, i as u64);
            let mib = obj.data.len() as f64 / MIB;

            let t0 = probe.now_ns();
            let s = probe.enter(Span::StoragePut, i as u64);
            let receipt = self
                .store
                .put(&obj.name, &obj.data, STORE_WINDOW, || STORE_CHUNK);
            probe.exit(s);
            let t1 = probe.now_ns();
            trial.attempted += 1;
            match receipt {
                Ok(r) => {
                    self.ticket_leak += r.report.submitted - r.report.redeemed;
                    if !put_ok(&self.store, obj, &r) {
                        trial.failed += 1;
                    }
                }
                Err(_) => trial.failed += 1,
            }

            let t2 = probe.now_ns();
            let s = probe.enter(Span::StorageGet, i as u64);
            let plain = self.store.get(&obj.name, STORE_WINDOW, || STORE_CHUNK);
            probe.exit(s);
            let t3 = probe.now_ns();
            trial.attempted += 1;
            if !plain.is_ok_and(|p| get_ok(obj, &p)) {
                trial.failed += 1;
            }

            if P::ON {
                self.put_ns += t1 - t0;
                self.get_ns += t3 - t2;
                self.traced_mib += mib;
            }
            trial.ops += mib;
            probe.exit(o);
        }
        trial
    }
}

impl Workload for StoreStream {
    const NAME: &'static str = "store_stream";
    type Inputs = StoreInputs;

    fn generate(seed: u64, scale: Scale) -> StoreInputs {
        let mut rng = Rng::new(seed ^ 0x7374_6f72_6500_0000);
        let mut secret = [0u8; 32];
        rng.fill(&mut secret);
        let (lo, hi) = (scale.of(64 << 10).max(4096), scale.of(1 << 20).max(8192));
        // A quarter of each object's 4 KiB blocks come from a small
        // shared pool, so the dedup index sees repeated content.
        let pool: Vec<Vec<u8>> = (0..8).map(|_| rng.bytes(4096)).collect();
        // Sizes come in pairs that add up to `lo + hi`, so every seed moves
        // the same number of bytes however it mixes the sizes.
        let mut sizes = Vec::with_capacity(12);
        for _ in 0..6 {
            let a = lo + rng.below(hi - lo + 1);
            sizes.extend([a, lo + hi - a]);
        }
        let objects = sizes
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                let mut data = rng.bytes(len as usize);
                for block in data.chunks_exact_mut(4096) {
                    if rng.below(4) == 0 {
                        block.copy_from_slice(&pool[rng.below(8) as usize]);
                    }
                }
                let (_, reference_tags) = SecureStore::seal_reference(&secret, &data);
                StoreObject {
                    name: format!("obj-{i:02}"),
                    data,
                    reference_tags,
                }
            })
            .collect();
        StoreInputs {
            seed,
            secret,
            objects,
            sim_bytes: scale.of(STREAM_OBJECT).max(2 * STREAM_SIM_CHUNK) + 4096 * rng.below(16),
            sim_epc: scale.of(STREAM_EPC).max(STREAM_SIM_CHUNK) & !4095,
        }
    }

    fn build(inputs: &StoreInputs, notes: &mut SetupNotes) -> Res<Self> {
        let hot = StreamHot::build(inputs, notes)?;
        let sdk = StreamSdk::build(inputs)?;
        let store = SecureStore::new(&inputs.secret, STORE_RING, 1, HotCallConfig::patient())
            .map_err(fail("SecureStore::new"))?;
        Ok(StoreStream {
            sdk,
            hot,
            store,
            first_ingest: (0, 0),
            ticket_leak: 0,
            put_ns: 0,
            get_ns: 0,
            traced_mib: 0.0,
        })
    }

    fn sim(&mut self, inputs: &StoreInputs) -> Res<SimReport> {
        let ops = STREAM_SIM_PASSES as f64 * inputs.sim_bytes as f64 / MIB;
        Ok(SimReport {
            hot: measure_passes(&mut self.hot, ops, |p| &p.m, StreamHot::pass)?,
            sdk: measure_passes(&mut self.sdk, ops, |p| &p.m, StreamSdk::pass)?,
        })
    }

    fn warm_host(&mut self, inputs: &StoreInputs) -> Res<()> {
        let trial = self.round(inputs, &mut crate::trace::NoProbe);
        let stats = self.store.stats();
        self.first_ingest = (stats.dedup_hits, stats.blocks);
        match trial.failed {
            0 => Ok(()),
            n => Err(format!("{n} warm-up transfers failed")),
        }
    }

    fn host_trial<P: Probe>(
        &mut self,
        inputs: &StoreInputs,
        trial: u64,
        probe: &mut P,
    ) -> Res<Trial> {
        let t = probe.enter(Span::Trial, trial);
        let done = self.round(inputs, probe);
        probe.exit(t);
        Ok(done)
    }

    fn layers(
        &mut self,
        inputs: &StoreInputs,
        sim: &SimReport,
        _probe: &SpanProbe,
        out: &mut Metrics,
    ) -> Res<f64> {
        set_edl_probe(out, STREAM_EDL)?;
        // What the SDK port's whole-frame memset zeroes per chunk (probed:
        // `ocall` keeps its area private), and what the hot port's own
        // staging areas recorded as elided over the measured passes.
        let (zeroed_per_chunk, _) = zero_ledger_probe(
            &mut self.sdk.m,
            &self.sdk.ctx,
            self.sdk.coalesced,
            STREAM_SDK_SHAPE,
        )?;
        let chunks_per_mib = MIB / STREAM_SIM_CHUNK as f64;
        out.set(
            "sgx-sdk.marshal.zeroed_bytes_per_op",
            zeroed_per_chunk * chunks_per_mib,
        );
        out.set(
            "sgx-sdk.marshal.elided_bytes_per_op",
            ratio(sim.hot.elided_bytes as f64, sim.hot.ops),
        );

        let stats = self.store.stats();
        let mib_moved = (stats.bytes_in + stats.bytes_out) as f64 / MIB;
        // One op is 1 MiB put and got back, so 2 MiB cross the plane.
        out.set(
            "hotcalls.rt.stream.chunks_per_op",
            ratio(2.0 * stats.chunks as f64, mib_moved),
        );
        out.set(
            "hotcalls.rt.stream.resizes_per_op",
            ratio(2.0 * stats.chunk_resizes as f64, mib_moved),
        );
        out.set(
            "apps.storage.dedup_hit_share",
            ratio(self.first_ingest.0 as f64, self.first_ingest.1 as f64),
        );
        let put = ratio(self.put_ns as f64, self.traced_mib);
        let get = ratio(self.get_ns as f64, self.traced_mib);
        out.set("apps.storage.put_ns_per_mib", put);
        out.set("apps.storage.get_ns_per_mib", get);
        set_arena_metrics(out, self.store.arena_stats());
        set_ring_metrics(out, self.store.ring_stats(), GovernorStats::default());
        set_stage_metrics(out, &(self.store.telemetry_provider())());

        // Isolated probe: the crypto alone (ChaCha20 + block MACs in one
        // whole-object pass on this thread, no plane).
        let total_mib: f64 = inputs
            .objects
            .iter()
            .map(|o| o.data.len() as f64 / MIB)
            .sum();
        let t = Instant::now();
        for obj in &inputs.objects {
            std::hint::black_box(SecureStore::seal_reference(&inputs.secret, &obj.data));
        }
        let seal = t.elapsed().as_nanos() as f64 / total_mib;
        out.set("apps.storage.seal_reference_ns_per_mib", seal);

        // Isolated probe: the streaming plane alone — the same objects
        // through `StreamCaller::stream` on an `SgRing` whose handler
        // does nothing.
        let (plane, probe_leak) = stream_plane_probe(inputs)?;
        out.set("hotcalls.rt.stream.plane_ns_per_mib", plane);
        out.set(
            "hotcalls.rt.stream.ticket_leak",
            (self.ticket_leak + probe_leak) as f64,
        );

        // Put seals and get unseals every byte once, and each moves it
        // through the plane once.
        Ok(2.0 * seal + 2.0 * plane)
    }

    fn verifiers_reject_corruption(&mut self, inputs: &StoreInputs) -> Res<()> {
        let obj = &inputs.objects[0];
        let receipt = self
            .store
            .put(&obj.name, &obj.data, STORE_WINDOW, || STORE_CHUNK)
            .map_err(fail("put"))?;
        let plain = self
            .store
            .get(&obj.name, STORE_WINDOW, || STORE_CHUNK)
            .map_err(fail("get"))?;
        if !put_ok(&self.store, obj, &receipt) || !get_ok(obj, &plain) {
            return Err("store_stream verifiers reject a genuine transfer".into());
        }
        let mut object = plain.clone();
        object[obj.data.len() / 2] ^= 1;
        if get_ok(obj, &object) || get_ok(obj, &plain[..plain.len() - 1]) {
            return Err("store_stream verifier accepts a corrupted object".into());
        }
        let mut wrong_tag = StoreObject {
            name: obj.name.clone(),
            data: obj.data.clone(),
            reference_tags: obj.reference_tags.clone(),
        };
        wrong_tag.reference_tags[0][0] ^= 1;
        if put_ok(&self.store, &wrong_tag, &receipt) {
            return Err("store_stream verifier accepts a corrupted tag".into());
        }
        let mut lost_ticket = receipt;
        lost_ticket.report.redeemed -= 1;
        if put_ok(&self.store, obj, &lost_ticket) {
            return Err("store_stream verifier accepts a leaked ticket".into());
        }
        Ok(())
    }
}

/// Host ns per MiB of `StreamCaller::stream` with a no-op handler and a
/// no-op sink (window and chunk as the store uses), and the tickets it
/// left unredeemed.
fn stream_plane_probe(inputs: &StoreInputs) -> Res<(f64, u64)> {
    let mut table = SgCallTable::new();
    let id = table.register(|sg: &mut SgList| sg.len());
    let ring = SgRing::spawn_pool(table, STORE_RING, 1, HotCallConfig::patient())
        .map_err(fail("SgRing::spawn_pool"))?;
    let mut caller = ring.caller();
    let mut leak = 0;
    let mut run = |timed: bool| -> Res<f64> {
        let mut ns = 0u128;
        let mut mib = 0.0;
        for obj in &inputs.objects {
            let t = Instant::now();
            let report = caller
                .stream(
                    id,
                    &obj.data,
                    STORE_WINDOW,
                    || STORE_CHUNK,
                    |_, sg| {
                        std::hint::black_box(sg.len());
                    },
                )
                .map_err(fail("StreamCaller::stream"))?;
            ns += t.elapsed().as_nanos();
            mib += obj.data.len() as f64 / MIB;
            if timed {
                leak += report.submitted - report.redeemed;
            }
        }
        Ok(ns as f64 / mib)
    };
    run(false)?;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        best = best.min(run(true)?);
    }
    drop(caller);
    ring.shutdown();
    Ok((best, leak))
}
