//! Simulated HotCalls: the paper's architecture (Fig. 9) in the cycle
//! model.
//!
//! A *requester* and a *responder* communicate through a spin-lock-guarded
//! mailbox in **un-encrypted shared memory**: a lock word, a
//! responder-busy/go flag, a `call_ID`, and a `*data` pointer to the
//! marshalled parameters. The responder is a dedicated logical core that
//! polls the mailbox in a `PAUSE` loop. No `EENTER`/`EEXIT` happens on the
//! hot path — that is the entire trick, and why a HotCall costs ~620 cycles
//! where an SDK call costs 8,200+.
//!
//! Marshalling reuses [`sgx_sdk::marshal`] — literally the SDK's staging
//! code, as the paper's implementation does (§4.2, §5).

use sgx_sdk::marshal::{stage, unstage, CallerSide, StagingArea};
use sgx_sdk::sync::{sim_spin_acquire, sim_spin_release};
use sgx_sdk::{BufArg, CallArgs, EnclaveCtx};
use sgx_sim::{Addr, CycleLedger, Cycles, Machine, Placement, Topology};

use crate::config::{HotCallConfig, HotCallStats};
use crate::error::Result;
use crate::telemetry::trace;

/// Bytes of shared (un-encrypted) memory reserved for marshalled data.
const SHARED_BYTES: u64 = 1 << 20;

/// Bytes of secure scratch the in-enclave responder stages hot-ecall
/// buffers into.
const SECURE_BYTES: u64 = 1 << 19;

/// Cost of signalling the sleeping responder's condition variable before a
/// request (a futex wake issued from the requester's side).
const WAKE_COST: u64 = 1_500;

/// Core cost of the responder noticing + dispatching a request once the
/// mailbox is read (call-table index check and jump).
const DISPATCH_COST: u64 = 70;

/// Which side of the boundary requests the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// HotEcall: untrusted requester, in-enclave responder thread.
    Ecall,
    /// HotOcall: trusted requester, untrusted responder thread.
    Ocall,
}

/// A simulated HotCalls channel bound to an [`EnclaveCtx`].
///
/// # Examples
///
/// ```
/// use sgx_sim::{Machine, SimConfig, EnclaveBuildOptions};
/// use sgx_sdk::edl::parse_edl;
/// use sgx_sdk::{EnclaveCtx, MarshalOptions};
/// use hotcalls::sim::SimHotCalls;
/// use hotcalls::HotCallConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = Machine::new(SimConfig::default());
/// let eid = m.build_enclave(EnclaveBuildOptions::default())?;
/// let edl = parse_edl("enclave { untrusted { void ocall_tick(); }; };")?;
/// let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default())?;
/// let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default())?;
///
/// ctx.enter_main(&mut m)?;
/// hot.hot_ocall(&mut m, &mut ctx, "ocall_tick", &[], |_, _, _| Ok(()))?;
/// assert_eq!(hot.stats().calls, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimHotCalls {
    /// The spin lock guarding the mailbox (shared, un-encrypted).
    lock_line: Addr,
    /// Mailbox line: responder-busy flag, go flag, call_ID, *data.
    mailbox_line: Addr,
    /// Shared data area for marshalled parameters.
    shared_area: Addr,
    /// Secure scratch the hot-ecall responder stages into.
    secure_area: Addr,
    config: HotCallConfig,
    stats: HotCallStats,
    /// Virtual time the last call completed (drives idle-sleep modelling).
    last_call_end: Cycles,
    /// Probability a retry finds the responder busy (models contention from
    /// other requesters sharing the responder; 0 for a dedicated pair).
    contention: f64,
    /// Core layout + handoff cost table the channel is placed on.
    topology: Topology,
    /// Where the requester thread runs.
    requester: Placement,
    /// Where the polling responder thread runs.
    responder: Placement,
    /// Cycles burned on mailbox handoffs, filed per placement regime
    /// (`handoff-same-core` / `handoff-cross-core` / `handoff-cross-node`).
    placement_ledger: CycleLedger,
}

impl SimHotCalls {
    /// Allocates the shared mailbox, data area, and the responder's secure
    /// scratch inside `ctx`'s enclave.
    ///
    /// # Errors
    ///
    /// Fails if the enclave heap cannot hold the secure scratch.
    pub fn new(m: &mut Machine, ctx: &EnclaveCtx, config: HotCallConfig) -> Result<Self> {
        let lock_line = m.alloc_untrusted(64, 64);
        let mailbox_line = m.alloc_untrusted(64, 64);
        let shared_area = m.alloc_untrusted(SHARED_BYTES, 4096);
        let secure_area = m.alloc_enclave_heap(ctx.eid, SECURE_BYTES, 4096)?;
        // The paper's deployment: requester and responder are sibling
        // cores on one socket, so every handoff is the 60-cycle LLC
        // coherence transfer the ~620-cycle round trip was fitted with.
        let topology = Topology::default();
        Ok(SimHotCalls {
            lock_line,
            mailbox_line,
            shared_area,
            secure_area,
            config,
            stats: HotCallStats::default(),
            last_call_end: Cycles::ZERO,
            contention: 0.0,
            requester: topology.place(0),
            responder: topology.place(1),
            topology,
            placement_ledger: CycleLedger::new(),
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> HotCallStats {
        self.stats
    }

    /// Replaces the configuration (e.g. enabling idle sleep between runs).
    pub fn set_config(&mut self, config: HotCallConfig) {
        self.config = config;
    }

    /// Sets the probability that an availability check finds the responder
    /// busy, to model several requesters sharing one responder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability.
    pub fn set_contention(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.contention = p;
    }

    /// Replaces the machine layout the channel's endpoints are placed on.
    /// Existing placements are re-derived on the new layout.
    pub fn set_topology(&mut self, topology: Topology) {
        self.topology = topology;
        self.requester = topology.place(self.requester.core);
        self.responder = topology.place(self.responder.core);
    }

    /// Pins the requester and responder to logical cores; the NUMA node of
    /// each follows from the topology. The next call is charged under the
    /// new regime — same-core handoffs are free, cross-node ones ride the
    /// interconnect.
    pub fn set_placement(&mut self, requester_core: usize, responder_core: usize) {
        self.requester = self.topology.place(requester_core);
        self.responder = self.topology.place(responder_core);
    }

    /// The current (requester, responder) placements.
    pub fn placements(&self) -> (Placement, Placement) {
        (self.requester, self.responder)
    }

    /// Cycles burned moving the mailbox and data lines between the two
    /// endpoints, filed per placement regime. Zero-cost same-core handoffs
    /// still appear (at zero), so the account names double as a census of
    /// which regime the channel ran in.
    pub fn placement_ledger(&self) -> &CycleLedger {
        &self.placement_ledger
    }

    /// Charges `hops` cache-line handoffs between the endpoints and files
    /// them in the placement ledger.
    fn charge_handoff(&mut self, m: &mut Machine, hops: u64) {
        let cost = self.topology.transfer_cost(self.requester, self.responder) * hops;
        self.placement_ledger.credit(
            self.topology
                .transfer_account(self.requester, self.responder),
            cost,
        );
        m.charge(cost);
    }

    /// A HotOcall: the enclave requests untrusted work without leaving the
    /// enclave (paper Fig. 9). Falls back to the SDK ocall on timeout.
    ///
    /// # Errors
    ///
    /// Fails on unknown functions, marshalling violations, or if the
    /// fallback SDK path fails.
    pub fn hot_ocall<R, F>(
        &mut self,
        m: &mut Machine,
        ctx: &mut EnclaveCtx,
        name: &str,
        bufs: &[BufArg],
        body: F,
    ) -> Result<R>
    where
        F: FnOnce(&mut EnclaveCtx, &mut Machine, &CallArgs) -> sgx_sdk::Result<R>,
    {
        self.call(m, ctx, name, bufs, body, Kind::Ocall)
    }

    /// A HotEcall: untrusted code requests trusted work; a parked enclave
    /// thread polls the mailbox and executes it without an `EENTER`.
    ///
    /// # Errors
    ///
    /// As [`SimHotCalls::hot_ocall`].
    pub fn hot_ecall<R, F>(
        &mut self,
        m: &mut Machine,
        ctx: &mut EnclaveCtx,
        name: &str,
        bufs: &[BufArg],
        body: F,
    ) -> Result<R>
    where
        F: FnOnce(&mut EnclaveCtx, &mut Machine, &CallArgs) -> sgx_sdk::Result<R>,
    {
        self.call(m, ctx, name, bufs, body, Kind::Ecall)
    }

    fn call<R, F>(
        &mut self,
        m: &mut Machine,
        ctx: &mut EnclaveCtx,
        name: &str,
        bufs: &[BufArg],
        body: F,
        kind: Kind,
    ) -> Result<R>
    where
        F: FnOnce(&mut EnclaveCtx, &mut Machine, &CallArgs) -> sgx_sdk::Result<R>,
    {
        let start = m.now();
        let plan = match kind {
            Kind::Ecall => ctx.proxies().ecall(name)?,
            Kind::Ocall => ctx.proxies().ocall(name)?,
        };

        self.wake_if_sleeping(m);

        if !self.acquire_responder(m)? {
            // Timeout: fall back to the regular SDK call (§4.2).
            self.stats.fallbacks += 1;
            trace("sim_fallback", self.stats.fallbacks, m.now().get());
            return match kind {
                Kind::Ecall => ctx.ecall(m, name, bufs, body).map_err(Into::into),
                Kind::Ocall => ctx.ocall(m, name, bufs, body).map_err(Into::into),
            };
        }

        let result = match kind {
            Kind::Ocall => {
                // Trusted requester stages data into shared memory before
                // signalling — the SDK's own staging code.
                let mut area = StagingArea::untrusted(m, self.shared_area, SHARED_BYTES);
                area.reserve(plan.struct_bytes);
                m.write(self.shared_area, plan.struct_bytes)?;
                let (args, staged) =
                    stage(m, plan, bufs, &mut area, CallerSide::Trusted, ctx.options())?;
                self.publish(m)?;
                self.responder_pickup(m)?;
                let r = body(ctx, m, &args);
                unstage(m, &staged)?;
                self.complete(m)?;
                r
            }
            Kind::Ecall => {
                // Untrusted requester publishes the raw pointers; the
                // in-enclave responder runs the trusted proxy: boundary
                // checks + secure staging, exactly as an SDK ecall would.
                m.write(self.shared_area, plan.struct_bytes)?;
                self.publish(m)?;
                self.responder_pickup(m)?;
                m.read(self.shared_area, plan.struct_bytes)?;
                let mut area = StagingArea::secure(m, self.secure_area, SECURE_BYTES);
                let (args, staged) = stage(
                    m,
                    plan,
                    bufs,
                    &mut area,
                    CallerSide::Untrusted,
                    ctx.options(),
                )?;
                let r = body(ctx, m, &args);
                unstage(m, &staged)?;
                self.complete(m)?;
                r
            }
        };

        self.stats.calls += 1;
        self.last_call_end = m.now();
        // Feed the SDK's per-name edge-call ledger, as the regular paths
        // do — the census derives Table 2's cycles-per-call from it, and
        // hot calls would otherwise be invisible there. The fallback path
        // above records through the SDK call itself.
        match kind {
            Kind::Ecall => ctx.record_hot_ecall(name, m.now() - start),
            Kind::Ocall => ctx.record_hot_ocall(name, m.now() - start),
        }
        result.map_err(Into::into)
    }

    /// Signals the sleeping responder if the idle timeout elapsed (§4.2,
    /// "Conserving resources at idle times").
    fn wake_if_sleeping(&mut self, m: &mut Machine) {
        if let Some(polls) = self.config.idle_polls_before_sleep {
            let asleep_after = Cycles::new(polls * self.poll_interval(m));
            if self.last_call_end > Cycles::ZERO
                && m.now().saturating_sub(self.last_call_end) > asleep_after
            {
                m.charge(Cycles::new(WAKE_COST));
                self.stats.wakeups += 1;
                trace("sim_wake", self.stats.wakeups, m.now().get());
            }
        }
    }

    /// The availability loop with timeout (§4.2, "Preventing starvation").
    /// Returns `false` when every retry found the responder busy.
    fn acquire_responder(&mut self, m: &mut Machine) -> Result<bool> {
        for _retry in 0..self.config.timeout_retries {
            sim_spin_acquire(m, self.lock_line)?;
            m.read(self.mailbox_line, 8)?; // responder-busy flag
            let busy = m.sample_bool(self.contention);
            if !busy {
                return Ok(true);
            }
            sim_spin_release(m, self.lock_line)?;
            for _ in 0..self.config.spins_per_retry {
                m.pause();
            }
        }
        Ok(false)
    }

    /// Publishes `*data`, `call_ID` and the "go" flag, then releases the
    /// lock and PAUSEs (minimizing self-contention, §4.2).
    fn publish(&mut self, m: &mut Machine) -> Result<()> {
        m.write(self.mailbox_line, 24)?;
        sim_spin_release(m, self.lock_line)?;
        m.pause();
        Ok(())
    }

    /// The responder polls the mailbox, sees the flag after at most one
    /// poll interval, pulls the mailbox and data lines over from the
    /// requester's cache (two handoffs, costed by placement), and
    /// dispatches.
    fn responder_pickup(&mut self, m: &mut Machine) -> Result<()> {
        let poll_delay = m.sample_uniform(self.poll_interval(m));
        m.charge(Cycles::new(poll_delay + DISPATCH_COST));
        self.charge_handoff(m, 2);
        self.stats.busy_polls += 1;
        Ok(())
    }

    /// The responder signals completion; the requester notices after its
    /// own poll granularity plus one handoff pulling the line back.
    fn complete(&mut self, m: &mut Machine) -> Result<()> {
        m.write(self.mailbox_line, 8)?;
        let notice = m.sample_uniform(m.config().pause + 30);
        m.charge(Cycles::new(notice));
        self.charge_handoff(m, 1);
        // Occasional long tail: scheduler interference on the responder
        // core (bounded near the paper's 1,400-cycle p99.97).
        if m.sample_bool(0.004) {
            let extra = m.sample_uniform(650);
            m.charge(Cycles::new(extra));
        }
        Ok(())
    }

    fn poll_interval(&self, m: &Machine) -> u64 {
        // One responder loop iteration: PAUSE + lock check + flag check.
        m.config().pause + 70
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sdk::edl::parse_edl;
    use sgx_sdk::MarshalOptions;
    use sgx_sim::{EnclaveBuildOptions, SimConfig};

    const EDL: &str = "enclave {
        trusted {
            public void ecall_empty();
            public void ecall_in([in, size=n] const uint8_t* b, size_t n);
        };
        untrusted {
            void ocall_empty();
            size_t ocall_read([out, size=cap] uint8_t* buf, size_t cap);
            void ocall_send([in, size=n] const uint8_t* b, size_t n);
        };
    };";

    fn setup() -> (Machine, EnclaveCtx, SimHotCalls) {
        let mut m = Machine::new(SimConfig::builder().deterministic().build());
        let eid = m.build_enclave(EnclaveBuildOptions::default()).unwrap();
        let edl = parse_edl(EDL).unwrap();
        let ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).unwrap();
        let hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).unwrap();
        (m, ctx, hot)
    }

    #[test]
    fn hot_ocall_is_an_order_of_magnitude_cheaper_than_sdk() {
        let (mut m, mut ctx, mut hot) = setup();
        ctx.enter_main(&mut m).unwrap();
        // Warm both paths.
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        ctx.ocall(&mut m, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();

        let s = m.now();
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let hot_cost = (m.now() - s).get();

        let s = m.now();
        ctx.ocall(&mut m, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let sdk_cost = (m.now() - s).get();

        assert!(
            sdk_cost as f64 / hot_cost as f64 > 8.0,
            "expected >8x speedup: hot={hot_cost} sdk={sdk_cost}"
        );
        assert!(
            (250..1_500).contains(&hot_cost),
            "hot ocall should be in the paper's ~620-cycle regime: {hot_cost}"
        );
    }

    #[test]
    fn hot_ecall_also_fast() {
        let (mut m, mut ctx, mut hot) = setup();
        hot.hot_ecall(&mut m, &mut ctx, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let s = m.now();
        hot.hot_ecall(&mut m, &mut ctx, "ecall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        let cost = (m.now() - s).get();
        assert!(cost < 1_500, "hot ecall too slow: {cost}");
    }

    #[test]
    fn timeout_falls_back_to_sdk_call() {
        let (mut m, mut ctx, mut hot) = setup();
        hot.set_contention(1.0); // responder permanently busy
        ctx.enter_main(&mut m).unwrap();
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(hot.stats().fallbacks, 1);
        assert_eq!(hot.stats().calls, 0);
        // The SDK path actually ran: the ocall was recorded there.
        assert_eq!(ctx.stats().ocalls()["ocall_empty"].count, 1);
    }

    #[test]
    fn moderate_contention_retries_but_succeeds() {
        let (mut m, mut ctx, mut hot) = setup();
        hot.set_contention(0.5);
        ctx.enter_main(&mut m).unwrap();
        let mut ok = 0;
        for _ in 0..50 {
            hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
                .unwrap();
            ok += 1;
        }
        assert_eq!(ok, 50);
        assert!(
            hot.stats().calls > 40,
            "most calls should take the fast path"
        );
    }

    #[test]
    fn idle_sleep_wakes_on_next_call() {
        let (mut m, mut ctx, mut hot) = setup();
        hot.set_config(HotCallConfig::with_idle_sleep(100));
        ctx.enter_main(&mut m).unwrap();
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        // A long idle gap: the responder goes to sleep.
        m.charge(Cycles::new(10_000_000));
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(hot.stats().wakeups, 1);
        // Back-to-back call: no wakeup needed.
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(hot.stats().wakeups, 1);
    }

    #[test]
    fn buffers_transfer_through_shared_memory() {
        let (mut m, mut ctx, mut hot) = setup();
        let secure = m.alloc_enclave_heap(ctx.eid, 2048, 64).unwrap();
        ctx.enter_main(&mut m).unwrap();
        let seen = hot
            .hot_ocall(
                &mut m,
                &mut ctx,
                "ocall_read",
                &[BufArg::new(secure, 2048)],
                |_, m, args| {
                    // The OS body sees an *untrusted* staging buffer.
                    assert!(!m.is_enclave_addr(args.bufs[0]));
                    Ok(args.bufs[0])
                },
            )
            .unwrap();
        assert_ne!(seen, secure);
    }

    #[test]
    fn hot_ecall_stages_into_secure_memory() {
        let (mut m, mut ctx, mut hot) = setup();
        let untrusted = m.alloc_untrusted(1024, 64);
        hot.hot_ecall(
            &mut m,
            &mut ctx,
            "ecall_in",
            &[BufArg::new(untrusted, 1024)],
            |_, m, args| {
                assert!(m.is_enclave_addr(args.bufs[0]));
                Ok(())
            },
        )
        .unwrap();
    }

    #[test]
    fn placement_ledger_files_handoffs_per_regime() {
        let (mut m, mut ctx, mut hot) = setup();
        ctx.enter_main(&mut m).unwrap();

        // Default placement: sibling cores on one socket. Each hot call is
        // three handoffs (mailbox + data over, completion back) at the
        // 60-cycle coherence cost.
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(
            hot.placement_ledger().get("handoff-cross-core"),
            Cycles::new(3 * 60)
        );

        // Fused regime: both endpoints on one core — handoffs are free but
        // still censused, so the ledger shows which regime ran.
        hot.set_placement(2, 2);
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(
            hot.placement_ledger().get("handoff-same-core"),
            Cycles::ZERO
        );
        assert!(hot
            .placement_ledger()
            .entries()
            .any(|(name, _)| name == "handoff-same-core"));

        // Worst case: the responder lives on the other socket.
        hot.set_placement(0, 4);
        assert_ne!(hot.placements().0.node, hot.placements().1.node);
        hot.hot_ocall(&mut m, &mut ctx, "ocall_empty", &[], |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(
            hot.placement_ledger().get("handoff-cross-node"),
            Cycles::new(3 * 180)
        );
    }

    #[test]
    fn same_core_placement_beats_cross_node() {
        let (mut m, mut ctx, mut hot) = setup();
        ctx.enter_main(&mut m).unwrap();
        let run = |m: &mut Machine, ctx: &mut EnclaveCtx, hot: &mut SimHotCalls| {
            let s = m.now();
            for _ in 0..20 {
                hot.hot_ocall(m, ctx, "ocall_empty", &[], |_, _, _| Ok(()))
                    .unwrap();
            }
            (m.now() - s).get()
        };
        hot.set_placement(3, 3);
        let fused = run(&mut m, &mut ctx, &mut hot);
        hot.set_placement(0, 4);
        let remote = run(&mut m, &mut ctx, &mut hot);
        // 20 calls × 3 handoffs × 180 cycles of deterministic gap dwarfs
        // the sampled poll/notice jitter.
        assert!(
            remote > fused + 5_000,
            "cross-node should cost more: fused={fused} remote={remote}"
        );
    }

    #[test]
    fn set_topology_rederives_existing_placements() {
        let (_m, _ctx, mut hot) = setup();
        hot.set_placement(0, 5); // node 1 under the default layout
        hot.set_topology(Topology {
            cores_per_node: 8,
            nodes: 1,
            costs: sgx_sim::TransferCosts::default(),
        });
        let (req, resp) = hot.placements();
        assert_eq!((req.node, resp.node), (0, 0), "one-node layout");
        assert_eq!(resp.core, 5);
    }

    #[test]
    fn unknown_function_rejected() {
        let (mut m, mut ctx, mut hot) = setup();
        let err = hot
            .hot_ocall(&mut m, &mut ctx, "nope", &[], |_, _, _| Ok(()))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::HotCallError::Sdk(sgx_sdk::SdkError::UnknownFunction(_))
        ));
    }
}
