//! What the harness knows about a workload: plain numbers in, plain
//! numbers out. The implementations — and every product type — live in
//! `sut.rs`.

use crate::metrics::Metrics;
use crate::trace::{Probe, SpanProbe};

/// Work divisor: 1 for a measured run, 50 for `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const CHECK: Scale = Scale(50);

    /// `n` scaled down, never below 1.
    pub fn of(self, n: u64) -> u64 {
        (n / self.0).max(1)
    }
}

/// Measured while building (part of `setup_s`; two clock reads).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupNotes {
    /// Virtual cycles the simulated machine charged for constructing the
    /// recommended-mode enclave.
    pub enclave_build_cycles: u64,
    /// Host time of the constructor call that built that enclave.
    pub enclave_build_host_ns: u64,
}

/// One port (HotCalls+NRZ or SDK) of a workload's sim half. Counter
/// pairs are (hits, misses) deltas over the measured ops.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimSide {
    pub cycles: u64,
    /// Normalisation unit of `*_per_op` metrics (calls, requests, MiB).
    pub ops: f64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    pub failed: u64,
    /// Per op: interface cycles divided by the edge calls the op made.
    pub call_cycles: Vec<u64>,
    pub l1_lookups: u64,
    pub llc: (u64, u64),
    pub tlb: (u64, u64),
    pub mee: (u64, u64),
    pub epc_faults: u64,
    pub paging_cycles: u64,
    pub aex: u64,
    pub hot_calls: u64,
    pub hot_fallbacks: u64,
    /// Zeroing the NRZ port's staging skipped, where the harness owns the
    /// staging area (store_stream); elsewhere a probe measures it.
    pub elided_bytes: u64,
    pub edge_calls: u64,
    pub iface_cycles: u64,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimReport {
    pub hot: SimSide,
    pub sdk: SimSide,
}

/// One fixed-work host trial.
#[derive(Debug, Default, Clone, Copy)]
pub struct Trial {
    pub ops: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub type Res<T> = Result<T, String>;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Everything derived from the seed, generated before any timing.
    type Inputs;

    fn generate(seed: u64, scale: Scale) -> Self::Inputs;

    /// Builds everything that exists before the first timed op of either
    /// half: machines, enclaves, EDL/edger8r, contexts, the live plane
    /// and its responder threads, application prefill. Timed as
    /// `setup_s`.
    fn build(inputs: &Self::Inputs, notes: &mut SetupNotes) -> Res<Self>;

    /// The deterministic half: a fixed op count through both ports in
    /// virtual cycles, after a fixed untimed warm-up.
    fn sim(&mut self, inputs: &Self::Inputs) -> Res<SimReport>;

    /// Untimed warm-up of the live plane.
    fn warm_host(&mut self, inputs: &Self::Inputs) -> Res<()>;

    /// One fixed-work trial on the live plane, every reply verified.
    fn host_trial<P: Probe>(
        &mut self,
        inputs: &Self::Inputs,
        trial: u64,
        probe: &mut P,
    ) -> Res<Trial>;

    /// Per-layer metrics of the traced run: counters read through the
    /// product's public snapshots plus the isolated probes. Sets every
    /// layer metric this workload exercises and returns the host ns per
    /// op that `count x isolated unit cost` explains.
    fn layers(
        &mut self,
        inputs: &Self::Inputs,
        sim: &SimReport,
        probe: &SpanProbe,
        out: &mut Metrics,
    ) -> Res<f64>;

    /// Takes one real reply (object, tag), checks the verifier accepts
    /// it, corrupts it, and checks the verifier rejects it. Called on a
    /// freshly built and warmed workload, before any trial.
    fn verifiers_reject_corruption(&mut self, inputs: &Self::Inputs) -> Res<()>;
}
