//! HotCalls latency runners for Figure 3 and the §4.3 evaluation.

use hotcalls::sim::SimHotCalls;
use hotcalls::HotCallConfig;
use sgx_sdk::edl::parse_edl;
use sgx_sdk::{EnclaveCtx, MarshalOptions};
use sgx_sim::{EnclaveBuildOptions, Machine, SgxError, SimConfig};

use crate::micro::collect;
use crate::stats::Samples;

const HOT_EDL: &str = "enclave {
    trusted { public void ecall_empty(); };
    untrusted { void ocall_empty(); };
};";

/// Which direction of HotCall to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HotKind {
    /// HotEcall (untrusted requester, trusted responder).
    Ecall,
    /// HotOcall (trusted requester, untrusted responder).
    Ocall,
}

impl HotKind {
    /// Label for output.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            HotKind::Ecall => "HotEcall",
            HotKind::Ocall => "HotOcall",
        }
    }
}

/// Measures `n` empty HotCalls of the given kind (Fig. 3's CDF).
pub(crate) fn hotcall_latency(kind: HotKind, n: usize, seed: u64) -> Samples {
    let mut m = Machine::new(SimConfig::builder().seed(seed).build());
    let eid = m
        .build_enclave(EnclaveBuildOptions::default())
        .expect("enclave");
    let edl = parse_edl(HOT_EDL).expect("EDL");
    let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default()).expect("ctx");
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).expect("channel");
    if kind == HotKind::Ocall {
        ctx.enter_main(&mut m).expect("enter");
    }
    // Warm the shared mailbox lines.
    for _ in 0..10 {
        issue(&mut m, &mut ctx, &mut hot, kind).expect("warmup");
    }

    collect(
        &mut m,
        n,
        |_| {},
        |m| issue(m, &mut ctx, &mut hot, kind).map_err(|_| SgxError::NotEntered),
    )
}

fn issue(
    m: &mut Machine,
    ctx: &mut EnclaveCtx,
    hot: &mut SimHotCalls,
    kind: HotKind,
) -> hotcalls::Result<()> {
    match kind {
        HotKind::Ecall => hot.hot_ecall(m, ctx, "ecall_empty", &[], |_, _, _| Ok(())),
        HotKind::Ocall => hot.hot_ocall(m, ctx, "ocall_empty", &[], |_, _, _| Ok(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::ocall_latency;
    use crate::report::paper;

    #[test]
    fn hotcall_p78_in_papers_regime() {
        let s = hotcall_latency(HotKind::Ocall, 2_000, 21);
        let p78 = s.percentile(78.0);
        assert!(
            (300..900).contains(&p78),
            "p78 {} vs paper {}",
            p78,
            paper::HOTCALL_P78
        );
        let p9997 = s.percentile(99.97);
        assert!(
            p9997 <= 2 * paper::HOTCALL_P9997,
            "tail p99.97 {} vs paper {}",
            p9997,
            paper::HOTCALL_P9997
        );
    }

    #[test]
    fn speedup_is_an_order_of_magnitude() {
        let hot = hotcall_latency(HotKind::Ocall, 1_000, 22).median();
        let sdk = ocall_latency(false, 400, 23).median();
        let speedup = sdk as f64 / hot as f64;
        assert!(
            speedup > 8.0,
            "paper reports 13-27x; got {speedup} ({sdk} vs {hot})"
        );
    }

    #[test]
    fn hot_ecall_and_ocall_are_similar() {
        let e = hotcall_latency(HotKind::Ecall, 1_000, 24).median();
        let o = hotcall_latency(HotKind::Ocall, 1_000, 25).median();
        let ratio = e as f64 / o as f64;
        assert!((0.6..1.6).contains(&ratio), "ecall/ocall {ratio}");
    }
}
