//! `ablation_storage` — the streaming scatter-gather data path: interface
//! bandwidth across buffer sizes, and EPC-aware chunk sizing.
//!
//! * **Bandwidth ladder** — one logical object of each size is streamed
//!   out of the enclave in chunks, once through the SDK's coalescing
//!   single-pointer marshal (gather copy + zeroed staging + real
//!   ecall/ocall crossings) and once through the scatter-gather NRZ path
//!   (per-segment vectored staging + a switchless HotCall per chunk).
//!   Sizes run from 4 KiB to past the EPC capacity, so the top rungs pay
//!   real paging on the enclave-side source. The scatter-gather path must
//!   hold at least 2× the SDK bandwidth at every size.
//! * **Cliff chunking** — a `workloads::stress::cliff_ramp` object stream
//!   is ingested under static chunk sizes and under the EPC-aware
//!   [`hotcalls::Controller`] chunker, whose watermark on paging cycles
//!   per streamed byte shrinks the chunk when the enclave-side footprint
//!   (windowed staging + resident dedup index) crosses the EPC. The
//!   adaptive chunker must hold at least 0.9× the best static chunk.
//!
//! Under smoke the modelled EPC shrinks and every size of the experiment
//! shrinks with it (see [`Geometry`]), so both sections still cross it.

use hotcalls::sim::SimHotCalls;
use hotcalls::{ChunkPolicy, Controller, HotCallConfig};
use sgx_sdk::edl::{parse_edl, Direction};
use sgx_sdk::marshal::{stage_sg, unstage, CallerSide, StagingArea};
use sgx_sdk::memops::sdk_memcpy;
use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
use sgx_sim::{Cycles, EnclaveBuildOptions, Machine, SimConfig};
use workloads::stress::cliff_ramp;

use super::{say, Outcome, Scale};
use crate::report::paper;
use crate::stats::{geometric_grid, Samples};

/// Simulated clock, for cycles → MiB/s.
const CYCLES_PER_SEC: f64 = 4e9;

const EDL: &str = "enclave { untrusted {
    void o_sink([in, out, size=n] uint8_t* b, size_t n);
    void o_sink_sg([user_check] void* p);
}; };";

/// The modelled EPC at full scale.
const FULL_EPC: u64 = 8 << 20;

/// Every size of the experiment, as fractions of the modelled EPC.
#[derive(Clone, Copy)]
struct Geometry {
    /// Physical EPC of the simulated machine — small, so the ladder's top
    /// rungs and the cliff workload cross it quickly.
    epc: u64,
    /// Arena segment granularity (at full scale it matches
    /// `hotcalls::rt::DEFAULT_SEGMENT_BYTES`).
    segment: u64,
    /// Fixed streaming chunk for the bandwidth ladder (both paths; it
    /// must fit the SDK's 1 MiB marshalling scratch, which is the real
    /// constraint that forces chunking in the first place).
    ladder_chunk: u64,
    /// Resident dedup index the cliff ingest probes against; together
    /// with the ring's in-flight chunk window it makes the enclave
    /// footprint `index + CLIFF_WINDOW × chunk`, so the chunk size decides
    /// which side of the EPC cliff each stream runs on: at full scale
    /// 4.5 MiB + 8 × 1 MiB overflows the 8 MiB EPC badly, 4.5 MiB +
    /// 8 × 256 KiB does not.
    cliff_index: u64,
    /// The largest chunk the cliff experiment issues (static grid top and
    /// the adaptive policy's bound); the smallest is a sixteenth of it.
    cliff_max_chunk: u64,
}

impl Geometry {
    fn new(epc: u64) -> Self {
        Geometry {
            epc,
            segment: epc / 512,
            ladder_chunk: epc / 32,
            cliff_index: epc / 16 * 9,
            cliff_max_chunk: epc / 8,
        }
    }

    /// Staging room for one chunk: the largest chunk plus four segments
    /// of slack for the tag and alignment.
    fn staging_cap(&self, chunk: u64) -> u64 {
        chunk + 4 * self.segment
    }

    fn machine(&self) -> Machine {
        let mut cfg = SimConfig::builder()
            .deterministic()
            .epc_bytes(self.epc)
            .build();
        let shrink = FULL_EPC / self.epc;
        for cache in [&mut cfg.l1, &mut cfg.l2, &mut cfg.llc] {
            cache.capacity /= shrink;
        }
        Machine::new(cfg)
    }

    /// `bytes` split into arena segments starting at `base`.
    fn segments(&self, base: sgx_sim::Addr, bytes: u64) -> Vec<BufArg> {
        (0..bytes.div_ceil(self.segment))
            .map(|i| {
                let at = i * self.segment;
                BufArg::new(base.offset(at), self.segment.min(bytes - at))
            })
            .collect()
    }
}

fn mib_per_sec(bytes: u64, cycles: u64) -> f64 {
    bytes as f64 / cycles as f64 * CYCLES_PER_SEC / (1u64 << 20) as f64
}

/// Median cycles of `n` passes after one warm pass (commits and cold
/// lines bias the first).
fn median_pass(m: &mut Machine, n: usize, mut pass: impl FnMut(&mut Machine)) -> u64 {
    pass(m);
    (0..n)
        .map(|_| {
            let s = m.now();
            pass(m);
            (m.now() - s).get()
        })
        .collect::<Samples>()
        .median()
}

/// A ladder machine whose enclave heap holds `heap` bytes of objects plus
/// the gather buffer and the ctx's secure scratch, with an SDK context.
fn ladder_rig(g: Geometry, heap: u64, options: MarshalOptions) -> (Machine, EnclaveCtx) {
    let mut m = g.machine();
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: heap + (4 << 20),
            ..EnclaveBuildOptions::default()
        })
        .expect("enclave");
    let edl = parse_edl(EDL).expect("EDL");
    let ctx = EnclaveCtx::new(&mut m, eid, &edl, options).expect("ctx");
    (m, ctx)
}

/// Median cycles to stream one `bytes`-sized enclave object out through
/// the SDK path. A single-pointer ocall cannot take a segment list, so
/// the logical object — held segment-wise in the enclave arena — must
/// first be coalesced into one contiguous enclave buffer; past the EPC
/// that second full-size buffer is exactly what the scatter-gather path
/// exists to avoid. The sink protocol hands each chunk out and gets a
/// small ack/tag back, which at pointer granularity means an `[in, out]`
/// chunk buffer: the generated proxy `memset`s its whole untrusted
/// frame, copies the chunk out, crosses, and copies the *whole chunk*
/// back — it cannot express "only the tag returns".
fn sdk_ladder_cycles(g: Geometry, bytes: u64, n: usize) -> u64 {
    let (mut m, mut ctx) = ladder_rig(g, 2 * bytes, MarshalOptions::default());
    let obj = m.alloc_enclave_heap(ctx.eid, bytes, 4096).expect("heap");
    let coalesced = m.alloc_enclave_heap(ctx.eid, bytes, 4096).expect("heap");
    ctx.enter_main(&mut m).expect("enter");
    median_pass(&mut m, n, |m| {
        for seg in g.segments(obj, bytes) {
            let at = seg.addr.get() - obj.get();
            sdk_memcpy(m, coalesced.offset(at), seg.addr, seg.len).expect("gather");
        }
        let mut off = 0u64;
        while off < bytes {
            let chunk = g.ladder_chunk.min(bytes - off);
            ctx.ocall(
                m,
                "o_sink",
                &[BufArg::new(coalesced.offset(off), chunk)],
                |_, _, _| Ok(()),
            )
            .expect("ocall");
            off += chunk;
        }
    })
}

/// Median cycles for the same transfer through the scatter-gather path:
/// each chunk's segments are staged individually (vectored, NRZ — no
/// gather copy, no staging memset) with per-segment directions — the
/// data rides `In`, only a 64-byte ack tag rides `Out` — and the chunk
/// is handed off with one switchless HotCall instead of an enclave exit.
fn hot_sg_ladder_cycles(g: Geometry, bytes: u64, n: usize) -> u64 {
    let (mut m, mut ctx) = ladder_rig(g, bytes, MarshalOptions::nrz());
    let mut hot = SimHotCalls::new(&mut m, &ctx, HotCallConfig::default()).expect("channel");
    let obj = m.alloc_enclave_heap(ctx.eid, bytes, 4096).expect("heap");
    let tag = m.alloc_enclave_heap(ctx.eid, 64, 64).expect("heap");
    let staging_cap = g.staging_cap(g.ladder_chunk);
    let staging = m.alloc_untrusted(staging_cap, 4096);
    ctx.enter_main(&mut m).expect("enter");
    median_pass(&mut m, n, |m| {
        let mut off = 0u64;
        while off < bytes {
            let chunk = g.ladder_chunk.min(bytes - off);
            let segs = g.segments(obj.offset(off), chunk);
            let mut area = StagingArea::untrusted(m, staging, staging_cap);
            let mut stage = |m: &mut Machine, segs: &[BufArg], dir| {
                stage_sg(
                    m,
                    segs,
                    dir,
                    &mut area,
                    CallerSide::Trusted,
                    MarshalOptions::nrz(),
                )
                .expect("stage")
            };
            let staged = stage(m, &segs, Direction::In);
            let tag_staged = stage(m, &[BufArg::new(tag, 64)], Direction::Out);
            hot.hot_ocall(
                m,
                &mut ctx,
                "o_sink_sg",
                &[BufArg::new(staging, 0)],
                |_, _, _| Ok(()),
            )
            .expect("hot ocall");
            unstage(m, &tag_staged).expect("unstage");
            unstage(m, &staged).expect("unstage");
            off += chunk;
        }
    })
}

/// In-flight chunk credit of the cliff ingest: how many ring slots a
/// stream cycles through (double-buffering is the minimum; the ring runs
/// deeper so responders never starve). Slot reuse distance is
/// `CLIFF_WINDOW × chunk`, which keeps staging writes cache-cold at every
/// chunk size — the EPC footprint is the knob under test, not L2
/// residency.
const CLIFF_WINDOW: usize = 8;

struct CliffRun {
    bytes: u64,
    cycles: u64,
}

impl CliffRun {
    fn mib_s(&self) -> f64 {
        mib_per_sec(self.bytes, self.cycles)
    }
}

/// Streams `rounds` repetitions of the cliff ramp into the enclave under
/// the given chunk policy: every chunk is staged vectored into secure
/// memory (windowed slots), handed off switchlessly, and dedup-probed
/// once per 4 KiB content block. `observe` sees each chunk's paging-cycle
/// bill, which is what the adaptive policy feeds to
/// [`Controller::observe_paging`].
fn cliff_run(
    g: Geometry,
    rounds: usize,
    mut chunk_of: impl FnMut() -> u64,
    mut observe: impl FnMut(u64, u64),
) -> CliffRun {
    let mut m = g.machine();
    let staging_cap = g.staging_cap(g.cliff_max_chunk);
    let eid = m
        .build_enclave(EnclaveBuildOptions {
            heap_bytes: g.cliff_index + CLIFF_WINDOW as u64 * staging_cap + (1 << 20),
            ..EnclaveBuildOptions::default()
        })
        .expect("enclave");
    let index = m
        .alloc_enclave_heap(eid, g.cliff_index, 4096)
        .expect("heap");
    // The ring's slot window: chunk k is processed while chunks
    // k+1..k+WINDOW marshal behind it.
    let slots: Vec<_> = (0..CLIFF_WINDOW)
        .map(|_| m.alloc_enclave_heap(eid, staging_cap, 4096).expect("heap"))
        .collect();
    let specs = cliff_ramp(g.epc as usize, 11);
    let max_obj = specs.iter().map(|s| s.bytes).max().expect("ramp") as u64;
    let src = m.alloc_untrusted(max_obj, 4096);
    // Warm the index to steady residency before measuring.
    m.read(index, g.cliff_index).expect("warm");
    let index_pages = g.cliff_index / 4096;
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    let mut flip = 0usize;
    let mut total = 0u64;
    let start = m.now();
    for _ in 0..rounds {
        for spec in &specs {
            let len = spec.bytes as u64;
            let mut off = 0u64;
            while off < len {
                let chunk = chunk_of().max(1).min(len - off);
                let staging = slots[flip];
                flip = (flip + 1) % CLIFF_WINDOW;
                let paging0 = m.epc_stats().paging_cycles;
                let segs = g.segments(src.offset(off), chunk);
                let mut area = StagingArea::secure(&m, staging, staging_cap);
                stage_sg(
                    &mut m,
                    &segs,
                    Direction::In,
                    &mut area,
                    CallerSide::Untrusted,
                    MarshalOptions::default(),
                )
                .expect("stage");
                // Switchless handoff to the parked enclave responder
                // (decryption rides the staging copy itself, so the only
                // post-copy work is the dedup probing).
                m.charge(Cycles::new(paper::HOTCALL_P78));
                // One dedup-index probe per content block.
                for _ in 0..(chunk / 4096).max(1) {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let page = (lcg >> 33) % index_pages;
                    m.read(index.offset(page * 4096), 8).expect("probe");
                }
                observe(m.epc_stats().paging_cycles - paging0, chunk);
                off += chunk;
                total += chunk;
            }
        }
    }
    CliffRun {
        bytes: total,
        cycles: (m.now() - start).get(),
    }
}

/// The bandwidth ladder and the cliff, with their claims.
pub fn ablation_storage(scale: Scale) -> Outcome {
    let g = Geometry::new(scale.pick(FULL_EPC, FULL_EPC / 8));
    let n = scale.samples(3, 2);

    let mut out =
        Outcome::titled("Ablation: scatter-gather streaming bandwidth vs the SDK marshal");
    // The ladder's size grid: 4 KiB to `top`, geometric, page-aligned.
    let (top, points) = scale.pick((4 * g.epc, 7), (2 * g.epc, 5));
    let mut sizes: Vec<u64> = geometric_grid(4096.0, top as f64, points)
        .into_iter()
        .map(|v| ((v as u64).div_ceil(4096)).max(1) * 4096)
        .collect();
    sizes.dedup();
    say!(
        out,
        "{:>10} {:>12} {:>14} {:>9} {:>8}",
        "bytes",
        "SDK MiB/s",
        "hot+sg MiB/s",
        "speedup",
        ">EPC"
    );
    for &bytes in &sizes {
        let sdk = sdk_ladder_cycles(g, bytes, n);
        let hot = hot_sg_ladder_cycles(g, bytes, n);
        let speedup = sdk as f64 / hot as f64;
        say!(
            out,
            "{bytes:>10} {:>12.0} {:>14.0} {:>8.2}x {:>8}",
            mib_per_sec(bytes, sdk),
            mib_per_sec(bytes, hot),
            speedup,
            if bytes > g.epc { "yes" } else { "no" }
        );
        out.check(
            speedup >= 2.0,
            format!("hot+sg >= 2x the SDK bandwidth at {bytes} bytes ({speedup:.2}x)"),
        );
    }
    out.check(
        sizes.iter().any(|&b| b > g.epc),
        format!("a measured size exceeds the {}-byte EPC", g.epc),
    );

    say!(
        out,
        "\n=== Ablation: EPC-aware chunk sizing across the paging cliff ==="
    );
    // Enough rounds that the adaptive run's one-time convergence cost
    // (the probing descent from the largest chunk) amortizes, as it would
    // for any long-lived stream.
    let rounds = scale.pick(6, 4);
    say!(
        out,
        "{:>14} {:>12} {:>12} {:>10}",
        "chunk",
        "MiB",
        "Mcycles",
        "MiB/s"
    );
    let mut statics = Vec::new();
    for chunk in [16, 4, 2, 1].map(|d| g.cliff_max_chunk / d) {
        let run = cliff_run(g, rounds, || chunk, |_, _| {});
        say!(
            out,
            "{:>11} KiB {:>12.1} {:>12.1} {:>10.0}",
            chunk >> 10,
            run.bytes as f64 / (1 << 20) as f64,
            run.cycles as f64 / 1e6,
            run.mib_s()
        );
        statics.push(run.mib_s());
    }
    // The EPC-aware policy: start greedy at the bound, ratchet down when
    // paging cost per byte crosses the watermark, and hold whatever the
    // EPC tolerates (no grow-back, so a probed cliff is never re-entered).
    // The cooldown lets the post-shrink refault transient drain instead
    // of reading it as a still-too-big chunk.
    let ctl = Controller::auto()
        .with_chunker(ChunkPolicy {
            min_chunk: (g.cliff_max_chunk / 16) as usize,
            max_chunk: g.cliff_max_chunk as usize,
            start_chunk: g.cliff_max_chunk as usize,
            shrink_above: 0.5,
            grow_below: 0.0,
            cooldown_ticks: 2,
        })
        .expect("valid chunk policy");
    let adaptive = cliff_run(
        g,
        rounds,
        || ctl.chunk_bytes() as u64,
        |paging, bytes| {
            ctl.observe_paging(paging, bytes);
        },
    );
    let ctl_stats = ctl.stats();
    say!(
        out,
        "{:>14} {:>12.1} {:>12.1} {:>10.0}   ({} shrinks, {} grows, settled at {} KiB)",
        "adaptive",
        adaptive.bytes as f64 / (1 << 20) as f64,
        adaptive.cycles as f64 / 1e6,
        adaptive.mib_s(),
        ctl_stats.chunk_shrinks,
        ctl_stats.chunk_grows,
        ctl.chunk_bytes() >> 10,
    );
    let best = statics.iter().copied().fold(0.0f64, f64::max);
    let worst = statics.iter().copied().fold(f64::INFINITY, f64::min);
    out.check(
        adaptive.mib_s() >= 0.9 * best,
        format!(
            "adaptive chunker holds >= 0.9x the best static ({:.0} vs {best:.0} MiB/s)",
            adaptive.mib_s()
        ),
    );
    out.check(
        ctl_stats.chunk_shrinks > 0,
        format!(
            "the adaptive chunker shrank across the cliff ({} shrinks)",
            ctl_stats.chunk_shrinks
        ),
    );
    out.check(
        best >= 1.5 * worst,
        format!(
            "there is a cliff to adapt to: best static >= 1.5x worst \
             ({best:.0} vs {worst:.0} MiB/s)"
        ),
    );
    out
}
