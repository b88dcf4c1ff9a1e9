//! # bench — the table/figure regeneration harness
//!
//! One binary, `paper`, over one table of experiments
//! ([`experiments::EXPERIMENTS`]):
//!
//! | `paper <name>` | regenerates |
//! |---|---|
//! | `table1` | Table 1 — the ten microbenchmarks |
//! | `fig2` | ecall/ocall CDFs, warm & cold |
//! | `fig3` | HotEcall/HotOcall CDFs |
//! | `fig4` | ecall + buffer transfer vs size |
//! | `fig5` | ocall + buffer transfer vs size |
//! | `fig6` | consecutive reads, encrypted vs plaintext |
//! | `fig7` | consecutive writes, encrypted vs plaintext |
//! | `fig8` | memory-encryption overhead incl. SPEC-like kernels |
//! | `table2` | API-call frequency breakdown per application |
//! | `fig10` | application throughput, four interface modes |
//! | `fig11` | application latency, four interface modes |
//! | `ablation_hotcall` | contention, timeout-retry and idle-sleep sweeps |
//! | `ablation_memset` | byte-wise vs word-wise `memset` vs NRZ |
//! | `ablation_mee` | MEE node-cache capacity vs read overhead |
//! | `ablation_epc` | EPC capacity vs a streaming working set |
//! | `ablation_nrz` | No-Redundant-Zeroing across transfer modes |
//! | `api_census` | Table-2-style census per interface configuration |
//! | `load_curves` | latency vs offered load, 100k connections |
//! | `ablation_storage` | scatter-gather bandwidth ladder + EPC-aware chunking |
//! | `all` | everything above in sequence |
//!
//! Each prints the paper's reference value next to the measured one where
//! the paper has one, checks the claims it exists to witness, and makes
//! `paper` exit non-zero when one fails. `tests/paper_claims.rs` in the
//! root package runs the same functions at `--smoke` scale in tier-1. Add
//! a number to scale the sample counts (e.g.
//! `cargo run --release -p bench --bin paper -- table1 200000` for the
//! paper's exact sample sizes).
//!
//! Everything here runs in deterministic virtual cycles. What the *host*
//! does in wall-clock ns is measured by the repo benchmark (`benchmark/`,
//! `scripts/pairs.sh`) and by the Criterion files under `benches/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod applications;
pub mod experiments;
mod hot;
mod micro;
mod report;
mod stats;
