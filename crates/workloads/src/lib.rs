//! # workloads — load generators for the HotCalls evaluation
//!
//! The client side of paper §6 plus the memory-intensive kernels of §3.4:
//!
//! * [`memtier`] — memtier_benchmark (binary protocol, 1:1 SET:GET, 2 KB
//!   values) against the memcached server;
//! * [`http_load`] — http_load (100 concurrent clients, 20 KB pages)
//!   against lighttpd;
//! * [`iperf`] — bulk TCP bandwidth through the openVPN tunnel;
//! * [`ping`] — flood ping RTT through the tunnel (preload 100);
//! * [`spec`] — `mcf` / `libquantum` / `astar` analogues run in plaintext
//!   vs encrypted memory (Fig. 8), including the EPC-overflow cliff;
//! * [`link`] — the 1 Gbit/s link model (935 Mbit/s measured ceiling);
//! * [`stress`] — Stress-SGX-style object workloads for the streaming
//!   data path: EPC-cliff-crossing size ramps;
//! * [`openloop`] — seeded Poisson open-loop arrival schedules, for
//!   latency-vs-offered-load curves.
//!
//! All drivers run in *virtual time*: throughput and latency come from the
//! machine model's cycle accounting, with latency derived through Little's
//! law over each tool's outstanding-request window — the same relationship
//! that governs the paper's own measurements.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http_load;
pub mod iperf;
pub mod link;
pub mod memtier;
pub mod openloop;
pub mod ping;
mod result;
pub mod spec;
pub mod stress;

pub use link::LinkModel;
pub use openloop::{OpenLoopPlan, PoissonArrivals};
pub use result::{KernelResult, RunResult};
