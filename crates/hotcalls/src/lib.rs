//! # hotcalls — a fast, switchless call interface for SGX enclaves
//!
//! Reproduction of the primary contribution of *"Regaining Lost Cycles with
//! HotCalls: A Fast Interface for SGX Secure Enclaves"* (Weisse, Bertacco,
//! Austin — ISCA 2017).
//!
//! SGX ecalls and ocalls cost 8,200–17,000 cycles because each one is a
//! secure context switch. HotCalls replace the switch with a spin-lock-
//! synchronized mailbox in un-encrypted shared memory, polled by a
//! dedicated responder thread — ~620 cycles per call, a 13–27× speedup.
//!
//! Two implementations live here:
//!
//! * [`sim`] — HotCalls inside the `sgx-sim` cycle model, used to reproduce
//!   the paper's Fig. 3 CDF and the application studies (Figs. 10, 11).
//! * [`rt`] — a **real threaded runtime**: [`rt::HotCallServer`] spawns the
//!   polling responder, [`rt::Requester`] issues calls, with the paper's
//!   timeout-fallback and idle-sleep mechanisms. The data plane is
//!   lock-free (payloads in `UnsafeCell` slots guarded by the atomic state
//!   machine, cache-line-padded hot words), and [`rt::RingServer`] scales
//!   it out from one plane core: `S` shards — each a multi-slot submission
//!   ring — served by `R ≥ S` responders that drain submitted slots in
//!   batches, home shard first, siblings by stealing. A ring is the
//!   one-shard shape ([`rt::RingServer::spawn_pool`]: every requester
//!   shares one head word), the sharded plane the one-responder-per-shard
//!   shape ([`rt::RingServer::spawn_sharded`]: requesters pinned to home
//!   shards never share a head CAS); both are the same server and
//!   requester types and the same protocol code. The plane is
//!   *pipelined*: [`rt::RingRequester::submit`] /
//!   [`rt::RingRequester::wait_any`] keep many calls in flight per
//!   requester, [`rt::Bundle`] packs N small calls into one submission,
//!   and [`rt::RingServer::spawn_adaptive`] replaces the static pool size
//!   with a [`ResponderPolicy`] governor that parks idle responders and
//!   wakes them on backlog. [`rt::ByteRing`] and [`rt::SgRing`] are that
//!   plane over arena-backed byte and scatter-gather payloads. This is
//!   usable as a general low-latency inter-thread call primitive.
//! * [`ctl`] — the **configless control plane**: a per-API break-even
//!   router and an online worker-efficiency sizer that close the loop
//!   from [`telemetry`] back into the data plane's knobs, so the three
//!   demo apps run with zero explicit configuration.
//!
//! ## Threaded quick start
//!
//! ```
//! use hotcalls::rt::{CallTable, HotCallServer};
//! use hotcalls::HotCallConfig;
//!
//! let mut table: CallTable<Vec<u8>, usize> = CallTable::new();
//! let write_id = table.register(|buf: Vec<u8>| buf.len()); // the "ocall"
//!
//! let server = HotCallServer::spawn(table, HotCallConfig::default());
//! let requester = server.requester();
//! assert_eq!(requester.call(write_id, vec![0; 128]).unwrap(), 128);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aio;
mod config;
pub mod ctl;
mod error;
pub mod rt;
pub mod sim;
pub mod telemetry;

pub use aio::{block_on, Reactor};
pub use config::{
    FusedMode, GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy, RingStats, ShardPolicy,
    ShardStats,
};
pub use ctl::{
    ApiRouter, ChunkPolicy, ChunkSizer, Controller, CtlPolicy, CtlStats, SizerPolicy, Transport,
};
pub use error::{HotCallError, Result};
pub use telemetry::{PagingStats, Snapshot, TelemetryRegistry, TELEMETRY_ENABLED};
