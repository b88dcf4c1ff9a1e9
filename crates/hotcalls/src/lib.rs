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
//!   it out: a plane is one multi-slot submission ring served by `R ≥ 1`
//!   responders that drain submitted slots in batches
//!   ([`rt::RingServer::spawn_pool`]); every requester shares its one
//!   head word, and independent channels are independent planes. The plane
//!   is *pipelined*: [`rt::RingRequester::submit`] /
//!   [`rt::RingRequester::wait_any`] keep many calls in flight per
//!   requester (a call returns through `call`, `wait` or `wait_any` and
//!   nothing else; one ticket is one call), and one [`ResponderPolicy`]
//!   `{min, max}`
//!   ([`rt::RingServer::spawn_adaptive`]) replaces the static pool size
//!   with a governor that parks idle responders and wakes them on
//!   backlog. Only responders service ring slots; once a plane's
//!   responders all doze (`HotCallConfig::idle_polls_before_sleep`), a
//!   synchronous call skips the ring and runs its handler inline, so an
//!   idle plane holds no second CPU. A payload is the server's type
//!   parameter: [`rt::ByteRing`] and [`rt::SgRing`] *are* that
//!   `RingServer`, at arena-backed byte and scatter-gather payloads. This
//!   is usable as a general low-latency inter-thread call primitive.
//! * [`ctl`] — the **configless control plane**: a per-API break-even
//!   router and an online worker-efficiency sizer that close the loop
//!   from [`telemetry`] back into the data plane's knobs, with time
//!   constants nobody sets. It is opt-in: the demo apps' default plane
//!   runs without a [`Controller`]; `apps`' `RtTransport::Auto` attaches
//!   one. Beside it, [`ChunkSizer`] ratchets a streaming chunk down the
//!   EPC paging cliff.
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

mod config;
pub mod ctl;
mod error;
pub mod rt;
pub mod sim;
pub mod telemetry;

pub use config::{HotCallConfig, ResponderPolicy};
pub use ctl::{ApiRouter, ChunkSizer, Controller, CtlStats, Transport};
pub use error::{HotCallError, Result};
pub use telemetry::{
    GovernorStats, HotCallStats, RingStats, ShardStats, Snapshot, TelemetryRegistry,
    TELEMETRY_ENABLED,
};
