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
//!   machine, cache-line-padded hot words). The mailbox takes several
//!   requesters through its claim lock, as the paper's Fig. 9 does;
//!   [`rt::RingServer`] instead gives one requester many calls in flight
//!   (§4.2's better-utilized responder): a plane is one multi-slot
//!   submission ring served by one responder that drains submitted slots
//!   in sequence order, a batch at a time ([`rt::RingServer::spawn_pool`]).
//!   The ring's one [`rt::RingRequester`] is a `Send + !Sync` lease, the
//!   only writer of the ring's head; concurrent requesters and independent
//!   channels are independent planes. The plane is *pipelined*:
//!   [`rt::RingRequester::submit`] / [`rt::RingRequester::wait_any`] keep
//!   many calls in flight (a call returns through `call`, `wait` or
//!   `wait_any` and nothing else; one ticket is one call), and
//!   [`rt::Window`] keeps such a
//!   pipeline, reaping oldest first, without ever lapping the ring onto a
//!   call it still holds. The responder drains for the
//!   plane's life, and the paper's doze is its one idle mechanism: only
//!   the responder services ring slots, and while it dozes
//!   (`HotCallConfig::idle_polls_before_sleep`) a synchronous call skips
//!   the ring and runs its handler inline, so an idle plane holds no
//!   second CPU. A payload is the server's type
//!   parameter: [`rt::ByteRing`] and [`rt::SgRing`] *are* that
//!   `RingServer`, at arena-backed byte and scatter-gather payloads. This
//!   is usable as a general low-latency inter-thread call primitive.
//! * [`ctl`] — [`ChunkSizer`], a one-way ratchet that halves a streaming
//!   chunk while the EPC's paging bill per streamed byte stays high.
//! * [`telemetry`] — what a plane measures about itself: its counters and
//!   its queue, service and reap cycle histograms, read per plane with
//!   `stats()` and `telemetry(name)`.
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

pub use config::HotCallConfig;
pub use ctl::ChunkSizer;
pub use error::{HotCallError, Result};
pub use telemetry::{GovernorStats, HotCallStats, RingStats, TELEMETRY_ENABLED};
