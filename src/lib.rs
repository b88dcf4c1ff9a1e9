//! # hotcalls-repro — reproduction of *"Regaining Lost Cycles with HotCalls"* (ISCA 2017)
//!
//! An umbrella crate re-exporting the workspace members:
//!
//! * [`sgx_sim`] — the SGX hardware cost model (caches, MEE, EPC paging,
//!   enclave lifecycle);
//! * [`sgx_sdk`] — the simulated Intel SGX SDK (EDL, edger8r, ecall/ocall
//!   paths);
//! * [`hotcalls`] — the paper's contribution: the switchless call
//!   interface, both simulated and as a real threaded runtime;
//! * [`apps`] — memcached / lighttpd / openVPN reimplementations with
//!   pluggable call interfaces;
//! * [`workloads`] — memtier / http_load / iperf / ping generators and
//!   SPEC-like kernels.
//!
//! See the `examples/` directory for runnable walkthroughs and the `bench`
//! crate for the per-table/figure harness.
//!
//! ```
//! use hotcalls_repro::hotcalls::rt::{CallTable, HotCallServer};
//! use hotcalls_repro::hotcalls::HotCallConfig;
//!
//! let mut table: CallTable<u32, u32> = CallTable::new();
//! let id = table.register(|x| x ^ 0xFFFF);
//! let server = HotCallServer::spawn(table, HotCallConfig::default());
//! assert_eq!(server.requester().call(id, 0xAAAA).unwrap(), 0x5555);
//! ```

#![warn(missing_docs)]

// README.md's code blocks run as this crate's doc-tests, so an example
// that stops compiling, or names a deleted API, fails the test suite.
#[doc = include_str!("../README.md")]
mod readme {}

pub use apps;
pub use hotcalls;
pub use sgx_sdk;
pub use sgx_sim;
pub use workloads;
