//! # apps — the HotCalls evaluation applications
//!
//! Functional reimplementations of the three applications of paper §6 —
//! memcached (binary-protocol KV cache), lighttpd (static HTTP server),
//! and openVPN (authenticated-encryption tunnel) — each running against a
//! pluggable call interface ([`IfaceMode`]): native syscalls, SDK
//! ocalls/ecalls, HotCalls, or HotCalls with No-Redundant-Zeroing. A
//! fourth app, [`storage`], exercises the *bandwidth* side of the
//! interface: streaming encrypt/authenticate/dedup of large objects over
//! the scatter-gather data path.
//!
//! The [`porting`] module reproduces §6.1's porting framework: every
//! undefined libc reference of the wholesale port (93 / 131 / 144 symbols)
//! becomes an EDL ocall declaration fed through the real `sgx-sdk` parser
//! and edger8r.
//!
//! ```
//! use apps::{AppEnv, IfaceMode};
//! use apps::memcached::{self, protocol, Memcached};
//! use sgx_sim::SimConfig;
//!
//! # fn main() -> Result<(), apps::AppError> {
//! let mut env = AppEnv::new(
//!     SimConfig::default(),
//!     IfaceMode::HotCalls,
//!     &memcached::api_table(),
//!     64 << 20,
//! )?;
//! let mut server = Memcached::new(&mut env, 1024, 2048)?;
//! let resp = server.serve(&mut env, protocol::encode_set(b"k", &[7; 2048], 1))?;
//! assert_eq!(protocol::parse_response(resp)?.status, protocol::Status::Ok);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod env;
mod error;
pub mod lighttpd;
pub mod memcached;
pub mod openvpn;
pub mod porting;
pub mod storage;

pub use env::{ApiCensus, ApiCensusRow, AppEnv, IfaceMode};
pub use error::{AppError, Result};
