//! # sgx-sdk — the simulated Intel SGX SDK
//!
//! The SDK layer of the HotCalls reproduction: everything Intel's SDK
//! 1.5.80 puts between an application and the SGX hardware, with the cost
//! characteristics the paper measures.
//!
//! * [`edl`] — the Enclave Definition Language: AST + parser for the subset
//!   the paper's applications need (`[in]`/`[out]`/`[user_check]`,
//!   `size=`/`count=`).
//! * [`edger8r`] — the edge-function generator: EDL declarations become
//!   [`edger8r::ProxyPlan`]s describing exactly the marshalling work the
//!   real tool's generated C performs.
//! * [`EnclaveCtx`] — the ecall/ocall runtime: untrusted prologue, `EENTER`,
//!   trusted dispatch, pointer boundary checks, per-mode buffer copies
//!   (including the byte-wise `memset` zeroing the paper dissects), `EEXIT`,
//!   and per-call statistics for Table 2.
//! * [`sync`] — the machine-model cost of `sgx_spin_lock`'s acquire and
//!   release.
//!
//! ## Example
//!
//! ```
//! use sgx_sim::{Machine, SimConfig, EnclaveBuildOptions};
//! use sgx_sdk::edl::parse_edl;
//! use sgx_sdk::{BufArg, EnclaveCtx, MarshalOptions};
//!
//! # fn main() -> Result<(), sgx_sdk::SdkError> {
//! let mut m = Machine::new(SimConfig::default());
//! let eid = m.build_enclave(EnclaveBuildOptions::default())?;
//! let edl = parse_edl(
//!     "enclave {
//!          trusted { public void ecall_sum([in, size=n] const uint8_t* v, size_t n); };
//!      };",
//! )?;
//! let mut ctx = EnclaveCtx::new(&mut m, eid, &edl, MarshalOptions::default())?;
//!
//! let buf = m.alloc_untrusted(2048, 64);
//! ctx.ecall(&mut m, "ecall_sum", &[BufArg::new(buf, 2048)], |_ctx, m, args| {
//!     // `args.bufs[0]` is the staged secure copy; do trusted work here.
//!     m.read(args.bufs[0], 2048)?;
//!     Ok(())
//! })?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytes;
mod calls;
pub mod edger8r;
pub mod edl;
mod error;
pub mod marshal;
pub mod memops;
mod stats;
pub mod sync;

pub use calls::{BufArg, CallArgs, EnclaveCtx, MarshalOptions};
pub use error::{Result, SdkError};
pub use stats::{CallStat, CallStats};
