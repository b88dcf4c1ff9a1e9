//! # sgx-sim — a cycle-cost simulator of Intel SGX hardware
//!
//! This crate is the hardware substrate of the HotCalls reproduction
//! (Weisse, Bertacco, Austin — *"Regaining Lost Cycles with HotCalls"*,
//! ISCA 2017). Real SGX silicon is unavailable in this environment, so the
//! crate models the *mechanisms* the paper's measurements hinge on:
//!
//! * a Skylake-like **cache hierarchy** (L1D/L2/8 MB LLC) with LRU tag
//!   state, `clflush`, and whole-hierarchy flushes for cold-cache
//!   experiments ([`cache`]);
//! * the **Memory Encryption Engine**: an 8-ary counter/integrity tree over
//!   the EPC plus a small internal node cache whose capacity produces the
//!   footprint-dependent encrypted-read overhead of the paper's Fig. 6
//!   ([`mee`]);
//! * the **Enclave Page Cache** with EWB/ELDU paging and MACed, versioned
//!   swap images — the libquantum cliff of Fig. 8 ([`epc`]);
//! * the **enclave lifecycle** (ECREATE/EADD/EEXTEND/EINIT, measurements,
//!   TCS management) and the EENTER/EEXIT/ERESUME/AEX transitions whose
//!   warm/cold costs reproduce Table 1 rows 1-5 ([`enclave`], [`Machine`]);
//! * **local attestation** reports ([`attest`]).
//!
//! Everything runs in *virtual cycles* on a 4 GHz virtual core; no wall
//! clock is involved, so results are deterministic under a fixed seed.
//!
//! ## Quick start
//!
//! ```
//! use sgx_sim::{Machine, SimConfig, EnclaveBuildOptions};
//!
//! # fn main() -> Result<(), sgx_sim::SgxError> {
//! let mut machine = Machine::new(SimConfig::default());
//! let enclave = machine.build_enclave(EnclaveBuildOptions::default())?;
//!
//! // Time one enclave round trip the way the paper does.
//! let measured = machine.measure(|m| {
//!     m.eenter(enclave, 0)?;
//!     m.eexit(enclave, 0)?;
//!     Ok(())
//! })?;
//! assert!(measured.cycles.get() > 1_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attest;
pub mod cache;
mod config;
pub mod crypto;
mod cycles;
pub mod enclave;
pub mod epc;
mod error;
pub mod eventloop;
mod machine;
pub mod mee;
pub mod mem;
#[cfg(test)]
mod reference;
pub mod seal;
pub mod tlb;
pub mod topology;

pub use attest::{Report, REPORT_DATA_LEN};
pub use config::{
    CacheGeometry, EntryConfig, MeeConfig, NoiseConfig, PagingConfig, SdkCostConfig, SimConfig,
    SimConfigBuilder,
};
pub use cycles::{Clock, CycleFeed, CycleLedger, Cycles};
pub use enclave::{Enclave, EnclaveId, EnclaveState, Measurement, PageType};
pub use epc::EpcStats;
pub use error::{Result, SgxError};
pub use eventloop::{VirtualEpoll, VirtualEvent};
pub use machine::{AccessKind, EnclaveBuildOptions, Machine, Measured, Telemetry};
pub use mem::Addr;
pub use seal::{SealError, SealPolicy, SealedBlob};
pub use topology::{Placement, Topology, TransferCosts};
