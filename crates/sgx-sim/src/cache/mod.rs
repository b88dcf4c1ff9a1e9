//! Simulated cache hierarchy.
//!
//! [`SetAssocCache`] is a single LRU tag store; `Hierarchy` composes three
//! of them into the Skylake-like L1D/L2/LLC stack the paper's machine had.

mod hierarchy;
mod set_assoc;

pub(crate) use hierarchy::{Hierarchy, ServedBy};
pub use set_assoc::SetAssocCache;
