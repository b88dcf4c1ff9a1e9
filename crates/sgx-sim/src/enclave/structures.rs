//! SGX enclave management structures: SECS, TCS and the lifecycle state.

use crate::mem::Addr;

/// Lifecycle state of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveState {
    /// Created; pages may still be added. Cannot be entered.
    Building,
    /// EINIT has run; pages can no longer be added.
    Initialized,
}

impl EnclaveState {
    /// Human-readable name used in error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EnclaveState::Building => "building",
            EnclaveState::Initialized => "initialized",
        }
    }
}

/// The SGX Enclave Control Structure.
#[derive(Debug, Clone)]
pub(crate) struct Secs {
    /// Address of the SECS page itself (inside the EPC).
    pub(crate) addr: Addr,
    /// Base of the enclave's committed range.
    pub(crate) base: Addr,
}

/// One Thread Control Structure and its associated save area / stack.
#[derive(Debug, Clone)]
pub struct Tcs {
    /// Address of the TCS page.
    pub(crate) addr: Addr,
    /// Base of the State Save Area frames for this thread.
    pub(crate) ssa: Addr,
    /// Base of the trusted stack for this thread.
    pub(crate) stack: Addr,
    /// Is a logical processor currently executing on this TCS?
    pub busy: bool,
    /// Is there a preserved SSA frame (set by AEX, consumed by ERESUME)?
    pub(crate) interrupted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names() {
        assert_eq!(EnclaveState::Building.name(), "building");
        assert_eq!(EnclaveState::Initialized.name(), "initialized");
    }
}
