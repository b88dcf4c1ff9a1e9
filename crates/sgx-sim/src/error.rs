//! Error types for the SGX simulator.

use core::fmt;

use crate::mem::Addr;

/// Errors returned by simulated SGX leaf functions and memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SgxError {
    /// The referenced enclave id does not exist.
    NoSuchEnclave(u64),
    /// The enclave is not in the state required for the operation (e.g.
    /// `EADD` after `EINIT`, or `EENTER` before `EINIT`).
    InvalidState {
        /// Operation that was attempted.
        op: &'static str,
        /// Human-readable state description.
        state: &'static str,
    },
    /// All Thread Control Structures of the enclave are in use.
    TcsBusy,
    /// The requested TCS index does not exist.
    NoSuchTcs(usize),
    /// The EPC is exhausted and no page could be evicted.
    EpcExhausted,
    /// The enclave's virtual range is exhausted.
    EnclaveRangeExhausted,
    /// An address was expected to fall inside enclave memory but does not.
    NotEnclaveMemory(Addr),
    /// An address was expected to fall outside enclave memory but does not.
    NotUntrustedMemory(Addr),
    /// A swapped-out EPC page failed its MAC check on reload (ELDU).
    PageMacMismatch,
    /// Entering an enclave that is already executing on this TCS.
    AlreadyEntered,
    /// Exiting an enclave that is not currently executing.
    NotEntered,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::NoSuchEnclave(id) => write!(f, "no enclave with id {id}"),
            SgxError::InvalidState { op, state } => {
                write!(f, "{op} not permitted while enclave is {state}")
            }
            SgxError::TcsBusy => write!(f, "all thread control structures are busy"),
            SgxError::NoSuchTcs(i) => write!(f, "no TCS at index {i}"),
            SgxError::EpcExhausted => write!(f, "enclave page cache exhausted"),
            SgxError::EnclaveRangeExhausted => write!(f, "enclave virtual range exhausted"),
            SgxError::NotEnclaveMemory(a) => {
                write!(f, "address {a} is not inside enclave memory")
            }
            SgxError::NotUntrustedMemory(a) => {
                write!(f, "address {a} is not outside enclave memory")
            }
            SgxError::PageMacMismatch => write!(f, "swapped EPC page failed its MAC check"),
            SgxError::AlreadyEntered => write!(f, "enclave already entered on this TCS"),
            SgxError::NotEntered => write!(f, "enclave is not currently entered"),
        }
    }
}

impl std::error::Error for SgxError {}

/// Convenience alias for simulator results.
pub(crate) type Result<T> = core::result::Result<T, SgxError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errs: Vec<SgxError> = vec![
            SgxError::NoSuchEnclave(3),
            SgxError::TcsBusy,
            SgxError::EpcExhausted,
            SgxError::PageMacMismatch,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SgxError>();
    }
}
