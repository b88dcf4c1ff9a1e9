//! Error types for the HotCalls interfaces.

use core::fmt;

/// Errors surfaced by HotCalls (both the simulated and threaded variants).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HotCallError {
    /// The responder stayed busy beyond the configured retry budget.
    ///
    /// The paper's starvation mitigation (§4.2): "the requester can set a
    /// timeout … If the timeout expires, the requester can fall back to
    /// using regular SDK calls."
    ResponderTimeout {
        /// Retries attempted before giving up.
        retries: u32,
    },
    /// The responder thread has shut down (threaded runtime only).
    ResponderGone,
    /// No function is registered at the requested call id.
    UnknownCallId(u32),
    /// A constructor was given an unusable parameter (zero ring capacity,
    /// a responder count other than one, a config
    /// [`crate::HotCallConfig::validate`] rejects).
    InvalidConfig(&'static str),
    /// The underlying SDK layer failed (simulated variant only).
    Sdk(sgx_sdk::SdkError),
}

impl fmt::Display for HotCallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotCallError::ResponderTimeout { retries } => {
                write!(f, "responder still busy after {retries} retries")
            }
            HotCallError::ResponderGone => write!(f, "responder thread has shut down"),
            HotCallError::UnknownCallId(id) => write!(f, "no call registered with id {id}"),
            HotCallError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            HotCallError::Sdk(e) => write!(f, "sdk: {e}"),
        }
    }
}

impl std::error::Error for HotCallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HotCallError::Sdk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sgx_sdk::SdkError> for HotCallError {
    fn from(e: sgx_sdk::SdkError) -> Self {
        HotCallError::Sdk(e)
    }
}

impl From<sgx_sim::SgxError> for HotCallError {
    fn from(e: sgx_sim::SgxError) -> Self {
        HotCallError::Sdk(sgx_sdk::SdkError::Sgx(e))
    }
}

/// Convenience alias for HotCalls results.
pub type Result<T> = core::result::Result<T, HotCallError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        assert!(HotCallError::ResponderTimeout { retries: 10 }
            .to_string()
            .contains("10"));
        assert!(HotCallError::UnknownCallId(3).to_string().contains('3'));
    }
}
