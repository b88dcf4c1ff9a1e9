//! HotCalls tuning knobs.

use serde::{Deserialize, Serialize};

/// Break-even occupancy of the fused path: a synchronous `call` on a
/// plane whose responder dozes runs inline only while the ring holds
/// fewer than this many in-flight submissions. Deeper backlogs mean
/// pipelining through the ring wins.
pub(crate) const FUSED_BELOW_OCCUPANCY: usize = 2;

/// Configuration shared by the simulated and threaded HotCalls variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotCallConfig {
    /// Maximum attempts to find the responder available before falling back
    /// to a regular SDK call. The paper sets this to 10 and reports it
    /// "never expired" in their experiments, while calling the mechanism
    /// "vital for producing reliable code".
    pub timeout_retries: u32,
    /// Spin iterations between availability checks (each ends in a `PAUSE`).
    pub spins_per_retry: u32,
    /// Consecutive empty polls after which the responder sets its `sleep`
    /// flag and blocks on a condition variable to conserve CPU (§4.2,
    /// "Conserving resources at idle times"). `None` polls forever.
    ///
    /// On a ring plane this also decides the fused path: once the
    /// responder dozes, a synchronous `call` runs its handler
    /// inline on the requester's thread — no slot, no wake, no cross-core
    /// transfer — so a dozing plane costs its caller neither a wake nor a
    /// second CPU. A plane built with `None` never dozes and never fuses.
    pub idle_polls_before_sleep: Option<u64>,
}

impl Default for HotCallConfig {
    fn default() -> Self {
        HotCallConfig {
            timeout_retries: 10,
            spins_per_retry: 16,
            idle_polls_before_sleep: None,
        }
    }
}

impl HotCallConfig {
    /// A configuration with the idle-sleep optimization enabled.
    pub fn with_idle_sleep(polls: u64) -> Self {
        HotCallConfig {
            idle_polls_before_sleep: Some(polls),
            ..Self::default()
        }
    }

    /// A configuration with a generous retry budget, for callers that
    /// prefer waiting over the timeout fallback (tests, benchmarks,
    /// saturated pools).
    pub fn patient() -> Self {
        HotCallConfig {
            timeout_retries: 1_000_000,
            spins_per_retry: 64,
            ..Self::default()
        }
    }

    /// The zero-config configuration: a patient retry budget and a
    /// responder that dozes after 256 empty polls, so a ring plane runs
    /// synchronous calls inline whenever its responder has dozed off. A `ctl`
    /// router, where one is attached, picks each API's transport online.
    pub fn auto() -> Self {
        HotCallConfig {
            idle_polls_before_sleep: Some(256),
            ..Self::patient()
        }
    }

    /// Rejects contradictory knob combinations before a plane is built on
    /// them. Called at plane construction, so the data plane never runs
    /// on a config that silently misbehaves.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when the retry or spin
    /// budget is zero (the availability handshake would never be
    /// attempted), or when idle-sleep is enabled with a zero poll budget
    /// (responders would sleep before ever polling).
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::HotCallError::InvalidConfig;
        if self.timeout_retries == 0 {
            return Err(InvalidConfig(
                "timeout_retries must be positive: zero retries never attempts the call",
            ));
        }
        if self.spins_per_retry == 0 {
            return Err(InvalidConfig(
                "spins_per_retry must be positive: zero spins never checks availability",
            ));
        }
        if self.idle_polls_before_sleep == Some(0) {
            return Err(InvalidConfig(
                "idle_polls_before_sleep of zero would sleep responders before they poll once",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = HotCallConfig::default();
        assert_eq!(c.timeout_retries, 10);
        assert!(c.idle_polls_before_sleep.is_none());
    }

    #[test]
    fn validate_rejects_contradictory_configs() {
        assert!(HotCallConfig::default().validate().is_ok());
        assert!(HotCallConfig::auto().validate().is_ok());
        for bad in [
            HotCallConfig {
                timeout_retries: 0,
                ..HotCallConfig::default()
            },
            HotCallConfig {
                spins_per_retry: 0,
                ..HotCallConfig::default()
            },
            HotCallConfig {
                idle_polls_before_sleep: Some(0),
                ..HotCallConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
