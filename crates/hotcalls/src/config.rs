//! HotCalls tuning knobs.

use serde::{Deserialize, Serialize};

/// Break-even occupancy of the fused path: a synchronous `call` on a
/// plane whose responders all doze runs inline only while the ring holds
/// fewer than this many in-flight submissions. Deeper backlogs mean
/// pipelining through the pool wins.
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
    /// On a ring plane this also decides the fused path: once every
    /// active responder dozes, a synchronous `call` runs its handler
    /// inline on the requester's thread — no slot, no wake, no cross-core
    /// transfer — so a dozing plane costs its caller neither a wake nor a
    /// second CPU. A plane built with `None` never dozes and never fuses.
    pub idle_polls_before_sleep: Option<u64>,
    /// Maximum submitted ring slots a responder claims per tail advance
    /// (batched drain, at least 1). Larger batches amortize the tail CAS
    /// and the wake/schedule cost under bursty load; `1` reproduces the
    /// original one-at-a-time drain.
    pub drain_batch: u32,
}

impl Default for HotCallConfig {
    fn default() -> Self {
        HotCallConfig {
            timeout_retries: 10,
            spins_per_retry: 16,
            idle_polls_before_sleep: None,
            drain_batch: 8,
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

    /// The zero-config configuration: a patient retry budget and
    /// responders that doze after 256 empty polls, so a ring plane runs
    /// synchronous calls inline whenever its pool has dozed off. A `ctl`
    /// controller, where one is attached, tunes the rest online.
    pub fn auto() -> Self {
        HotCallConfig {
            idle_polls_before_sleep: Some(256),
            ..Self::patient()
        }
    }

    /// Rejects contradictory knob combinations before a plane is built on
    /// them. Called at plane construction, so a controller mutating knobs
    /// online can never hand the data plane a config that silently
    /// misbehaves.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when the retry, spin or
    /// drain budget is zero (the availability handshake would never be
    /// attempted, or a responder would never claim a slot), or when
    /// idle-sleep is enabled with a zero poll budget (responders would
    /// sleep before ever polling).
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
        if self.drain_batch == 0 {
            return Err(InvalidConfig(
                "drain_batch must be positive: a zero batch never claims a slot",
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

/// Sizing policy for a plane's responder pool (the configless-worker idea
/// applied to the paper's "On Call" threads). The plane spawns `max`
/// responder threads on its one ring, of which between `min` and `max`
/// are *active* at any moment. Requesters raise the active target when
/// the ring backs up; the top active responder demotes itself and parks
/// after a long useful-work drought. Parked responders cost nothing —
/// per-call wakeups never reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponderPolicy {
    /// Responders that are never parked (at least 1).
    pub min: usize,
    /// Total responder threads spawned (the scale-up ceiling).
    pub max: usize,
}

impl ResponderPolicy {
    /// A static pool of exactly `n` always-active responders (the governor
    /// is disabled; this reproduces the old `spawn_pool` behaviour).
    pub fn fixed(n: usize) -> Self {
        ResponderPolicy { min: n, max: n }
    }

    /// An elastic pool between `min` and `max` active responders.
    pub fn elastic(min: usize, max: usize) -> Self {
        ResponderPolicy { min, max }
    }

    /// The zero-config pool: elastic between one responder and the host's
    /// available parallelism, leaving the active target to the governor
    /// and the `ctl` sizer.
    pub fn auto() -> Self {
        let max = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::elastic(1, max.max(1))
    }

    /// Rejects contradictory pool bounds before threads are spawned on
    /// them.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when `min` is zero (the pool
    /// would keep no thread alive) or `max < min` (an empty active range).
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::HotCallError::InvalidConfig;
        if self.min == 0 {
            return Err(InvalidConfig(
                "responder pool must keep at least one active thread",
            ));
        }
        if self.max < self.min {
            return Err(InvalidConfig("responder policy max must be at least min"));
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
        assert!(c.drain_batch >= 1);
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
                drain_batch: 0,
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

    #[test]
    fn validate_rejects_contradictory_policies() {
        assert!(ResponderPolicy::fixed(4).validate().is_ok());
        assert!(ResponderPolicy::elastic(1, 4).validate().is_ok());
        assert!(ResponderPolicy::auto().validate().is_ok());
        assert!(ResponderPolicy::auto().max >= 1);
        assert!(ResponderPolicy::fixed(0).validate().is_err());
        assert!(ResponderPolicy::elastic(0, 2).validate().is_err());
        assert!(ResponderPolicy::elastic(3, 2).validate().is_err());
    }
}
