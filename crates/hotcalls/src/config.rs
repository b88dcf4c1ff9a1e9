//! HotCalls tuning knobs.

use serde::{Deserialize, Serialize};

/// When a requester may run a handler inline (run-to-completion) instead
/// of publishing the call to the responder pool.
///
/// The fused path skips the slot-publish handoff, the doze wake, and the
/// cross-core cache-line transfer entirely — the requester's core executes
/// the handler and keeps the data hot. That wins exactly when no second
/// core is already spinning on the ring; the moment responders are active,
/// handing off and pipelining wins instead. `Auto` makes that break-even
/// decision per call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusedMode {
    /// Never fuse: every call goes through the responder pool (the
    /// pre-fused behaviour; the default).
    #[default]
    Off,
    /// Fuse synchronous `call`s when the home responder set is quiescent
    /// (parked or dozing) and the ring holds fewer than two in-flight
    /// submissions; fall back to the pooled path the moment responders
    /// are active. Pipelined `submit`s never fuse under `Auto` — the
    /// caller chose the pipelined API to overlap work, which inline
    /// execution would forfeit.
    Auto,
    /// Always attempt the fused path (benchmarks and the zero-alloc gate;
    /// `submit` still falls back when it loses the service race).
    Always,
}

/// Break-even occupancy for [`FusedMode::Auto`]: the fused path is only
/// considered while the (home) ring holds fewer than this many in-flight
/// submissions. Deeper backlogs mean pipelining through the pool wins.
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
    pub idle_polls_before_sleep: Option<u64>,
    /// Maximum submitted ring slots a responder claims per tail advance
    /// (batched drain, at least 1). Larger batches amortize the tail CAS
    /// and the wake/schedule cost under bursty load; `1` reproduces the
    /// original one-at-a-time drain.
    pub drain_batch: u32,
    /// When the requester may execute handlers inline instead of handing
    /// them to the responder pool. See [`FusedMode`].
    pub fused_mode: FusedMode,
}

impl Default for HotCallConfig {
    fn default() -> Self {
        HotCallConfig {
            timeout_retries: 10,
            spins_per_retry: 16,
            idle_polls_before_sleep: None,
            drain_batch: 8,
            fused_mode: FusedMode::Off,
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

    /// The zero-config configuration the control plane starts from: a
    /// patient retry budget, idle-sleeping responders, and the fused
    /// break-even left to [`FusedMode::Auto`]. The `ctl` controller then
    /// tunes the rest online.
    pub fn auto() -> Self {
        HotCallConfig {
            idle_polls_before_sleep: Some(256),
            fused_mode: FusedMode::Auto,
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
/// applied to the paper's "On Call" threads) — the one governor policy of
/// every plane shape. The plane spawns `max` responder threads, of which
/// between `min` and `max` are *active* at any moment. Requesters raise
/// the active target when a ring backs up; the top active responder
/// demotes itself and parks after a long useful-work drought. Parked
/// responders cost nothing — per-call wakeups never reach them. On the
/// sharded shape every responder homes on its own shard, so the unit of
/// elasticity is a whole shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponderPolicy {
    /// Responders that are never parked (at least 1).
    pub min: usize,
    /// Total responder threads spawned (the scale-up ceiling); on the
    /// sharded shape also the shard count.
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
        // The fused path is strictly opt-in.
        assert_eq!(c.fused_mode, FusedMode::Off);
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
