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
    /// (parked or dozing) and the ring occupancy is below
    /// [`HotCallConfig::fused_below_occupancy`]; fall back to the pooled
    /// path the moment responders are active. Pipelined `submit`s never
    /// fuse under `Auto` — the caller chose the pipelined API to overlap
    /// work, which inline execution would forfeit.
    Auto,
    /// Always attempt the fused path (benchmarks and the zero-alloc gate;
    /// `submit` still falls back when it loses the service race).
    Always,
}

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
    /// (batched drain). Larger batches amortize the tail CAS and the
    /// wake/schedule cost under bursty load; `1` reproduces the original
    /// one-at-a-time drain. Zero is treated as `1`.
    pub drain_batch: u32,
    /// When the requester may execute handlers inline instead of handing
    /// them to the responder pool. See [`FusedMode`].
    pub fused_mode: FusedMode,
    /// Break-even occupancy for [`FusedMode::Auto`]: the fused path is
    /// only considered while the (home) ring holds fewer than this many
    /// in-flight submissions. Deeper backlogs mean pipelining through the
    /// pool wins. Zero disables auto-fusing outright.
    pub fused_below_occupancy: usize,
}

impl Default for HotCallConfig {
    fn default() -> Self {
        HotCallConfig {
            timeout_retries: 10,
            spins_per_retry: 16,
            idle_polls_before_sleep: None,
            drain_batch: 8,
            fused_mode: FusedMode::Off,
            fused_below_occupancy: 2,
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

    /// A configuration with the fused run-to-completion path enabled in
    /// the given mode (otherwise [`Self::patient`]).
    pub fn fused(mode: FusedMode) -> Self {
        HotCallConfig {
            fused_mode: mode,
            ..Self::patient()
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

    /// The effective drain batch (zero-proofed).
    pub(crate) fn drain_batch_clamped(&self) -> usize {
        self.drain_batch.max(1) as usize
    }

    /// Rejects contradictory knob combinations before a plane is built on
    /// them. Called at plane construction, so a controller mutating knobs
    /// online can never hand the data plane a config that silently
    /// misbehaves.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when the retry or spin
    /// budget is zero (the availability handshake would never be
    /// attempted), when idle-sleep is enabled with a zero poll budget
    /// (responders would sleep before ever polling), or when a fused mode
    /// is enabled with `fused_below_occupancy == 0` (auto-fusing would be
    /// requested and simultaneously disabled).
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
        if self.fused_mode != FusedMode::Off && self.fused_below_occupancy == 0 {
            return Err(InvalidConfig(
                "a fused mode with fused_below_occupancy of zero both requests and forbids fusing",
            ));
        }
        Ok(())
    }
}

/// Sizing policy for an adaptive responder pool (the configless-worker
/// idea applied to the paper's "On Call" threads): instead of a fixed
/// `n_responders`, the pool holds `max` threads of which between `min` and
/// `max` are *active* at any moment. Requesters raise the active target
/// when the ring backs up; the top active responder demotes itself and
/// parks after a long useful-work drought. Parked responders cost nothing
/// — per-call wakeups never reach them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponderPolicy {
    /// Responders that are never parked (at least 1).
    pub min: usize,
    /// Total responder threads spawned (the scale-up ceiling).
    pub max: usize,
    /// Queued-submission count above which a requester raises the active
    /// target (at least 1). The paper's responder has no queue; this is
    /// the ring generalization: backlog deeper than this means the active
    /// responders are not keeping up.
    pub target_occupancy: usize,
    /// Consecutive polls without useful work after which the top active
    /// responder demotes itself and parks. Counted across idle-doze
    /// wakeups, so a responder that is woken per-call but never wins work
    /// (the oversubscription churn) still accumulates toward parking.
    pub park_after_idle_polls: u64,
}

impl Default for ResponderPolicy {
    fn default() -> Self {
        ResponderPolicy {
            min: 1,
            max: 2,
            target_occupancy: 2,
            park_after_idle_polls: 2_048,
        }
    }
}

impl ResponderPolicy {
    /// A static pool of exactly `n` always-active responders (the governor
    /// is disabled; this reproduces the old `spawn_pool` behaviour).
    pub fn fixed(n: usize) -> Self {
        ResponderPolicy {
            min: n,
            max: n,
            ..Self::default()
        }
    }

    /// An elastic pool between `min` and `max` active responders.
    pub fn elastic(min: usize, max: usize) -> Self {
        ResponderPolicy {
            min,
            max,
            ..Self::default()
        }
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

    /// Does this policy ever park a responder?
    pub fn is_adaptive(&self) -> bool {
        self.max > self.min
    }

    /// The effective backlog threshold (zero-proofed).
    pub(crate) fn target_occupancy_clamped(&self) -> usize {
        self.target_occupancy.max(1)
    }

    /// Rejects contradictory pool bounds before threads are spawned on
    /// them.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when `min` is zero (the pool
    /// would keep no thread alive), `max < min` (an empty active range),
    /// or an adaptive policy would park after zero idle polls (the top
    /// responder would demote itself on every empty poll).
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
        if self.is_adaptive() && self.park_after_idle_polls == 0 {
            return Err(InvalidConfig(
                "an adaptive responder policy must allow at least one idle poll before parking",
            ));
        }
        Ok(())
    }
}

/// Sizing policy for a sharded data plane: N independent rings, each with
/// its own responder, requesters pinned to a home shard by the router.
/// Like [`ResponderPolicy`] but the unit of elasticity is a whole shard —
/// parking a shard stops the router from assigning new requesters to it
/// and leaves its residual submissions to the stealing responders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPolicy {
    /// Number of shards (= responder threads). `0` means "auto": resolve
    /// to the host's available parallelism at spawn time.
    pub shards: usize,
    /// Shards that are never parked (at least 1).
    pub min_active: usize,
    /// Per-shard queued-submission count above which a requester raises
    /// the active-shard target (at least 1).
    pub target_occupancy: usize,
    /// Consecutive polls without useful work after which the top active
    /// shard's responder demotes itself and parks the shard.
    pub park_after_idle_polls: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            shards: 0,
            min_active: 1,
            target_occupancy: 2,
            park_after_idle_polls: 2_048,
        }
    }
}

impl ShardPolicy {
    /// A static plane of exactly `n` always-active shards (the governor is
    /// disabled).
    pub fn fixed(n: usize) -> Self {
        ShardPolicy {
            shards: n,
            min_active: n,
            ..Self::default()
        }
    }

    /// An elastic plane of `shards` shards, between `min_active` and
    /// `shards` of them active.
    pub fn elastic(min_active: usize, shards: usize) -> Self {
        ShardPolicy {
            shards,
            min_active,
            ..Self::default()
        }
    }

    /// An elastic plane sized to the host: one shard per hardware thread,
    /// parking down to one when idle.
    pub fn auto() -> Self {
        ShardPolicy::default()
    }

    /// The shard count this policy resolves to (auto = available
    /// parallelism, never zero).
    pub fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Does this policy ever park a shard?
    pub fn is_adaptive(&self) -> bool {
        self.resolved_shards() > self.min_active
    }

    /// Rejects contradictory shard bounds before the plane is built on
    /// them.
    ///
    /// # Errors
    ///
    /// [`crate::HotCallError::InvalidConfig`] when `min_active` is zero,
    /// exceeds the resolved shard count, or an adaptive policy would park
    /// a shard after zero idle polls.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::HotCallError::InvalidConfig;
        if self.min_active == 0 {
            return Err(InvalidConfig(
                "a sharded plane must keep at least one active shard",
            ));
        }
        if self.min_active > self.resolved_shards() {
            return Err(InvalidConfig(
                "shard policy min_active must not exceed the shard count",
            ));
        }
        if self.is_adaptive() && self.park_after_idle_polls == 0 {
            return Err(InvalidConfig(
                "an adaptive shard policy must allow at least one idle poll before parking",
            ));
        }
        Ok(())
    }
}

// The stats snapshot structs historically lived here as ad-hoc counter
// bags; their canonical definitions moved into [`crate::telemetry`], the
// unified snapshot layer. These re-exports are kept as thin shims so the
// long-standing `hotcalls::{RingStats, ShardStats, …}` paths (and every
// existing test) keep working unchanged. Prefer importing from
// `hotcalls::telemetry` in new code.
pub use crate::telemetry::{GovernorStats, HotCallStats, RingStats, ShardStats};

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
        assert!(c.fused_below_occupancy >= 1);
    }

    #[test]
    fn fused_constructor_only_flips_the_mode() {
        let c = HotCallConfig::fused(FusedMode::Auto);
        assert_eq!(c.fused_mode, FusedMode::Auto);
        assert_eq!(c.timeout_retries, HotCallConfig::patient().timeout_retries);
    }

    #[test]
    fn drain_batch_zero_is_clamped() {
        let c = HotCallConfig {
            drain_batch: 0,
            ..HotCallConfig::default()
        };
        assert_eq!(c.drain_batch_clamped(), 1);
    }

    #[test]
    fn responder_policy_shapes() {
        assert!(!ResponderPolicy::fixed(4).is_adaptive());
        assert!(ResponderPolicy::elastic(1, 4).is_adaptive());
        let p = ResponderPolicy {
            target_occupancy: 0,
            ..ResponderPolicy::default()
        };
        assert_eq!(p.target_occupancy_clamped(), 1);
    }

    #[test]
    fn shard_policy_shapes() {
        assert!(!ShardPolicy::fixed(4).is_adaptive());
        assert!(ShardPolicy::elastic(1, 4).is_adaptive());
        assert_eq!(ShardPolicy::fixed(4).resolved_shards(), 4);
        // Auto resolves to the host's parallelism, never zero.
        assert!(ShardPolicy::auto().resolved_shards() >= 1);
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
            HotCallConfig {
                fused_mode: FusedMode::Auto,
                fused_below_occupancy: 0,
                ..HotCallConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        // fused_below_occupancy of zero is fine while fusing is off.
        assert!(HotCallConfig {
            fused_below_occupancy: 0,
            ..HotCallConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_rejects_contradictory_policies() {
        assert!(ResponderPolicy::default().validate().is_ok());
        assert!(ResponderPolicy::auto().validate().is_ok());
        assert!(ResponderPolicy::auto().max >= 1);
        assert!(ResponderPolicy::fixed(0).validate().is_err());
        assert!(ResponderPolicy::elastic(3, 2).validate().is_err());
        assert!(ResponderPolicy {
            park_after_idle_polls: 0,
            ..ResponderPolicy::elastic(1, 4)
        }
        .validate()
        .is_err());
        // A fixed pool never parks, so a zero park budget is harmless.
        assert!(ResponderPolicy {
            park_after_idle_polls: 0,
            ..ResponderPolicy::fixed(2)
        }
        .validate()
        .is_ok());

        assert!(ShardPolicy::auto().validate().is_ok());
        assert!(ShardPolicy {
            min_active: 0,
            ..ShardPolicy::fixed(2)
        }
        .validate()
        .is_err());
        assert!(ShardPolicy {
            min_active: 5,
            ..ShardPolicy::fixed(4)
        }
        .validate()
        .is_err());
        assert!(ShardPolicy {
            park_after_idle_polls: 0,
            ..ShardPolicy::elastic(1, 4)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn ring_stats_aggregates_over_shards() {
        let stats = RingStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    steals: 3,
                    steal_hits: 1,
                    cross_shard_wakes: 2,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    steals: 4,
                    steal_hits: 2,
                    ..ShardStats::default()
                },
            ],
            ..RingStats::default()
        };
        assert_eq!(stats.steals(), 7);
        assert_eq!(stats.steal_hits(), 3);
        assert_eq!(stats.cross_shard_wakes(), 2);
    }

    #[test]
    fn utilization_bounds() {
        let mut s = HotCallStats::default();
        assert_eq!(s.utilization(), 0.0);
        s.busy_polls = 25;
        s.idle_polls = 75;
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }
}
