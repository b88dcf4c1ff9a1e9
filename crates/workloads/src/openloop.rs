//! Open-loop load generation: Poisson arrivals at a configured offered
//! rate, never gated on completions.
//!
//! Closed-loop drivers (issue → wait → issue) hide queueing collapse: when
//! the server slows down, the *offered* load drops with it, so tail
//! latency looks flat right up to the cliff. An open-loop generator keeps
//! arriving at the offered rate regardless of how the system is coping —
//! the methodology the SGX benchmarking literature prescribes for tail
//! studies. Latency is measured from the *scheduled* arrival instant (the
//! coordinated-omission correction), not from when an overloaded loop got
//! around to issuing.
//!
//! Arrival schedules are seeded and fully deterministic: the same
//! [`OpenLoopPlan`] yields the same arrival instants on every host.

/// The xorshift64* step — a tiny seedable generator, private to each
/// iterator so streams never interleave.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A seeded open-loop arrival schedule: `events` Poisson arrivals at
/// `rate_hz`, to be multiplexed over `conns` logical connections.
///
/// # Examples
///
/// ```
/// use workloads::openloop::OpenLoopPlan;
///
/// let plan = OpenLoopPlan::new(0xfeed, 100_000.0, 1_000, 100_000);
/// let arrivals: Vec<u64> = plan.arrivals().collect();
/// assert_eq!(arrivals.len(), 1_000);
/// // Deterministic: the same plan yields the same schedule.
/// assert_eq!(arrivals, plan.arrivals().collect::<Vec<u64>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopPlan {
    /// RNG seed for the exponential inter-arrival draws.
    pub seed: u64,
    /// Offered arrival rate, events per second.
    pub rate_hz: f64,
    /// Total arrivals in the schedule.
    pub events: usize,
    /// Logical connections the arrivals round-robin over (event `i`
    /// belongs to connection `i % conns`).
    pub conns: usize,
}

impl OpenLoopPlan {
    /// A plan with the given seed, offered rate, length and connection
    /// count.
    pub fn new(seed: u64, rate_hz: f64, events: usize, conns: usize) -> Self {
        OpenLoopPlan {
            seed,
            rate_hz,
            events,
            conns,
        }
    }

    /// The arrival instants in nanoseconds from the start of the run,
    /// strictly in schedule order.
    pub fn arrivals(&self) -> PoissonArrivals {
        PoissonArrivals {
            // seed|1: xorshift64* has a zero fixed point.
            state: self.seed | 1,
            mean_gap_ns: 1e9 / self.rate_hz,
            remaining: self.events,
            next_ns: 0.0,
        }
    }

    /// The connection an event index maps to.
    #[inline]
    pub fn conn_of(&self, event: usize) -> u64 {
        (event % self.conns.max(1)) as u64
    }
}

/// Iterator over a plan's arrival instants (nanoseconds): exponential
/// inter-arrival gaps, i.e. a homogeneous Poisson process at `rate_hz`.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    state: u64,
    mean_gap_ns: f64,
    remaining: usize,
    next_ns: f64,
}

impl Iterator for PoissonArrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let at = self.next_ns as u64;
        // Inverse-CDF draw: gap = -ln(U) * mean, with U in (0, 1]. The
        // 53-bit mantissa path keeps the draw identical across hosts.
        let u = ((xorshift(&mut self.state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        self.next_ns += -u.ln() * self.mean_gap_ns;
        Some(at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PoissonArrivals {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_monotone() {
        let plan = OpenLoopPlan::new(0xbeef, 1_000_000.0, 10_000, 128);
        let a: Vec<u64> = plan.arrivals().collect();
        let b: Vec<u64> = plan.arrivals().collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert_eq!(a[0], 0, "the first arrival opens the run");
    }

    #[test]
    fn mean_gap_tracks_offered_rate() {
        // 1M events at 1 MHz should span ~1 second of schedule.
        let plan = OpenLoopPlan::new(7, 1_000_000.0, 1_000_000, 1);
        let last = plan.arrivals().last().unwrap();
        let secs = last as f64 / 1e9;
        assert!(
            (secs - 1.0).abs() < 0.05,
            "1M arrivals at 1 MHz spanned {secs:.3}s"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = OpenLoopPlan::new(1, 1e6, 100, 1).arrivals().collect();
        let b: Vec<u64> = OpenLoopPlan::new(2, 1e6, 100, 1).arrivals().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn conn_mapping_round_robins() {
        let plan = OpenLoopPlan::new(3, 1e6, 10, 4);
        assert_eq!(plan.conn_of(0), 0);
        assert_eq!(plan.conn_of(5), 1);
        assert_eq!(plan.conn_of(7), 3);
    }

    #[test]
    fn exact_size_iterator_reports_remaining() {
        let mut it = OpenLoopPlan::new(5, 1e6, 3, 1).arrivals();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
    }
}
