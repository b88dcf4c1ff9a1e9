//! Virtual-time bookkeeping.
//!
//! All costs in the simulator are expressed in [`Cycles`] of a fixed-frequency
//! virtual core (4 GHz by default, matching the i7-6700k used by the paper).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A count of virtual clock cycles.
///
/// `Cycles` is a transparent newtype over `u64` providing saturating-free,
/// checked-in-debug arithmetic. It is the unit in which every simulated
/// operation reports its cost.
///
/// # Examples
///
/// ```
/// use sgx_sim::Cycles;
///
/// let a = Cycles::new(100);
/// let b = Cycles::new(20);
/// assert_eq!((a + b).get(), 120);
/// assert_eq!((a - b).get(), 80);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts to nanoseconds at the given core frequency in GHz.
    ///
    /// ```
    /// use sgx_sim::Cycles;
    /// assert_eq!(Cycles::new(4_000).as_nanos(4.0), 1_000.0);
    /// ```
    #[inline]
    pub fn as_nanos(self, ghz: f64) -> f64 {
        self.0 as f64 / ghz
    }

    /// Converts to seconds at the given core frequency in GHz.
    #[inline]
    pub fn as_secs(self, ghz: f64) -> f64 {
        self.0 as f64 / (ghz * 1e9)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Self {
        Cycles(n)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

/// A monotonically increasing virtual clock.
///
/// The clock only moves forward via [`Clock::advance`]; reading it is free
/// (the cost of the `RDTSCP` instruction itself is charged by the CPU model,
/// not by the clock).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Clock {
    now: Cycles,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advances virtual time by `delta`.
    #[inline]
    pub fn advance(&mut self, delta: Cycles) {
        self.now += delta;
    }
}

/// Named accounts of where virtual cycles went.
///
/// The cost model reports everything as one [`Cycles`] total; the ledger
/// splits that total into labelled accounts ("ecall-crossing",
/// "enclave-compute", "epc-paging", ...) so a telemetry snapshot can say
/// *which* part of the simulated machine burned the time. Accounts are
/// ordered (BTreeMap) so serialized ledgers are deterministic, and ledgers
/// merge by account name so per-worker ledgers roll up like histograms.
///
/// # Examples
///
/// ```
/// use sgx_sim::{CycleLedger, Cycles};
///
/// let mut ledger = CycleLedger::new();
/// ledger.credit("ecall-crossing", Cycles::new(8_000));
/// ledger.credit("enclave-compute", Cycles::new(1_000));
/// ledger.credit("ecall-crossing", Cycles::new(8_000));
/// assert_eq!(ledger.get("ecall-crossing"), Cycles::new(16_000));
/// assert_eq!(ledger.total(), Cycles::new(17_000));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleLedger {
    accounts: std::collections::BTreeMap<String, Cycles>,
}

impl CycleLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the named account, creating it at zero first.
    pub fn credit(&mut self, account: &str, amount: Cycles) {
        // The name is copied only the first time an account is seen.
        match self.accounts.get_mut(account) {
            Some(balance) => *balance += amount,
            None => drop(self.accounts.insert(account.to_string(), amount)),
        }
    }

    /// The balance of one account (zero if it was never credited).
    pub fn get(&self, account: &str) -> Cycles {
        self.accounts.get(account).copied().unwrap_or(Cycles::ZERO)
    }

    /// All accounts in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, Cycles)> {
        self.accounts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sum over every account.
    pub fn total(&self) -> Cycles {
        self.accounts.values().copied().sum()
    }

    /// Adds every account of `other` into `self` by name.
    pub fn merge(&mut self, other: &CycleLedger) {
        for (name, cycles) in other.entries() {
            self.credit(name, cycles);
        }
    }
}

/// Window-delta tracker over a virtual clock: the cycle feed a control
/// loop samples between decisions.
///
/// A controller that acts every N calls needs "cycles spent since my last
/// look", not absolute time. `CycleFeed` remembers the clock reading of
/// the previous sample and returns the delta, monotone-proofed (a clock
/// that was swapped or reset yields zero rather than a huge bogus
/// window).
///
/// # Examples
///
/// ```
/// use sgx_sim::{CycleFeed, Cycles};
///
/// let mut feed = CycleFeed::new(Cycles::new(1_000));
/// assert_eq!(feed.delta(Cycles::new(1_750)), 750);
/// assert_eq!(feed.delta(Cycles::new(1_750)), 0);
/// // A rewound clock is treated as an empty window, not an underflow.
/// assert_eq!(feed.delta(Cycles::new(500)), 0);
/// assert_eq!(feed.delta(Cycles::new(900)), 400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleFeed {
    last: Cycles,
}

impl CycleFeed {
    /// A feed anchored at the clock's current reading.
    pub fn new(now: Cycles) -> Self {
        CycleFeed { last: now }
    }

    /// Cycles elapsed since the previous sample; re-anchors at `now`.
    pub fn delta(&mut self, now: Cycles) -> u64 {
        let d = now.saturating_sub(self.last).get();
        self.last = now;
        d
    }

    /// The clock reading of the previous sample.
    pub fn last(&self) -> Cycles {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Cycles::new(1_000);
        let b = Cycles::new(250);
        assert_eq!(a + b, Cycles::new(1_250));
        assert_eq!(a - b, Cycles::new(750));
        assert_eq!(a * 3, Cycles::new(3_000));
        assert_eq!(a / 4, Cycles::new(250));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(9)), Cycles::ZERO);
    }

    #[test]
    fn nanos_at_4ghz() {
        assert!((Cycles::new(8_000).as_nanos(4.0) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), Cycles::ZERO);
        c.advance(Cycles::new(7));
        c.advance(Cycles::new(3));
        assert_eq!(c.now(), Cycles::new(10));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycles::new(42).to_string(), "42 cycles");
    }

    #[test]
    fn ledger_merges_by_account_in_name_order() {
        let mut a = CycleLedger::new();
        a.credit("ocall", Cycles::new(10));
        a.credit("ecall", Cycles::new(5));
        let mut b = CycleLedger::new();
        b.credit("ocall", Cycles::new(7));
        b.credit("aex", Cycles::new(1));
        a.merge(&b);
        assert_eq!(a.get("ocall"), Cycles::new(17));
        assert_eq!(a.get("never-credited"), Cycles::ZERO);
        assert_eq!(a.total(), Cycles::new(23));
        let names: Vec<&str> = a.entries().map(|(n, _)| n).collect();
        assert_eq!(names, ["aex", "ecall", "ocall"]);
    }
}
