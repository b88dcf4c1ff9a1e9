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
pub(crate) struct Clock {
    now: Cycles,
}

impl Clock {
    /// Creates a clock at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub(crate) fn now(&self) -> Cycles {
        self.now
    }

    /// Advances virtual time by `delta`.
    #[inline]
    pub(crate) fn advance(&mut self, delta: Cycles) {
        self.now += delta;
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
}
