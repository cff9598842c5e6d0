//! Virtual simulation time.
//!
//! Stored as integer microseconds so event ordering is total and exactly
//! reproducible — float timestamps would make heap ordering depend on
//! accumulated rounding.
//!
//! Where `SimTime` meets the simulator's event queue
//! ([`crate::queue::EventQueue`], keyed by `f64` model ms), callers push
//! [`SimTime::as_ms`]. That conversion is exact in the integer and
//! correctly rounded in the division, so an earlier time never gets a
//! later key, and equal times stay equal (they pop in push order). Below
//! 2^43 ms (about 278 years) the spacing of `f64` stays under 1 µs, so
//! distinct microseconds also get distinct keys and pop in time order.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from (possibly fractional) milliseconds; rounds to the
    /// nearest microsecond and saturates below at zero.
    pub fn from_ms(ms: f64) -> Self {
        SimTime((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Constructs from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

/// A span of virtual time. Construct with [`SimTime`]-style helpers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From (possibly fractional) milliseconds, rounded to the microsecond.
    pub fn from_ms(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Integer multiplication.
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_ms())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_ms(12.5);
        assert_eq!(t.as_micros(), 12_500);
        assert!((t.as_ms() - 12.5).abs() < 1e-9);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert!((SimTime::from_secs(2).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_ms_saturates_to_zero() {
        assert_eq!(SimTime::from_ms(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_ms(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0) + SimDuration::from_ms(5.0);
        assert_eq!(t, SimTime::from_ms(15.0));
        let d = SimTime::from_ms(15.0) - SimTime::from_ms(10.0);
        assert_eq!(d, SimDuration::from_ms(5.0));
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::from_ms(1.0) - SimTime::from_ms(2.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn duration_times() {
        assert_eq!(SimDuration::from_ms(2.0).times(3).as_ms(), 6.0);
    }

    #[test]
    fn sub_microsecond_rounding() {
        // 0.0004 ms rounds to 0 µs; 0.0006 ms rounds to 1 µs.
        assert_eq!(SimTime::from_ms(0.0004).as_micros(), 0);
        assert_eq!(SimTime::from_ms(0.0006).as_micros(), 1);
    }
}
