//! Simulated time.
//!
//! The simulator is discrete-time; everything that needs a clock takes a
//! [`SimTime`]. Keeping time out of the wall clock makes every experiment
//! bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since scenario start.
///
/// `SimTime` is also used for durations (the type is affine only by
/// convention; the arithmetic provided is the small subset the simulator
/// needs and saturates rather than wrapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The scenario start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// A sentinel later than any reachable simulation instant ("this
    /// event never fires"). Compare against it; adding to it saturates.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds (for human-authored
    /// scenario parameters; not used in hot paths).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since scenario start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Whole milliseconds since scenario start.
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since scenario start.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference, as a duration.
    pub const fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimTime::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(60);
        let b = SimTime::from_millis(500);
        assert_eq!((a + b).as_millis(), 60_500);
        assert_eq!((a - b).as_millis(), 59_500);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        t += SimTime::from_secs(1);
        assert_eq!(t.as_secs_f64(), 1.0);
    }

    #[test]
    fn add_saturates() {
        let huge = SimTime::from_nanos(u64::MAX);
        assert_eq!(huge + SimTime::from_secs(1), huge);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(59) < SimTime::from_secs(60));
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_secs(90).to_string(), "90.000s");
        assert_eq!(SimTime::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimTime::from_micros(7).to_string(), "7.000µs");
        assert_eq!(SimTime::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "underflow")]
    fn debug_sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }
}
