//! Simulated time: microsecond-resolution instants and durations.
//!
//! Wall-clock types from `std::time` are deliberately not used inside the
//! simulator; experiments must be reproducible and decoupled from the host
//! machine. `SimTime` is an absolute instant (microseconds since the start
//! of the experiment's epoch) and `SimDuration` a non-negative span.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time, in microseconds since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd on an integer; no float is compared")]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd on an integer; no float is compared")]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole hours since the epoch (used by windowed statistics).
    pub const fn as_hours(self) -> u64 {
        self.0 / 3_600_000_000
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Builds a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000_000)
    }

    /// Builds a duration from fractional seconds; negative values clamp
    /// to zero (the simulator has no negative spans).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            SimDuration(0)
        } else {
            SimDuration((s * 1e6).round() as u64)
        }
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// microsecond.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        debug_assert!(f >= 0.0, "durations cannot be scaled negatively");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        let (d, s) = (s / 86_400, s % 86_400);
        let (h, s) = (s / 3_600, s % 3_600);
        let (m, s) = (s / 60, s % 60);
        write!(f, "{d}d {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_days(1).as_secs_f64(), 86_400.0);
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(3) / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration::from_micros(10).mul_f64(1.24), SimDuration::from_micros(12));
        assert_eq!(SimDuration::from_micros(10).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimTime::from_secs(90_061).to_string(), "1d 01:01:01");
    }

    #[test]
    fn hours_bucket() {
        assert_eq!(SimTime::from_secs(3_599).as_hours(), 0);
        assert_eq!(SimTime::from_secs(3_600).as_hours(), 1);
    }
}
