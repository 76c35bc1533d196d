//! Per-host clocks.
//!
//! "Most, but not all, hosts have GPS-synchronized clocks" (§4.1). A
//! host's local clock reads `true_time + offset + drift·t`. One-way
//! latencies computed from two different hosts' clocks therefore absorb
//! the skew difference; the paper (and our `analysis` crate) cancels it
//! by averaging the forward and reverse path summaries.

use crate::time::SimTime;

/// A host clock model.
#[derive(Debug, Clone, Copy)]
pub struct ClockModel {
    /// Fixed offset from true time, microseconds (signed).
    pub offset_us: i64,
    /// Drift in parts-per-billion (signed); 1000 ppb ≈ 86 ms/day.
    pub drift_ppb: i64,
    /// Whether this host is GPS-disciplined (offset/drift ≈ 0).
    pub gps: bool,
}

impl ClockModel {
    /// A perfectly synchronised (GPS) clock.
    pub fn gps() -> Self {
        ClockModel { offset_us: 0, drift_ppb: 0, gps: true }
    }

    /// An NTP-ish clock with the given fixed offset and drift.
    pub fn skewed(offset_us: i64, drift_ppb: i64) -> Self {
        ClockModel { offset_us, drift_ppb, gps: false }
    }

    /// The host's local timestamp (microseconds, signed) for true instant
    /// `t`.
    pub fn local_micros(&self, t: SimTime) -> i64 {
        let base = t.as_micros() as i64;
        // Split the multiply to stay within i64 even for large drifts.
        let drift = (base / 1_000_000_000) * self.drift_ppb
            + ((base % 1_000_000_000) * self.drift_ppb) / 1_000_000_000;
        base + self.offset_us + drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gps_is_identity() {
        let c = ClockModel::gps();
        let t = SimTime::from_secs(123_456);
        assert_eq!(c.local_micros(t), t.as_micros() as i64);
    }

    #[test]
    fn offset_shifts() {
        let c = ClockModel::skewed(-2_500, 0);
        let t = SimTime::from_secs(10);
        assert_eq!(c.local_micros(t), 10_000_000 - 2_500);
    }

    #[test]
    fn drift_accumulates() {
        // 1000 ppb over 1000 seconds = 1 ms.
        let c = ClockModel::skewed(0, 1_000);
        let t = SimTime::from_secs(1_000);
        assert_eq!(c.local_micros(t), 1_000_000_000 + 1_000);
    }

    #[test]
    fn drift_no_overflow_over_two_weeks() {
        let c = ClockModel::skewed(5_000, 50_000);
        let t = SimTime::from_secs(14 * 86_400);
        let local = c.local_micros(t);
        let expected_drift = (14i64 * 86_400) * 50_000 / 1_000; // us
        assert_eq!(local, t.as_micros() as i64 + 5_000 + expected_drift);
    }
}
