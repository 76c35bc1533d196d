//! Diurnal load modulation.
//!
//! §4.2 of the paper: "During many hours of the day, the Internet is
//! mostly quiescent and loss rates are low" — and the worst single hour
//! saw >13% loss. Loss intensity therefore follows a 24-hour sinusoid;
//! on top of that, individual segments get *hot periods* (scripted or
//! randomly scheduled bursts of heavy congestion) from the topology
//! builder, handled in [`crate::segment`].

use crate::time::{SimDuration, SimTime};

/// A smooth 24-hour load profile.
#[derive(Debug, Clone, Copy)]
pub struct LoadProfile {
    /// Relative swing around 1.0; 0.6 means intensity varies 0.4..1.6.
    pub amplitude: f64,
    /// Cycle length (24 h for the Internet's diurnal pattern).
    pub period: SimDuration,
    /// Phase offset in cycles (0..1); lets presets start mid-cycle.
    pub phase: f64,
}

impl LoadProfile {
    /// Flat profile (intensity 1.0 always) — for unit tests.
    pub fn flat() -> Self {
        LoadProfile { amplitude: 0.0, period: SimDuration::from_hours(24), phase: 0.0 }
    }

    /// The default diurnal profile used by the testbed presets.
    pub fn diurnal() -> Self {
        LoadProfile { amplitude: 0.6, period: SimDuration::from_hours(24), phase: 0.15 }
    }

    /// Load intensity multiplier at `now` (always > 0).
    pub fn intensity(&self, now: SimTime) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let frac = (now.as_micros() as f64 / self.period.as_micros() as f64) + self.phase;
        let s = (std::f64::consts::TAU * frac).sin();
        (1.0 + self.amplitude * s).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one() {
        let p = LoadProfile::flat();
        for h in 0..48 {
            assert_eq!(p.intensity(SimTime::from_secs(h * 3600)), 1.0);
        }
    }

    #[test]
    fn diurnal_swings_and_stays_positive() {
        let p = LoadProfile::diurnal();
        let vals: Vec<f64> = (0..24)
            .map(|h| p.intensity(SimTime::from_secs(h * 3600)))
            .collect();
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min > 0.0);
        assert!(max > 1.3 && min < 0.7, "min={min} max={max}");
    }

    #[test]
    fn period_is_24h() {
        let p = LoadProfile::diurnal();
        let a = p.intensity(SimTime::from_secs(5 * 3600));
        let b = p.intensity(SimTime::from_secs(5 * 3600 + 86_400));
        assert!((a - b).abs() < 1e-9);
    }
}
