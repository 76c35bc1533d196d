//! Per-segment latency: propagation, jitter, queueing and pathologies.
//!
//! One-way delay on a segment is modelled as
//!
//! ```text
//! delay = propagation + lognormal jitter
//!       + exponential queueing extra (only while the segment is congested)
//!       + scripted episode extra (e.g. the paper's Cornell ~1 s period)
//! ```
//!
//! Propagation is derived from host geography by the topology builder;
//! jitter is small (sub-millisecond to a few milliseconds); congestion
//! coupling makes loss-heavy periods also latency-heavy, which the
//! latency-optimising router exploits.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A scripted latency pathology: between `start` and `end` the segment's
/// delay is inflated by roughly `extra` (the paper's §4.5 Cornell episode
/// is the canonical example).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Episode {
    /// Episode start (inclusive).
    pub start: SimTime,
    /// Episode end (exclusive).
    pub end: SimTime,
    /// Mean extra one-way delay during the episode.
    pub extra: SimDuration,
}

/// The latency model of one segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed propagation + transmission delay.
    pub prop: SimDuration,
    /// Median of the lognormal jitter component.
    pub jitter_median: SimDuration,
    /// Log-space standard deviation of the jitter.
    pub jitter_sigma: f64,
    /// Mean extra queueing delay while the segment is congested.
    pub queue_bad: SimDuration,
    /// Scripted pathologies.
    pub episodes: Vec<Episode>,
}

impl LatencyModel {
    /// A constant-delay model (useful in tests).
    pub fn fixed(prop: SimDuration) -> Self {
        LatencyModel {
            prop,
            jitter_median: SimDuration::ZERO,
            jitter_sigma: 0.0,
            queue_bad: SimDuration::ZERO,
            episodes: Vec::new(),
        }
    }

    /// A typical segment: `prop` propagation with mild jitter and
    /// congestion-coupled queueing.
    pub fn typical(prop: SimDuration) -> Self {
        LatencyModel {
            prop,
            jitter_median: SimDuration::from_micros(300),
            jitter_sigma: 0.8,
            queue_bad: SimDuration::from_millis(12),
            episodes: Vec::new(),
        }
    }

    /// Samples a one-way delay for a packet crossing at `now`.
    pub fn sample(&self, now: SimTime, congested: bool, rng: &mut Rng) -> SimDuration {
        self.sample_with_mu(now, congested, self.jitter_mu(), rng)
    }

    /// Log-space mean of the jitter component: `ln(jitter_median)` in
    /// microseconds (unused, and `-inf`, when there is no jitter).
    pub(crate) fn jitter_mu(&self) -> f64 {
        (self.jitter_median.as_micros() as f64).ln()
    }

    /// [`Self::sample`] with [`Self::jitter_mu`] supplied by a caller
    /// that computed it once (a live segment), sparing every crossing a
    /// `ln` of the same operand. `normal(mu, sigma).exp()` is what
    /// [`Rng::lognormal`] evaluates, so the bits are the same.
    pub(crate) fn sample_with_mu(
        &self,
        now: SimTime,
        congested: bool,
        jitter_mu: f64,
        rng: &mut Rng,
    ) -> SimDuration {
        let mut d = self.prop;
        if self.jitter_median > SimDuration::ZERO {
            let j = rng.normal(jitter_mu, self.jitter_sigma).exp();
            d += SimDuration::from_micros(j.min(5e7) as u64); // cap pathological draws at 50 s
        }
        if congested && self.queue_bad > SimDuration::ZERO {
            d += SimDuration::from_micros(rng.exp(self.queue_bad.as_micros() as f64) as u64);
        }
        for e in &self.episodes {
            if now >= e.start && now < e.end {
                // Episodes vary packet-to-packet around their mean.
                d += e.extra.mul_f64(rng.uniform(0.7, 1.3));
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_model_is_exact() {
        let m = LatencyModel::fixed(SimDuration::from_millis(20));
        let mut rng = Rng::new(1);
        for i in 0..100 {
            assert_eq!(
                m.sample(SimTime::from_secs(i), false, &mut rng),
                SimDuration::from_millis(20)
            );
        }
    }

    #[test]
    fn jitter_adds_positive_delay() {
        let m = LatencyModel::typical(SimDuration::from_millis(10));
        let mut rng = Rng::new(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample(SimTime::ZERO, false, &mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!(mean > 10.0 && mean < 13.0, "mean={mean}ms");
    }

    #[test]
    fn congestion_inflates_delay() {
        let m = LatencyModel::typical(SimDuration::from_millis(10));
        let mut rng = Rng::new(3);
        let n = 20_000;
        let quiet: f64 = (0..n)
            .map(|_| m.sample(SimTime::ZERO, false, &mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        let busy: f64 = (0..n)
            .map(|_| m.sample(SimTime::ZERO, true, &mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!(busy > quiet + 8.0, "busy={busy} quiet={quiet}");
    }

    #[test]
    fn episode_applies_only_inside_window() {
        let mut m = LatencyModel::fixed(SimDuration::from_millis(5));
        m.episodes.push(Episode {
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
            extra: SimDuration::from_millis(800),
        });
        let mut rng = Rng::new(4);
        let before = m.sample(SimTime::from_secs(99), false, &mut rng);
        let during = m.sample(SimTime::from_secs(150), false, &mut rng);
        let after = m.sample(SimTime::from_secs(200), false, &mut rng);
        assert_eq!(before, SimDuration::from_millis(5));
        assert_eq!(after, SimDuration::from_millis(5));
        assert!(during > SimDuration::from_millis(500), "during={during}");
    }
}
