//! Path failures: an on/off renewal process with heavy-tailed downtime.
//!
//! The paper observes that Internet paths suffer outages "lasting several
//! minutes" (§1) caused by link failures, routing convergence and edge
//! infrastructure problems, and that these dominate the high-loss tail of
//! the hour-window distribution (Table 6). We model each segment's
//! failures as alternating UP (exponential, days) and DOWN (bounded
//! Pareto, tens of seconds to tens of minutes) periods, advanced lazily
//! exactly like the congestion chain.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Parameters of the outage process.
#[derive(Debug, Clone, Copy)]
pub struct OutageParams {
    /// Mean time between failures (exponential).
    pub mean_up: SimDuration,
    /// Minimum downtime (Pareto location).
    pub min_down: SimDuration,
    /// Pareto shape; smaller means heavier tail. Must be > 0.
    pub alpha: f64,
    /// Hard cap on a single downtime.
    pub max_down: SimDuration,
}

impl OutageParams {
    /// A segment that never fails.
    pub fn never() -> Self {
        OutageParams {
            mean_up: SimDuration::MAX / 4,
            min_down: SimDuration::from_secs(1),
            alpha: 1.5,
            max_down: SimDuration::from_secs(1),
        }
    }

    /// Typical edge-link failure profile scaled by `rate_scale` (1.0 =
    /// roughly one failure per `mean_up_days` days, minutes-long).
    pub fn edge(mean_up_days: f64) -> Self {
        OutageParams {
            mean_up: SimDuration::from_secs_f64(mean_up_days * 86_400.0),
            min_down: SimDuration::from_secs(45),
            alpha: 1.2,
            // The heavy tail reaches hours: these are the (path, hour)
            // windows with >80-90% loss in Table 6.
            max_down: SimDuration::from_mins(150),
        }
    }

    /// Core/backbone failure profile: rarer, shorter (routing
    /// re-convergence scale).
    pub fn core(mean_up_days: f64) -> Self {
        OutageParams {
            mean_up: SimDuration::from_secs_f64(mean_up_days * 86_400.0),
            min_down: SimDuration::from_secs(30),
            alpha: 1.5,
            max_down: SimDuration::from_mins(45),
        }
    }

    /// Mean downtime in microseconds (bounded-Pareto mean).
    fn mean_down_micros(&self) -> f64 {
        let l = self.min_down.as_micros() as f64;
        let h = self.max_down.as_micros() as f64;
        let a = self.alpha;
        if (a - 1.0).abs() < 1e-9 {
            // alpha == 1: mean = ln(h/l) * l*h/(h-l)
            (h / l).ln() * l * h / (h - l)
        } else {
            (l.powf(a) / (1.0 - (l / h).powf(a)))
                * (a / (a - 1.0))
                * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
        }
    }

    /// Long-run fraction of time the segment is down.
    fn duty_down(&self) -> f64 {
        let down = self.mean_down_micros();
        let up = self.mean_up.as_micros() as f64;
        down / (up + down)
    }
}

/// The evolving up/down state of a segment.
#[derive(Debug, Clone)]
pub struct OutageProcess {
    params: OutageParams,
    down: bool,
    until: SimTime,
    init: bool,
}

impl OutageProcess {
    /// Creates a process that starts UP at time zero.
    pub fn new(params: OutageParams) -> Self {
        OutageProcess { params, down: false, until: SimTime::ZERO, init: false }
    }

    /// The configured parameters.
    pub fn params(&self) -> &OutageParams {
        &self.params
    }

    fn draw_sojourn(&self, down: bool, rng: &mut Rng) -> SimDuration {
        if down {
            let us = rng.pareto(
                self.params.min_down.as_micros() as f64,
                self.params.alpha,
                self.params.max_down.as_micros() as f64,
            );
            SimDuration::from_micros(us as u64)
        } else {
            let mean = self.params.mean_up.as_micros() as f64;
            SimDuration::from_micros(rng.exp(mean).clamp(1.0, 1.0e18) as u64)
        }
    }

    /// Advances to `now` and reports whether the segment is down.
    pub fn is_down(&mut self, now: SimTime, rng: &mut Rng) -> bool {
        if !self.init {
            self.init = true;
            self.down = rng.chance(self.params.duty_down());
            self.until = now + self.draw_sojourn(self.down, rng);
            return self.down;
        }
        if now < self.until {
            return self.down;
        }
        let cycle = self.params.mean_up.as_micros() as f64 + self.params.mean_down_micros();
        let gap = now.since(self.until).as_micros() as f64;
        if gap > 64.0 * cycle {
            self.down = rng.chance(self.params.duty_down());
            self.until = now + self.draw_sojourn(self.down, rng);
            return self.down;
        }
        while self.until <= now {
            self.down = !self.down;
            self.until += self.draw_sojourn(self.down, rng);
        }
        self.down
    }

    /// Forces the process DOWN from `now` for `dur` (fault injection for
    /// tests and examples).
    pub fn force_down(&mut self, now: SimTime, dur: SimDuration) {
        self.init = true;
        self.down = true;
        self.until = now + dur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_fails() {
        let mut o = OutageProcess::new(OutageParams::never());
        let mut rng = Rng::new(1);
        for h in 0..1000 {
            assert!(!o.is_down(SimTime::from_secs(h * 3600), &mut rng));
        }
    }

    #[test]
    fn duty_cycle_close_to_prediction() {
        let params = OutageParams::edge(3.0);
        let predicted = params.duty_down();
        let mut o = OutageProcess::new(params);
        let mut rng = Rng::new(2);
        let step = SimDuration::from_secs(20);
        let mut t = SimTime::ZERO;
        let n = 3_000_000u64; // ~1.9 simulated years
        let mut down = 0u64;
        for _ in 0..n {
            if o.is_down(t, &mut rng) {
                down += 1;
            }
            t += step;
        }
        let measured = down as f64 / n as f64;
        assert!(
            (measured - predicted).abs() / predicted < 0.25,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn downtimes_are_minutes_scale() {
        let params = OutageParams::edge(3.0);
        let mean_down_s = params.mean_down_micros() / 1e6;
        assert!(
            (45.0..1500.0).contains(&mean_down_s),
            "mean downtime {mean_down_s}s"
        );
    }

    #[test]
    fn outage_persists_for_its_duration() {
        let mut o = OutageProcess::new(OutageParams::edge(3.0));
        let mut rng = Rng::new(3);
        o.force_down(SimTime::from_secs(100), SimDuration::from_secs(60));
        assert!(o.is_down(SimTime::from_secs(100), &mut rng));
        assert!(o.is_down(SimTime::from_secs(159), &mut rng));
        assert!(!o.is_down(SimTime::from_secs(161), &mut rng));
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut o = OutageProcess::new(OutageParams::edge(1.0));
            let mut rng = Rng::new(seed);
            (0..200_000u64)
                .filter(|i| o.is_down(SimTime::from_secs(i * 60), &mut rng))
                .count()
        };
        assert_eq!(run(9), run(9));
    }
}
