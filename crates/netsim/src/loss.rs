//! Bursty congestion loss: a lazily-advanced Gilbert–Elliott process.
//!
//! Each network segment alternates between a *good* state (negligible
//! loss) and a *bad* state (a congestion burst where most packets die).
//! Burst durations are hyper-exponential — a mixture of short queue
//! overflows (tens of milliseconds) and longer congestion episodes — which
//! reproduces the paper's observation that the conditional loss
//! probability of a second packet decays only slowly as the spacing grows
//! from 0 ms to 10 ms to 20 ms (§4.4, Table 5).
//!
//! The chain is advanced *lazily*: state is only evolved when a packet
//! actually crosses the segment. Sojourns in each state are exponential
//! (memoryless), so skipping ahead over long idle gaps by resampling from
//! the stationary distribution is statistically exact for the
//! exponential-good state and a documented approximation for the
//! hyper-exponential bad state (idle gaps overwhelmingly end in the good
//! state, so the approximation is negligible in practice).

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Parameters of the Gilbert–Elliott congestion process.
#[derive(Debug, Clone, Copy)]
pub struct GeParams {
    /// Mean sojourn in the good state at load intensity 1.0.
    pub mean_good: SimDuration,
    /// Mean duration of a *short* burst (queue overflow scale).
    pub short_bad: SimDuration,
    /// Mean duration of a *long* burst (sustained congestion scale).
    pub long_bad: SimDuration,
    /// Probability that a burst is of the long kind.
    pub p_long: f64,
    /// Per-packet loss probability in the good state (residual noise).
    pub loss_good: f64,
    /// Per-packet loss probability inside a burst. Below 1.0 because real
    /// drop-tail queues interleave survivors even while overflowing; the
    /// paper's 72% back-to-back CLP pins this down.
    pub loss_bad: f64,
}

impl GeParams {
    /// A segment that never loses packets (ideal link).
    pub fn lossless() -> Self {
        GeParams {
            mean_good: SimDuration::from_secs(3600),
            short_bad: SimDuration::from_millis(1),
            long_bad: SimDuration::from_millis(1),
            p_long: 0.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// Builds parameters from a target stationary loss rate, keeping the
    /// burst-shape defaults that calibrate the paper's CLP numbers.
    ///
    /// `stationary_loss` is the long-run fraction of packets lost at load
    /// intensity 1.0 (e.g. `0.004` for a 0.4% segment).
    pub fn from_stationary_loss(stationary_loss: f64) -> Self {
        // Burst-shape defaults are calibrated against the paper's Table 5:
        // CLP(back-to-back) ≈ 72%, CLP(10 ms) ≈ 66%, CLP(20 ms) ≈ 65%.
        // The slow 10→20 ms decay requires a small fraction of second-scale
        // bursts carrying most of the bad time.
        let mut p = GeParams {
            mean_good: SimDuration::from_secs(15),
            short_bad: SimDuration::from_millis(12),
            long_bad: SimDuration::from_millis(1000),
            p_long: 0.073,
            loss_good: 0.0,
            loss_bad: 0.68,
        };
        if stationary_loss <= 0.0 {
            return GeParams::lossless();
        }
        // stationary_loss = bad_fraction * loss_bad  with
        // bad_fraction = mean_bad / (mean_good + mean_bad).
        let mean_bad = p.mean_bad_micros();
        let want_bad_fraction = (stationary_loss / p.loss_bad).min(0.9);
        let mean_good = mean_bad * (1.0 - want_bad_fraction) / want_bad_fraction;
        p.mean_good = SimDuration::from_micros(mean_good.max(1.0) as u64);
        p
    }

    /// Mean bad sojourn in microseconds.
    fn mean_bad_micros(&self) -> f64 {
        (1.0 - self.p_long) * self.short_bad.as_micros() as f64
            + self.p_long * self.long_bad.as_micros() as f64
    }

    /// Long-run fraction of time spent in the bad state at intensity
    /// `intensity` (which scales how often bursts start).
    fn stationary_bad(&self, intensity: f64) -> f64 {
        let g = self.mean_good.as_micros() as f64 / intensity.max(1e-9);
        let b = self.mean_bad_micros();
        b / (g + b)
    }

    /// Long-run packet loss rate at the given intensity.
    pub fn stationary_loss(&self, intensity: f64) -> f64 {
        let fb = self.stationary_bad(intensity);
        fb * self.loss_bad + (1.0 - fb) * self.loss_good
    }
}

/// The evolving state of one segment's congestion process.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    params: GeParams,
    bad: bool,
    /// The current state holds until this instant (exclusive).
    until: SimTime,
    /// Whether the first sojourn has been drawn yet.
    init: bool,
}

impl GilbertElliott {
    /// Creates a process starting in the good state at time zero.
    pub fn new(params: GeParams) -> Self {
        GilbertElliott { params, bad: false, until: SimTime::ZERO, init: false }
    }

    /// The configured parameters.
    pub fn params(&self) -> &GeParams {
        &self.params
    }

    fn draw_sojourn(&self, bad: bool, intensity: f64, rng: &mut Rng) -> SimDuration {
        let mean_us = if bad {
            if rng.chance(self.params.p_long) {
                self.params.long_bad.as_micros() as f64
            } else {
                self.params.short_bad.as_micros() as f64
            }
        } else {
            self.params.mean_good.as_micros() as f64 / intensity.max(1e-9)
        };
        SimDuration::from_micros(rng.exp(mean_us).max(1.0) as u64)
    }

    /// Advances the chain to `now` and reports whether the segment is in a
    /// congestion burst.
    pub fn is_bad(&mut self, now: SimTime, intensity: f64, rng: &mut Rng) -> bool {
        self.is_bad_with(now, || intensity, rng)
    }

    /// [`Self::is_bad`] with the load intensity as a thunk: it is only
    /// read when a sojourn must be drawn (a crossing in fifty on the
    /// paper's campaign), so the caller's diurnal `sin` and hot-window
    /// scan run on that path alone. Same draws, same bits.
    fn is_bad_with(
        &mut self,
        now: SimTime,
        intensity: impl FnOnce() -> f64,
        rng: &mut Rng,
    ) -> bool {
        if self.init && now < self.until {
            return self.bad;
        }
        let intensity = intensity();
        // First observation: start from the stationary distribution so
        // short runs are unbiased. Later, fast-skip long idle gaps:
        // beyond many cycle lengths the state is stationary again, so
        // resample it instead of replaying every sojourn.
        let resample = !self.init || {
            let cycle = self.params.mean_good.as_micros() as f64 / intensity.max(1e-9)
                + self.params.mean_bad_micros();
            let gap = now.since(self.until).as_micros() as f64;
            gap > 64.0 * cycle
        };
        if resample {
            self.init = true;
            self.bad = rng.chance(self.params.stationary_bad(intensity));
            self.until = now + self.draw_sojourn(self.bad, intensity, rng);
            return self.bad;
        }
        while self.until <= now {
            self.bad = !self.bad;
            let sojourn = self.draw_sojourn(self.bad, intensity, rng);
            self.until += sojourn;
        }
        self.bad
    }

    /// Advances to `now` and samples one packet crossing: returns
    /// `(in_burst, lost)`.
    pub fn observe(&mut self, now: SimTime, intensity: f64, rng: &mut Rng) -> (bool, bool) {
        self.observe_with(now, || intensity, rng)
    }

    /// [`Self::observe`] with the load intensity as a thunk, read only
    /// when a sojourn must be drawn (see [`Self::is_bad`]).
    pub fn observe_with(
        &mut self,
        now: SimTime,
        intensity: impl FnOnce() -> f64,
        rng: &mut Rng,
    ) -> (bool, bool) {
        let bad = self.is_bad_with(now, intensity, rng);
        let p = if bad { self.params.loss_bad } else { self.params.loss_good };
        (bad, rng.chance(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The thunk form is the eager form minus the evaluations nobody
        /// reads: over any crossing schedule it calls its closure exactly
        /// on the crossings where `is_bad` draws a sojourn (the only draws
        /// it makes), and returns the same `(bad, lost)` stream and leaves
        /// the RNG in the same state as the `f64` form.
        #[test]
        fn thunk_form_matches_eager_form_and_is_read_only_on_a_draw(
            seed in 0u64..1_000,
            loss in prop_oneof![Just(0.0), 0.0005f64..0.2],
            gaps in proptest::collection::vec(
                prop_oneof![0u64..2_000, 0u64..2_000_000, 0u64..4_000_000_000], 1..400),
        ) {
            let params = GeParams::from_stationary_loss(loss);
            let (mut eager, mut lazy) = (GilbertElliott::new(params), GilbertElliott::new(params));
            let (mut eager_rng, mut lazy_rng) = (Rng::new(seed), Rng::new(seed));
            let mut now = SimTime::ZERO;
            for (i, gap) in gaps.into_iter().enumerate() {
                now += SimDuration::from_micros(gap);
                let intensity = 0.4 + (i % 7) as f64 * 0.2;
                // `is_bad`, then the crossing's own loss draw: `observe`.
                let before = format!("{lazy_rng:?}");
                let mut reads = 0;
                let bad = lazy.is_bad_with(now, || { reads += 1; intensity }, &mut lazy_rng);
                let drew = format!("{lazy_rng:?}") != before;
                prop_assert_eq!(reads, drew as u32, "closure reads vs sojourn draws at step {}", i);
                let lost = lazy_rng.chance(if bad { params.loss_bad } else { params.loss_good });
                prop_assert_eq!((bad, lost), eager.observe(now, intensity, &mut eager_rng));
                prop_assert_eq!(format!("{lazy_rng:?}"), format!("{eager_rng:?}"));
            }
        }
    }

    fn sample_loss_rate(params: GeParams, spacing: SimDuration, n: u64, seed: u64) -> f64 {
        let mut ge = GilbertElliott::new(params);
        let mut rng = Rng::new(seed);
        let mut t = SimTime::ZERO;
        let mut lost = 0u64;
        for _ in 0..n {
            let (_, l) = ge.observe(t, 1.0, &mut rng);
            if l {
                lost += 1;
            }
            t += spacing;
        }
        lost as f64 / n as f64
    }

    #[test]
    fn stationary_loss_matches_prediction() {
        let p = GeParams::from_stationary_loss(0.004);
        let predicted = p.stationary_loss(1.0);
        assert!((predicted - 0.004).abs() < 1e-9, "calibration formula: {predicted}");
        // Empirical check with widely spaced samples (independent-ish).
        let measured = sample_loss_rate(p, SimDuration::from_secs(7), 400_000, 99);
        assert!(
            (measured - 0.004).abs() < 0.001,
            "measured {measured}, wanted ~0.004"
        );
    }

    #[test]
    fn back_to_back_clp_is_loss_bad() {
        // Second packet sent with zero gap sees the same state, so
        // CLP(0ms) must approach loss_bad.
        let p = GeParams::from_stationary_loss(0.01);
        let mut ge = GilbertElliott::new(p);
        let mut rng = Rng::new(7);
        let mut t = SimTime::ZERO;
        let (mut first_lost, mut both_lost) = (0u64, 0u64);
        for _ in 0..4_000_000 {
            let (_, l1) = ge.observe(t, 1.0, &mut rng);
            let (_, l2) = ge.observe(t, 1.0, &mut rng);
            if l1 {
                first_lost += 1;
                if l2 {
                    both_lost += 1;
                }
            }
            t += SimDuration::from_secs(1);
        }
        let clp = both_lost as f64 / first_lost as f64;
        assert!((clp - p.loss_bad).abs() < 0.05, "clp={clp} loss_bad={}", p.loss_bad);
    }

    #[test]
    fn clp_decays_with_gap() {
        let p = GeParams::from_stationary_loss(0.01);
        let clp_at = |gap_ms: u64, seed: u64| {
            let mut ge = GilbertElliott::new(p);
            let mut rng = Rng::new(seed);
            let mut t = SimTime::ZERO;
            let (mut first, mut both) = (0u64, 0u64);
            for _ in 0..3_000_000 {
                let (_, l1) = ge.observe(t, 1.0, &mut rng);
                let (_, l2) = ge.observe(t + SimDuration::from_millis(gap_ms), 1.0, &mut rng);
                if l1 {
                    first += 1;
                    if l2 {
                        both += 1;
                    }
                }
                t += SimDuration::from_secs(1);
            }
            both as f64 / first as f64
        };
        let c0 = clp_at(0, 1);
        let c10 = clp_at(10, 2);
        let c500 = clp_at(500, 3);
        assert!(c0 > c10, "c0={c0} c10={c10}");
        assert!(c10 > c500, "c10={c10} c500={c500}");
        // Far beyond the short-burst scale most of the correlation is gone
        // (only the rare second-scale bursts remain sticky).
        assert!(c500 < 0.6 * c0, "c500={c500} c0={c0}");
    }

    #[test]
    fn lossless_never_drops() {
        let rate = sample_loss_rate(GeParams::lossless(), SimDuration::from_millis(10), 50_000, 5);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn intensity_scales_loss() {
        let p = GeParams::from_stationary_loss(0.005);
        assert!(p.stationary_loss(4.0) > 3.0 * p.stationary_loss(1.0));
        assert!(p.stationary_loss(0.25) < 0.3 * p.stationary_loss(1.0));
    }

    #[test]
    fn deterministic_replay() {
        let p = GeParams::from_stationary_loss(0.01);
        let a = sample_loss_rate(p, SimDuration::from_millis(500), 10_000, 42);
        let b = sample_loss_rate(p, SimDuration::from_millis(500), 10_000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn fast_skip_preserves_stationarity() {
        // Samples spaced far beyond the cycle length exercise the
        // stationary-resample path; the loss rate must stay calibrated.
        let p = GeParams::from_stationary_loss(0.02);
        let measured = sample_loss_rate(p, SimDuration::from_secs(3600), 300_000, 11);
        assert!((measured - 0.02).abs() < 0.004, "measured={measured}");
    }
}
