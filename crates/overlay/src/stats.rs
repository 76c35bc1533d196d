//! Per-path measurement state.
//!
//! RON's routing metric is "the average loss rate over the last 100
//! probes" (§3.1); latency uses an exponentially weighted moving average
//! of probe round-trip times. A path whose probes go unanswered —
//! including the loss-triggered fast chain — is declared dead until a
//! probe succeeds again.

use netsim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A fixed-capacity window of probe outcomes.
#[derive(Debug, Clone)]
pub struct LossWindow {
    cap: usize,
    outcomes: VecDeque<bool>, // true = lost
    lost: usize,
}

impl LossWindow {
    /// Creates a window of the given capacity (RON uses 100).
    ///
    /// The buffer is allocated lazily: a node holds one window per peer,
    /// and at thousands of hosts most paths are never probed within a
    /// run, so eager `with_capacity` would pin O(n²·cap) bytes of
    /// untouched buffers per process. Eviction keys on `len() == cap`,
    /// so allocated capacity never affects behavior.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        LossWindow { cap, outcomes: VecDeque::new(), lost: 0 }
    }

    /// Bytes of heap behind this window's outcome buffer.
    pub fn heap_bytes(&self) -> usize {
        self.outcomes.capacity() * std::mem::size_of::<bool>()
    }

    /// Records one probe outcome.
    pub fn push(&mut self, lost: bool) {
        if self.outcomes.len() == self.cap {
            if let Some(old) = self.outcomes.pop_front() {
                if old {
                    self.lost -= 1;
                }
            }
        }
        self.outcomes.push_back(lost);
        if lost {
            self.lost += 1;
        }
    }

    /// Fraction of recorded probes lost (0.0 when empty).
    pub fn loss_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.lost as f64 / self.outcomes.len() as f64
        }
    }

    /// Number of outcomes currently recorded.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of losses currently in the window.
    pub fn losses(&self) -> usize {
        self.lost
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// Everything a node knows about one of its direct paths.
#[derive(Debug, Clone)]
pub struct PathStats {
    window: LossWindow,
    ewma_alpha: f64,
    lat_us: Option<f64>,
    consecutive_losses: u32,
    dead_threshold: u32,
    dead: bool,
}

impl PathStats {
    /// Creates path state with the given window size, EWMA weight for new
    /// samples, and consecutive-loss threshold for declaring death.
    pub fn new(window: usize, ewma_alpha: f64, dead_threshold: u32) -> Self {
        PathStats {
            window: LossWindow::new(window),
            ewma_alpha,
            lat_us: None,
            consecutive_losses: 0,
            dead_threshold,
            dead: false,
        }
    }

    /// Bytes of heap behind this path's loss-window buffer.
    pub fn heap_bytes(&self) -> usize {
        self.window.heap_bytes()
    }

    /// Records a successful probe with the measured one-way latency.
    /// The probe's arrival time is not read.
    pub fn record_success(&mut self, _now: SimTime, one_way: SimDuration) {
        self.window.push(false);
        let sample = one_way.as_micros() as f64;
        self.lat_us = Some(match self.lat_us {
            Some(prev) => prev + self.ewma_alpha * (sample - prev),
            None => sample,
        });
        self.consecutive_losses = 0;
        self.dead = false;
    }

    /// Records a probe loss (timeout).
    pub fn record_loss(&mut self) {
        self.window.push(true);
        self.consecutive_losses += 1;
        if self.consecutive_losses >= self.dead_threshold {
            self.dead = true;
        }
    }

    /// Windowed loss rate.
    pub fn loss_rate(&self) -> f64 {
        if self.dead {
            // A dead path is unusable regardless of its historical window.
            1.0
        } else {
            self.window.loss_rate()
        }
    }

    /// Loss estimate for *routing*: Laplace-smoothed so that a clean but
    /// finite window is not mistaken for a perfect path. Without the
    /// prior, a single lost probe on the direct path makes any
    /// zero-observed detour look better, and the detour's two extra
    /// access links then cost more than the noise saved — reactive
    /// routing must only divert around genuine pathologies (§3.1).
    pub fn loss_estimate(&self) -> f64 {
        if self.dead {
            return 1.0;
        }
        (self.window.losses() as f64 + 0.5) / (self.window.len() as f64 + 1.0)
    }

    /// Latency estimate, if any probe ever succeeded.
    pub fn latency_us(&self) -> Option<f64> {
        self.lat_us
    }

    /// Whether the fast-probe chain declared this path failed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of probes recorded in the window.
    pub fn samples(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_zero() {
        let w = LossWindow::new(100);
        assert_eq!(w.loss_rate(), 0.0);
        assert!(w.is_empty());
    }

    #[test]
    fn window_tracks_rate() {
        let mut w = LossWindow::new(10);
        for i in 0..10 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.loss_rate(), 0.5);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = LossWindow::new(4);
        w.push(true);
        w.push(true);
        w.push(false);
        w.push(false);
        assert_eq!(w.loss_rate(), 0.5);
        // Two more successes evict the two initial losses.
        w.push(false);
        w.push(false);
        assert_eq!(w.loss_rate(), 0.0);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn ron_window_is_last_100() {
        let mut w = LossWindow::new(100);
        for _ in 0..100 {
            w.push(true);
        }
        for _ in 0..100 {
            w.push(false);
        }
        assert_eq!(w.loss_rate(), 0.0, "old outcomes must age out");
    }

    #[test]
    fn ewma_converges_toward_samples() {
        let mut p = PathStats::new(100, 0.1, 4);
        let t = SimTime::from_secs(1);
        p.record_success(t, SimDuration::from_millis(100));
        assert_eq!(p.latency_us(), Some(100_000.0));
        for _ in 0..200 {
            p.record_success(t, SimDuration::from_millis(20));
        }
        let lat = p.latency_us().unwrap();
        assert!((lat - 20_000.0).abs() < 100.0, "lat={lat}");
    }

    #[test]
    fn death_after_consecutive_losses_and_revival() {
        let mut p = PathStats::new(100, 0.1, 4);
        p.record_success(SimTime::from_secs(1), SimDuration::from_millis(10));
        for _ in 0..3 {
            p.record_loss();
        }
        assert!(!p.is_dead(), "3 losses must not kill with threshold 4");
        p.record_loss();
        assert!(p.is_dead());
        assert_eq!(p.loss_rate(), 1.0, "dead path is fully lossy");
        p.record_success(SimTime::from_secs(30), SimDuration::from_millis(10));
        assert!(!p.is_dead(), "a success revives the path");
        assert!(p.loss_rate() < 1.0);
    }

    #[test]
    fn loss_rate_reflects_window_when_alive() {
        let mut p = PathStats::new(10, 0.1, 100);
        for i in 0..10 {
            if i % 5 == 0 {
                p.record_loss();
            } else {
                p.record_success(SimTime::from_secs(i), SimDuration::from_millis(10));
            }
        }
        assert!((p.loss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LossWindow::new(0);
    }
}
