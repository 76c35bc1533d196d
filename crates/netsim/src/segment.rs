//! A network segment: the unit of shared fate.
//!
//! Every one-way overlay hop crosses three segments — the sender's access
//! link, one core segment, the receiver's access link. Two different
//! overlay paths between the same hosts *share* the access segments, so a
//! burst or outage there takes out both copies of a mesh-routed packet.
//! This is the mechanism behind the paper's correlated-loss findings.

use crate::latency::LatencyModel;
use crate::load::LoadProfile;
use crate::loss::{GeParams, GilbertElliott};
use crate::outage::{OutageParams, OutageProcess};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Identifies one segment within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd on an integer; no float is compared")]
pub struct SegmentId(pub u32);

/// Why a packet died on a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// The segment was inside a failure window.
    Outage,
    /// The packet was unlucky inside (or occasionally outside) a
    /// congestion burst.
    Congestion,
    /// The destination host process was down (assigned by the runner, not
    /// by segments).
    HostDown,
}

/// The outcome of one packet crossing one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transit {
    /// The packet survived and took this long.
    Pass(SimDuration),
    /// The packet was dropped.
    Dropped(DropCause),
}

/// Static description of a segment; the topology builder produces these
/// and [`Segment::new`] animates them.
#[derive(Debug, Clone)]
pub struct SegmentSpec {
    /// Congestion-loss parameters.
    pub loss: GeParams,
    /// Failure parameters.
    pub outage: OutageParams,
    /// Delay parameters.
    pub latency: LatencyModel,
    /// Hot periods: windows where loss intensity is multiplied (scripted
    /// "bad hours" from §4.2).
    pub hot: Vec<(SimTime, SimTime, f64)>,
    /// Scripted outage windows: the segment is hard-down inside each
    /// `[start, end)` interval, independent of the stochastic outage
    /// process. Shared-risk scenarios push the *same* window onto every
    /// member of a risk group, which is what makes "independent" overlay
    /// paths fail together.
    pub down: Vec<(SimTime, SimTime)>,
}

impl SegmentSpec {
    /// An ideal segment: no loss, no failures, fixed delay.
    pub fn ideal(prop: SimDuration) -> Self {
        SegmentSpec {
            loss: GeParams::lossless(),
            outage: OutageParams::never(),
            latency: LatencyModel::fixed(prop),
            hot: Vec::new(),
            down: Vec::new(),
        }
    }
}

/// Live state of one segment.
#[derive(Debug, Clone)]
pub struct Segment {
    id: SegmentId,
    loss: GilbertElliott,
    outage: OutageProcess,
    latency: LatencyModel,
    /// `latency.jitter_mu()`, taken once.
    jitter_mu: f64,
    hot: Vec<(SimTime, SimTime, f64)>,
    down: Vec<(SimTime, SimTime)>,
    rng: Rng,
    crossings: u64,
    drops_outage: u64,
    drops_congestion: u64,
}

impl Segment {
    /// Animates a spec; `rng` must be a stream private to this segment.
    pub fn new(id: SegmentId, spec: SegmentSpec, rng: Rng) -> Self {
        Segment {
            id,
            loss: GilbertElliott::new(spec.loss),
            outage: OutageProcess::new(spec.outage),
            jitter_mu: spec.latency.jitter_mu(),
            latency: spec.latency,
            hot: spec.hot,
            down: spec.down,
            rng,
            crossings: 0,
            drops_outage: 0,
            drops_congestion: 0,
        }
    }

    /// This segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Heap bytes this segment owns beside itself: its scripted hot and
    /// down windows and its latency episodes.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        heap(&self.hot) + heap(&self.down) + heap(&self.latency.episodes)
    }

    /// Passes one packet across the segment at `now` under the global
    /// `load`. The loss process reads the intensity (load × hot windows)
    /// only on the crossings that draw a sojourn, so it is a thunk.
    pub fn transit(&mut self, now: SimTime, load: &LoadProfile) -> Transit {
        self.crossings += 1;
        if self.down.iter().any(|&(start, end)| now >= start && now < end) {
            self.drops_outage += 1;
            return Transit::Dropped(DropCause::Outage);
        }
        if self.outage.is_down(now, &mut self.rng) {
            self.drops_outage += 1;
            return Transit::Dropped(DropCause::Outage);
        }
        let hot = &self.hot;
        let intensity = || {
            let mut f = 1.0;
            for &(start, end, factor) in hot {
                if now >= start && now < end {
                    f *= factor;
                }
            }
            load.intensity(now) * f
        };
        let (congested, lost) = self.loss.observe_with(now, intensity, &mut self.rng);
        if lost {
            self.drops_congestion += 1;
            return Transit::Dropped(DropCause::Congestion);
        }
        Transit::Pass(self.latency.sample_with_mu(now, congested, self.jitter_mu, &mut self.rng))
    }

    /// Injects a forced outage (fault injection for tests/examples).
    pub fn force_outage(&mut self, now: SimTime, dur: SimDuration) {
        self.outage.force_down(now, dur);
    }

    /// (crossings, outage drops, congestion drops) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.crossings, self.drops_outage, self.drops_congestion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_spec() -> SegmentSpec {
        SegmentSpec::ideal(SimDuration::from_millis(10))
    }

    /// One crossing under flat load (intensity 1.0).
    fn cross(s: &mut Segment, now: SimTime) -> Transit {
        s.transit(now, &LoadProfile::flat())
    }

    #[test]
    fn ideal_segment_always_passes_with_fixed_delay() {
        let mut s = Segment::new(SegmentId(0), quiet_spec(), Rng::new(1));
        for i in 0..1000 {
            match cross(&mut s, SimTime::from_secs(i)) {
                Transit::Pass(d) => assert_eq!(d, SimDuration::from_millis(10)),
                Transit::Dropped(_) => panic!("ideal segment dropped a packet"),
            }
        }
        let (crossings, o, c) = s.counters();
        assert_eq!((crossings, o, c), (1000, 0, 0));
    }

    #[test]
    fn forced_outage_drops_everything_inside_window() {
        let mut s = Segment::new(SegmentId(1), quiet_spec(), Rng::new(2));
        s.force_outage(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert!(matches!(
            cross(&mut s, SimTime::from_secs(12)),
            Transit::Dropped(DropCause::Outage)
        ));
        assert!(matches!(cross(&mut s, SimTime::from_secs(16)), Transit::Pass(_)));
    }

    #[test]
    fn hot_window_raises_loss() {
        let mut spec = quiet_spec();
        spec.loss = GeParams::from_stationary_loss(0.002);
        spec.hot.push((SimTime::from_secs(0), SimTime::from_secs(3600), 40.0));
        let lossy = |spec: SegmentSpec, seed| {
            let mut s = Segment::new(SegmentId(2), spec, Rng::new(seed));
            let mut lost = 0u64;
            let n = 200_000u64;
            for i in 0..n {
                // Every 100 ms, all inside the first hour.
                if matches!(cross(&mut s, SimTime::from_millis(i * 18)), Transit::Dropped(_)) {
                    lost += 1;
                }
            }
            lost as f64 / n as f64
        };
        let mut cold = quiet_spec();
        cold.loss = GeParams::from_stationary_loss(0.002);
        let hot_rate = lossy(spec, 3);
        let cold_rate = lossy(cold, 3);
        assert!(hot_rate > 5.0 * cold_rate, "hot={hot_rate} cold={cold_rate}");
    }

    #[test]
    fn scripted_down_window_drops_everything_inside() {
        let mut spec = quiet_spec();
        spec.down.push((SimTime::from_secs(100), SimTime::from_secs(160)));
        let mut s = Segment::new(SegmentId(9), spec, Rng::new(7));
        assert!(matches!(cross(&mut s, SimTime::from_secs(99)), Transit::Pass(_)));
        assert!(matches!(
            cross(&mut s, SimTime::from_secs(100)),
            Transit::Dropped(DropCause::Outage)
        ));
        assert!(matches!(
            cross(&mut s, SimTime::from_secs(159)),
            Transit::Dropped(DropCause::Outage)
        ));
        assert!(matches!(cross(&mut s, SimTime::from_secs(160)), Transit::Pass(_)));
        let (_, outage_drops, _) = s.counters();
        assert_eq!(outage_drops, 2);
    }

    #[test]
    fn congestion_drop_cause_is_reported() {
        let mut spec = quiet_spec();
        spec.loss = GeParams::from_stationary_loss(0.5);
        let mut s = Segment::new(SegmentId(3), spec, Rng::new(4));
        let mut saw_congestion = false;
        for i in 0..10_000 {
            if let Transit::Dropped(c) = cross(&mut s, SimTime::from_millis(i)) {
                assert_eq!(c, DropCause::Congestion);
                saw_congestion = true;
            }
        }
        assert!(saw_congestion);
    }
}
