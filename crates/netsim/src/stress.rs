//! Scripted stress impairments: the spec-driven scenario models.
//!
//! The paper's three campaigns exercise the baseline Internet weather
//! (diurnal load, random storms, per-pair trouble). The specs in this
//! module script the *pathologies the related work says decide the
//! best-path vs. multi-path question*:
//!
//! * [`SharedRiskSpec`] — shared-risk link groups. Hosts whose access
//!   links ride a common provider fail **together**, so two overlay
//!   paths that look disjoint at the overlay layer (different
//!   intermediates) still share fate. This is where multipath's
//!   independence assumption breaks.
//! * [`LoadWaveSpec`] — a moving congestion hot spot that dwells on one
//!   host after another, sweeping the whole testbed once per period
//!   (think: the business day moving across time zones). Reactive
//!   routing must keep re-converging; the win depends on how fast the
//!   wave moves relative to the probe interval.
//! * [`FlashCrowdSpec`] — sudden demand spikes converging on a single
//!   destination: its access link saturates and the core routes toward
//!   it heat up. Detours help with the core congestion but share the
//!   destination edge — the paper's correlated-loss mechanism at its
//!   sharpest.
//! * [`AsymmetrySpec`] — direction-skewed paths: the forward direction
//!   of every pair is systematically dirtier/slower than the reverse
//!   (saturated peering, asymmetric routing). One-way methods see very
//!   different worlds in the two directions.
//!
//! All planners are **pure functions of (spec, seed, topology shape)**:
//! they compile the spec into scripted windows in the topology's side
//! table of windows per segment, before the network is animated;
//! [`Topology::spec`] attaches a segment's windows to the
//! [`SegmentSpec`](crate::segment::SegmentSpec) it hands the network. A
//! sharded run rebuilds the topology per slice from the same seed, so
//! every slice sees the identical schedule and the sharding
//! byte-identity invariant holds with no extra machinery.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology, TopologyParams};
use serde::{Deserialize, Serialize};

/// Shared-risk link groups: sets of hosts whose access links fail
/// together (a common upstream provider, a shared metro conduit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedRiskSpec {
    /// Number of independent risk groups to form.
    pub groups: usize,
    /// Hosts sampled (without replacement, per group) into each group.
    pub hosts_per_group: usize,
    /// Correlated failure events per group per simulated day.
    pub outages_per_day: f64,
    /// Duration range of one correlated outage, minutes.
    pub down_mins: (f64, f64),
}

/// Applies `spec` to `topo`: samples group membership and a failure
/// schedule from `seed`, then scripts the same down-window onto **both
/// access segments of every member** of the failing group, so all paths
/// touching any member die together.
pub fn apply_shared_risk(topo: &mut Topology, spec: &SharedRiskSpec, seed: u64) {
    let n = topo.n();
    let horizon = topo.params().horizon;
    let days = horizon.as_secs_f64() / 86_400.0;
    let mut rng = Rng::new(seed).derive(0x5A_0151);
    for _ in 0..spec.groups {
        // Sample distinct members via a partial shuffle.
        let mut pool: Vec<u16> = (0..n as u16).collect();
        rng.shuffle(&mut pool);
        let members: Vec<HostId> =
            pool.into_iter().take(spec.hosts_per_group.min(n)).map(HostId).collect();
        let events = (spec.outages_per_day * days).round() as usize;
        for _ in 0..events {
            let start =
                SimTime::ZERO + SimDuration::from_secs_f64(rng.uniform(0.0, horizon.as_secs_f64()));
            let dur = SimDuration::from_secs_f64(
                rng.uniform(spec.down_mins.0, spec.down_mins.1) * 60.0,
            );
            let window = (start, start + dur);
            for &h in &members {
                let (out, inn) = (topo.seg_out(h), topo.seg_in(h));
                topo.push_down(out, window);
                topo.push_down(inn, window);
            }
        }
    }
}

/// A moving congestion hot spot: dwells on one host's access links after
/// another, sweeping all hosts once per period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadWaveSpec {
    /// Time for the wave to visit every host once, hours.
    pub period_hours: f64,
    /// How long the hot spot sits on each host, minutes. Longer than the
    /// per-host slot (`period / n`) means neighbouring hosts overlap.
    pub dwell_mins: f64,
    /// Loss-intensity multiplier while a host is hot.
    pub hot_factor: f64,
}

/// Applies `spec` to `topo`: a deterministic schedule (no randomness —
/// the wave is a clock, not weather) of hot windows on each host's
/// access segments, host `h` hot at phase `h/n` of every cycle.
pub fn apply_load_wave(topo: &mut Topology, spec: &LoadWaveSpec) {
    let n = topo.n();
    let horizon = topo.params().horizon;
    let period = SimDuration::from_secs_f64(spec.period_hours * 3600.0);
    let dwell = SimDuration::from_secs_f64(spec.dwell_mins * 60.0);
    if period == SimDuration::ZERO {
        return;
    }
    let cycles = (horizon.as_micros() / period.as_micros()) + 1;
    for c in 0..cycles {
        let cycle_start = SimTime::ZERO + period.mul_f64(c as f64);
        for h in 0..n {
            let start = cycle_start + period.mul_f64(h as f64 / n as f64);
            let window = (start, start + dwell, spec.hot_factor);
            let (out, inn) = (topo.seg_out(HostId(h as u16)), topo.seg_in(HostId(h as u16)));
            topo.push_hot(out, window);
            topo.push_hot(inn, window);
        }
    }
}

/// Flash crowds: sudden demand spikes converging on one destination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdSpec {
    /// Events per simulated day.
    pub events_per_day: f64,
    /// Duration range of one event, minutes.
    pub duration_mins: (f64, f64),
    /// Intensity multiplier range on the victim's inbound access link;
    /// the core segments toward the victim get a quarter of the drawn
    /// factor (the crowd converges, the edge melts first).
    pub factor: (f64, f64),
}

/// Applies `spec` to `topo`: each event picks a victim host and scripts
/// a hot window on its inbound access segment (full factor) and on every
/// core segment leading to it (quarter factor).
pub fn apply_flash_crowds(topo: &mut Topology, spec: &FlashCrowdSpec, seed: u64) {
    let n = topo.n();
    let horizon = topo.params().horizon;
    let days = horizon.as_secs_f64() / 86_400.0;
    let mut rng = Rng::new(seed).derive(0xF1A5);
    let events = (spec.events_per_day * days).round() as usize;
    for _ in 0..events {
        let victim = HostId(rng.below(n as u64) as u16);
        let start =
            SimTime::ZERO + SimDuration::from_secs_f64(rng.uniform(0.0, horizon.as_secs_f64()));
        let dur = SimDuration::from_secs_f64(
            rng.uniform(spec.duration_mins.0, spec.duration_mins.1) * 60.0,
        );
        let factor = rng.uniform(spec.factor.0, spec.factor.1);
        let inn = topo.seg_in(victim);
        topo.push_hot(inn, (start, start + dur, factor));
        for src in 0..n as u16 {
            if src == victim.0 {
                continue;
            }
            let core = topo.seg_core(HostId(src), victim);
            topo.push_hot(core, (start, start + dur, factor * 0.25));
        }
    }
}

/// Direction-skewed paths: forward loss/delay systematically worse than
/// reverse. Applied to [`TopologyParams`] *before* the build (the skew
/// shapes the stationary loss draw, not a scripted window).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsymmetrySpec {
    /// Multiplier on forward-direction core loss (reverse gets its
    /// inverse). Must be positive.
    pub loss_skew: f64,
    /// Extra one-way propagation on the forward direction, milliseconds.
    pub delay_skew_ms: f64,
}

impl AsymmetrySpec {
    /// Writes the skew into `params` (see
    /// [`TopologyParams::dir_loss_skew`]).
    pub fn apply(&self, params: &mut TopologyParams) {
        assert!(self.loss_skew > 0.0, "loss_skew must be positive");
        params.dir_loss_skew = self.loss_skew;
        params.dir_delay_skew = SimDuration::from_secs_f64(self.delay_skew_ms / 1000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegmentId, SegmentSpec};

    /// Every segment's spec, in id order.
    fn all_specs(topo: &Topology) -> Vec<SegmentSpec> {
        (0..topo.segments()).map(|i| topo.spec(SegmentId(i as u32))).collect()
    }

    #[test]
    fn shared_risk_scripts_identical_windows_on_all_members() {
        let mut topo = Topology::synthetic(6, 0.0, 1);
        apply_shared_risk(
            &mut topo,
            &SharedRiskSpec {
                groups: 1,
                hosts_per_group: 3,
                outages_per_day: 12.0,
                down_mins: (5.0, 15.0),
            },
            1,
        );
        let touched: Vec<Vec<(SimTime, SimTime)>> = all_specs(&topo)
            .into_iter()
            .map(|s| s.down)
            .filter(|d| !d.is_empty())
            .collect();
        // 3 members × 2 directions.
        assert_eq!(touched.len(), 6);
        // Every member carries the same schedule (that's the shared risk).
        assert!(touched.windows(2).all(|w| w[0] == w[1]));
        assert!(!touched[0].is_empty());
    }

    #[test]
    fn shared_risk_is_deterministic_in_seed() {
        let build = |seed| {
            let mut t = Topology::synthetic(8, 0.0, 3);
            let spec = SharedRiskSpec {
                groups: 2,
                hosts_per_group: 3,
                outages_per_day: 6.0,
                down_mins: (5.0, 20.0),
            };
            apply_shared_risk(&mut t, &spec, seed);
            all_specs(&t).into_iter().map(|s| s.down).collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn load_wave_covers_every_host_each_cycle() {
        let mut topo = Topology::synthetic(4, 0.0, 2);
        apply_load_wave(
            &mut topo,
            &LoadWaveSpec { period_hours: 8.0, dwell_mins: 60.0, hot_factor: 30.0 },
        );
        let horizon = topo.params().horizon;
        for h in 0..4u16 {
            let out = topo.spec(topo.seg_out(HostId(h)));
            assert!(!out.hot.is_empty(), "host {h} never gets hot");
            // Windows are staggered: host h's first window starts at h/n
            // of the cycle.
            let first = out.hot[0].0;
            let expected = SimTime::ZERO + SimDuration::from_secs_f64(h as f64 / 4.0 * 8.0 * 3600.0);
            assert_eq!(first, expected);
            // The wave repeats across the horizon.
            let last = out.hot.last().unwrap().0;
            assert!(last + SimDuration::from_hours(9) > SimTime::ZERO + horizon);
        }
    }

    #[test]
    fn flash_crowd_heats_victim_edge_more_than_core() {
        let mut topo = Topology::synthetic(5, 0.0, 4);
        apply_flash_crowds(
            &mut topo,
            &FlashCrowdSpec {
                events_per_day: 10.0,
                duration_mins: (10.0, 30.0),
                factor: (100.0, 200.0),
            },
            4,
        );
        let n = topo.n();
        let specs = all_specs(&topo);
        let edge_windows: usize = specs[..2 * n].iter().map(|s| s.hot.len()).sum();
        let core_windows: usize = specs[2 * n..].iter().map(|s| s.hot.len()).sum();
        assert!(edge_windows > 0, "no flash crowd landed");
        // Each event heats 1 edge and n-1 cores.
        assert_eq!(core_windows, edge_windows * (n - 1));
        let edge_factor = specs
            .iter()
            .take(2 * n)
            .flat_map(|s| s.hot.iter())
            .map(|w| w.2)
            .fold(0.0f64, f64::max);
        let core_factor = specs
            .iter()
            .skip(2 * n)
            .flat_map(|s| s.hot.iter())
            .map(|w| w.2)
            .fold(0.0f64, f64::max);
        assert!(edge_factor > core_factor * 3.9, "edge {edge_factor} core {core_factor}");
    }

    #[test]
    fn asymmetry_skews_forward_loss_and_delay() {
        let mut params = Topology::synthetic_params(0.001);
        AsymmetrySpec { loss_skew: 4.0, delay_skew_ms: 25.0 }.apply(&mut params);
        let topo = Topology::synthetic_with(6, 0.001, params, 5);
        let (a, b) = (HostId(1), HostId(4));
        let fwd = topo.spec(topo.seg_core(a, b));
        let rev = topo.spec(topo.seg_core(b, a));
        let ratio = fwd.loss.stationary_loss(1.0) / rev.loss.stationary_loss(1.0);
        assert!((ratio - 16.0).abs() < 0.5, "skew² expected, got {ratio}");
        // Per-pair inflation draws differ by direction, so assert the
        // *mean* forward-minus-reverse delay over all pairs: the random
        // part cancels and the scripted 25 ms skew remains.
        let mut diff_ms = 0.0;
        let mut pairs = 0.0;
        for i in 0..6u16 {
            for j in (i + 1)..6u16 {
                let f = topo.spec(topo.seg_core(HostId(i), HostId(j)));
                let r = topo.spec(topo.seg_core(HostId(j), HostId(i)));
                diff_ms += f.latency.prop.as_millis_f64() - r.latency.prop.as_millis_f64();
                pairs += 1.0;
            }
        }
        let mean = diff_ms / pairs;
        assert!((15.0..35.0).contains(&mean), "mean directional skew {mean}ms, want ~25");
    }
}
