//! The animated network: transmits packets across a topology.
//!
//! [`Network`] owns the live state of every segment a packet has crossed
//! (segments animate on first use, see [`Network`]) plus per-host
//! process-liveness, and answers one question: *a packet leaves `src`
//! for `dst` at time `t` — when does it arrive, if at all?* All policy
//! (probing, routing, duplication) lives in higher crates.

use crate::load::LoadProfile;
use crate::outage::{OutageParams, OutageProcess};
use crate::rng::Rng;
use crate::segment::{DropCause, Segment, SegmentId, Transit};
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, Topology};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of handing one packet to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Packet will arrive after `delay`.
    Delivered {
        /// Total one-way delay across the three segments.
        delay: SimDuration,
    },
    /// Packet died.
    Dropped {
        /// Segment where it died.
        segment: SegmentId,
        /// Why.
        cause: DropCause,
    },
}

impl Delivery {
    /// True when the packet survived.
    pub fn is_delivered(&self) -> bool {
        matches!(self, Delivery::Delivered { .. })
    }
}

/// Aggregate flow counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetCounters {
    /// Packets offered to the network.
    pub sent: u64,
    /// Packets that arrived.
    pub delivered: u64,
    /// Drops inside failure windows.
    pub dropped_outage: u64,
    /// Congestion drops.
    pub dropped_congestion: u64,
    /// Link-state dissemination payload bytes offered to the network
    /// (piggybacked metric vectors and standalone LSA packets alike, as
    /// encoded on the wire). Excluded from output fingerprints so the
    /// dissemination mode stays a free knob.
    pub lsa_bytes: u64,
    /// Link-state metric entries offered (the byte figure's unit-free
    /// companion).
    pub lsa_entries: u64,
}

impl NetCounters {
    /// Overall loss rate.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.delivered as f64 / self.sent as f64
        }
    }

    /// Folds another run's counters into this one (sharded-run merge).
    pub fn merge(&mut self, other: &NetCounters) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_outage += other.dropped_outage;
        self.dropped_congestion += other.dropped_congestion;
        self.lsa_bytes += other.lsa_bytes;
        self.lsa_entries += other.lsa_entries;
    }
}

/// Live network state for one experiment run.
///
/// Segments animate on first use: a slot of `segments` stays `None`
/// until a [`Self::transmit`] or [`Self::segment_mut`] names it, so a
/// run holds live state for the segments it crossed, not for every
/// ordered host pair of the testbed (a k-regular mesh transmits on n·k
/// of its n² core segments). The spec itself is materialised then too:
/// the topology keeps only each core's per-pair draws, and
/// [`Topology::spec`] derives the spec on first transit. This is exact,
/// not approximate: a segment is built from its own spec and from an RNG
/// stream derived from the seed and *its id alone*, and its processes
/// initialise at their first observation — so when, and in what order,
/// segments come to exist cannot move a draw.
pub struct Network {
    topo: Arc<Topology>,
    /// One slot per [`SegmentId`]; the never-touched pages of this
    /// zero-initialised pointer table cost nothing.
    segments: Vec<Option<Box<Segment>>>,
    animated: usize,
    /// Parent of every segment's stream (and of `host_rng`).
    root: Rng,
    host_proc: Vec<OutageProcess>,
    host_rng: Rng,
    load: LoadProfile,
    counters: NetCounters,
}

impl Network {
    /// A network over `topo`; all randomness derives from `seed`. Takes
    /// the topology by value or as a shared `Arc` (the slices of one
    /// campaign share theirs).
    pub fn new(topo: impl Into<Arc<Topology>>, seed: u64) -> Self {
        let topo = topo.into();
        let root = Rng::new(seed);
        // Host process crashes: rare, minutes-long (the events the
        // collector's 90 s rule must filter, §4.1).
        // Volunteer-testbed flakiness: measurement processes restart,
        // hosts reboot, links get unplugged. Roughly 1% downtime per
        // host — invisible to the endpoint filter when the host serves
        // as a forwarding intermediate, which is a big part of why
        // random-intermediate legs lose several times more packets than
        // direct ones (Tables 5 and 7).
        let crash_params = if topo.params().host_crashes {
            OutageParams {
                mean_up: SimDuration::from_secs(130_000), // ~1.5 days
                min_down: SimDuration::from_mins(4),
                alpha: 1.2,
                max_down: SimDuration::from_hours(2),
            }
        } else {
            OutageParams::never()
        };
        let host_proc = (0..topo.n()).map(|_| OutageProcess::new(crash_params)).collect();
        Network {
            segments: vec![None; topo.segments()],
            animated: 0,
            topo,
            host_proc,
            host_rng: root.derive(0xCAFE),
            root,
            load: LoadProfile::diurnal(),
            counters: NetCounters::default(),
        }
    }

    /// The underlying topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Replaces the load profile (tests use [`LoadProfile::flat`]).
    pub fn set_load(&mut self, load: LoadProfile) {
        self.load = load;
    }

    /// Current load intensity.
    pub fn intensity(&self, now: SimTime) -> f64 {
        self.load.intensity(now)
    }

    /// Is the host process alive at `now`? (Network connectivity is a
    /// separate matter — this models crashes/restarts of the measurement
    /// process itself.)
    pub fn host_up(&mut self, h: HostId, now: SimTime) -> bool {
        !self.host_proc[h.idx()].is_down(now, &mut self.host_rng)
    }

    /// Transmits one packet on the one-way overlay hop `src → dst`.
    ///
    /// The caller is responsible for checking host liveness; the network
    /// only models wires. Each segment is sampled at the instant the
    /// packet actually crosses it.
    pub fn transmit(&mut self, now: SimTime, src: HostId, dst: HostId) -> Delivery {
        debug_assert_ne!(src, dst, "no self-hops on the overlay");
        self.counters.sent += 1;
        let load = self.load; // a copy: `segment_mut` borrows all of `self`
        let mut t = now;
        for seg_id in self.topo.path(src, dst) {
            match self.segment_mut(seg_id).transit(t, &load) {
                Transit::Pass(d) => t += d,
                Transit::Dropped(cause) => {
                    match cause {
                        DropCause::Outage => self.counters.dropped_outage += 1,
                        DropCause::Congestion => self.counters.dropped_congestion += 1,
                        DropCause::HostDown => {}
                    }
                    return Delivery::Dropped { segment: seg_id, cause };
                }
            }
        }
        self.counters.delivered += 1;
        Delivery::Delivered { delay: t - now }
    }

    /// Local (possibly skewed) clock reading of `host` at true time `t`,
    /// microseconds.
    pub fn local_micros(&self, host: HostId, t: SimTime) -> i64 {
        self.topo.clock(host).local_micros(t)
    }

    /// Flow counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Accounts link-state dissemination payload carried by a packet the
    /// caller just offered to [`Self::transmit`] (the network itself is
    /// payload-blind, so the overlay driver reports the cost).
    pub fn note_lsa(&mut self, bytes: u64, entries: u64) {
        self.counters.lsa_bytes += bytes;
        self.counters.lsa_entries += entries;
    }

    /// Mutable access to a segment, animating it if this is its first
    /// use (every crossing, and fault injection in tests/examples).
    pub fn segment_mut(&mut self, id: SegmentId) -> &mut Segment {
        let Network { segments, animated, topo, root, .. } = self;
        let i = id.0 as usize;
        segments[i].get_or_insert_with(|| {
            *animated += 1;
            Box::new(Segment::new(id, topo.spec(id), root.derive(0x5E6 + i as u64)))
        })
    }

    /// How many segments have been animated so far.
    pub fn animated_segments(&self) -> usize {
        self.animated
    }

    /// Heap bytes of the live network state: the segment slot table,
    /// every animated segment's box and the windows and episodes it
    /// owns, and the host processes. The topology is shared between
    /// slices and reports itself ([`Topology::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let animated = self.segments.iter().flatten();
        self.segments.capacity() * size_of::<Option<Box<Segment>>>()
            + animated.map(|s| size_of::<Segment>() + s.heap_bytes()).sum::<usize>()
            + self.host_proc.capacity() * size_of::<OutageProcess>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn lossless_synthetic_delivers_everything() {
        let topo = Topology::synthetic(4, 0.0, 1);
        let mut net = Network::new(topo, 1);
        net.set_load(LoadProfile::flat());
        let (a, b) = (HostId(0), HostId(2));
        for i in 0..1000 {
            let d = net.transmit(SimTime::from_secs(i), a, b);
            assert!(d.is_delivered(), "dropped at t={i}: {d:?}");
        }
        assert_eq!(net.counters().sent, 1000);
        assert_eq!(net.counters().delivered, 1000);
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        // 1% per edge + small core → ~2% per path.
        let topo = Topology::synthetic(4, 0.01, 2);
        let mut net = Network::new(topo, 2);
        net.set_load(LoadProfile::flat());
        let pairs = net.topo().ordered_pairs();
        let mut t = SimTime::ZERO;
        let n = 120_000;
        for i in 0..n {
            let (a, b) = pairs[i % pairs.len()];
            net.transmit(t, a, b);
            t += SimDuration::from_millis(137);
        }
        let rate = net.counters().loss_rate();
        assert!((0.012..0.034).contains(&rate), "rate={rate}");
    }

    #[test]
    fn delay_roughly_geographic() {
        let topo = Topology::ron2003(3);
        let mit = topo.host_by_name("MIT").unwrap();
        let lon = topo.host_by_name("GBLX-LON").unwrap();
        let mazu = topo.host_by_name("Mazu").unwrap();
        let mut net = Network::new(topo, 3);
        net.set_load(LoadProfile::flat());
        let mean_delay = |net: &mut Network, a, b| {
            let mut sum = 0.0;
            let mut n = 0;
            for i in 0..300 {
                if let Delivery::Delivered { delay } =
                    net.transmit(SimTime::from_secs(40 + i * 7), a, b)
                {
                    sum += delay.as_millis_f64();
                    n += 1;
                }
            }
            sum / n as f64
        };
        let far = mean_delay(&mut net, mit, lon);
        let near = mean_delay(&mut net, mit, mazu);
        assert!(far > 25.0, "transatlantic {far}ms");
        assert!(near < 15.0, "metro {near}ms");
    }

    /// `segment_mut` on a segment no packet has crossed yet animates it,
    /// and the outage injected into it holds for the transmits after.
    #[test]
    fn forced_outage_kills_direct_but_not_detour() {
        let topo = Topology::synthetic(4, 0.0, 4);
        let (a, b, c) = (HostId(0), HostId(1), HostId(2));
        let core_ab = topo.seg_core(a, b);
        let mut net = Network::new(topo, 4);
        net.set_load(LoadProfile::flat());
        let t = SimTime::from_secs(100);
        net.segment_mut(core_ab).force_outage(t, SimDuration::from_secs(60));
        assert_eq!(net.animated_segments(), 1);
        assert!(!net.transmit(t, a, b).is_delivered(), "direct must die");
        // Detour a→c and c→b avoids the failed core segment.
        assert!(net.transmit(t, a, c).is_delivered());
        assert!(net.transmit(t, c, b).is_delivered());
    }

    #[test]
    fn segments_animate_on_first_use_only() {
        let mut net = Network::new(Topology::synthetic(480, 0.01, 5), 5);
        assert_eq!(net.animated_segments(), 0, "building a network animates nothing");
        let mut rng = Rng::new(5);
        let transmits = 500;
        for i in 0..transmits {
            let src = rng.below(480) as u16;
            let dst = (src + 1 + rng.below(479) as u16) % 480;
            net.transmit(SimTime::from_millis(i * 10), HostId(src), HostId(dst));
        }
        let animated = net.animated_segments();
        assert!(animated > 0 && animated <= 3 * transmits as usize, "animated {animated}");
        // Crossing the same three segments again animates nothing new.
        net.transmit(SimTime::from_secs(10), HostId(7), HostId(9));
        let after_first = net.animated_segments();
        let bytes = net.approx_bytes();
        net.transmit(SimTime::from_secs(11), HostId(7), HostId(9));
        assert_eq!(net.animated_segments(), after_first);
        assert_eq!(net.approx_bytes(), bytes);
    }

    /// The reported bytes are the slot table, the host processes, a box
    /// per animated segment and the windows each box owns.
    #[test]
    fn approx_bytes_counts_the_slot_table_and_each_animated_segment() {
        let mut topo = Topology::synthetic(8, 0.01, 6);
        let (a, b) = (HostId(0), HostId(1));
        let down = (SimTime::from_secs(50), SimTime::from_secs(60));
        topo.push_down(topo.seg_core(a, b), down);
        let mut net = Network::new(topo, 6);
        let table = net.topo().segments() * std::mem::size_of::<Option<Box<Segment>>>()
            + 8 * std::mem::size_of::<OutageProcess>();
        assert_eq!(net.approx_bytes(), table, "nothing animated yet");
        net.transmit(SimTime::from_secs(1), a, b);
        assert_eq!(net.animated_segments(), 3);
        let boxes = 3 * std::mem::size_of::<Segment>();
        // The down window's vector holds at least it, within a small
        // vector's first allocation.
        let window = std::mem::size_of_val(&down);
        let bytes = net.approx_bytes() - table - boxes;
        assert!((window..=4 * window).contains(&bytes), "{bytes} bytes beside the boxes");
    }

    /// A segment's stream derives from the seed and its own id, so the
    /// order in which segments come to exist cannot move a draw: two
    /// networks that carry the same timed schedule on two disjoint
    /// pairs, one starting with pair A and one with pair B, see the
    /// same deliveries on each pair.
    #[test]
    fn animation_order_cannot_matter() {
        let pair_a = (HostId(0), HostId(1));
        let pair_b = (HostId(2), HostId(3));
        let carry = |net: &mut Network, (src, dst): (HostId, HostId)| -> Vec<Delivery> {
            (0..4_000).map(|i| net.transmit(SimTime::from_millis(i * 23), src, dst)).collect()
        };
        let mut a_first = Network::new(Topology::synthetic(6, 0.05, 8), 8);
        let a1 = carry(&mut a_first, pair_a);
        let b1 = carry(&mut a_first, pair_b);
        let mut b_first = Network::new(Topology::synthetic(6, 0.05, 8), 8);
        let b2 = carry(&mut b_first, pair_b);
        let a2 = carry(&mut b_first, pair_a);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.iter().any(|d| !d.is_delivered()), "the schedule must see loss");
        assert_ne!(a1, b1, "the two pairs draw from different streams");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let topo = Topology::ron2003(9);
            let mut net = Network::new(topo, 9);
            let pairs = net.topo().ordered_pairs();
            let mut outcomes = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..5_000 {
                let (a, b) = pairs[i % pairs.len()];
                outcomes.push(net.transmit(t, a, b).is_delivered());
                t += SimDuration::from_millis(311);
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn host_crash_filter_source_exists() {
        let topo = Topology::ron2003(10);
        let mut net = Network::new(topo, 10);
        // Over two weeks some host must be down at some point.
        // Sample each host every 10 minutes over two weeks; crash windows
        // are minutes long, so this grid cannot miss them all.
        let mut saw_down = false;
        'outer: for step in 0..(14 * 144) {
            for h in 0..30u16 {
                if !net.host_up(HostId(h), SimTime::from_secs(step * 600)) {
                    saw_down = true;
                    break 'outer;
                }
            }
        }
        assert!(saw_down, "expected at least one host crash in 14 days");
    }

    #[test]
    fn synthetic_without_crashes_is_always_up() {
        let topo = Topology::synthetic(5, 0.01, 11);
        let mut net = Network::new(topo, 11);
        for d in 0..30u64 {
            for h in 0..5u16 {
                assert!(net.host_up(HostId(h), SimTime::from_secs(d * 86_400)));
            }
        }
    }
}
