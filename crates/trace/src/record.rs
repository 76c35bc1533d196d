//! Measurement event and outcome records.

use netsim::{HostId, SimTime};

/// Maximum redundant legs per probe, mirroring the wire format's cap
/// (`overlay::wire::MAX_PROBE_LEGS` — the crates are siblings, so the
/// value is duplicated here and pinned equal by a cross-crate test in
/// `mpath-core`). Probe records size their leg arrays to this bound.
pub const MAX_PROBE_LEGS: usize = 4;

/// A measurement packet leaving its origin host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendEvent {
    /// Random 64-bit probe identifier, shared by every leg of a probe.
    pub id: u64,
    /// Method registry index.
    pub method: u8,
    /// Leg within the probe (`0..MAX_PROBE_LEGS`).
    pub leg: u8,
    /// Measured path source.
    pub src: HostId,
    /// Measured path destination.
    pub dst: HostId,
    /// Route kind tag (see `overlay::RouteTag`).
    pub route: u8,
    /// True (simulator) send instant.
    pub sent: SimTime,
    /// The origin host's local clock at transmission, microseconds.
    pub sent_local_us: i64,
}

/// A measurement packet arriving at its destination (or, for round-trip
/// datasets, its echo arriving back at the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvEvent {
    /// Echoed probe identifier.
    pub id: u64,
    /// Leg within the probe (`0..MAX_PROBE_LEGS`).
    pub leg: u8,
    /// True (simulator) receive instant.
    pub recv: SimTime,
    /// The receiving host's local clock, microseconds.
    pub recv_local_us: i64,
}

/// The resolved fate of one measurement leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegOutcome {
    /// Route kind tag.
    pub route: u8,
    /// True when no matching receive arrived inside the window.
    pub lost: bool,
    /// `recv_local − sent_local` in microseconds when received. May be
    /// negative under clock skew; the analysis layer corrects it by
    /// averaging with the reverse path (§4.1).
    pub one_way_us: Option<i64>,
}

/// Leg-state byte: the slot holds no leg.
const LEG_ABSENT: u8 = 0;
/// Leg-state byte: the leg was sent and lost.
const LEG_LOST: u8 = 1;
/// Leg-state byte: the leg arrived.
const LEG_RECEIVED: u8 = 2;

/// Sentinel in the packed `one_way` slots of legs without a measured
/// one-way time. Real measurements are clock differences within a
/// receive window of the send — nowhere near `i64::MIN`.
const ONE_WAY_NONE: i64 = i64::MIN;

/// A fully resolved probe: one to [`MAX_PROBE_LEGS`] redundant legs
/// sharing a probe id. Two-leg probes are the paper's pairs; the name
/// survives the k-leg generalization because every downstream consumer
/// still thinks in "pairs observed".
///
/// Legs are stored packed — a state byte, a route byte and a
/// sentinel-coded `one_way_us` per slot — instead of the former
/// `[Option<LegOutcome>; MAX_PROBE_LEGS]`, which cost ~120 bytes per
/// outcome and dominated the windowed-accumulation hot path. The
/// [`leg`](Self::leg) accessor (and [`legs`](Self::legs)) still speak
/// `Option<LegOutcome>`, so consumers are layout-agnostic. No frame,
/// log or fixture carries an outcome, so it has no serde form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// Probe identifier.
    pub id: u64,
    /// Method registry index.
    pub method: u8,
    /// Path source.
    pub src: HostId,
    /// Path destination.
    pub dst: HostId,
    /// True send instant of the first leg.
    pub sent: SimTime,
    /// Per-slot state byte (absent / lost / received).
    state: [u8; MAX_PROBE_LEGS],
    /// Per-slot route tag (meaningful only when the slot is present).
    route: [u8; MAX_PROBE_LEGS],
    /// Per-slot one-way time, [`ONE_WAY_NONE`] when unmeasured.
    one_way: [i64; MAX_PROBE_LEGS],
    /// True when the §4.1 host-failure filter discards this sample.
    pub discarded: bool,
}

impl PairOutcome {
    /// Builds an outcome from per-slot leg options — the one
    /// construction path, so the packed encoding is normalized (absent
    /// slots always carry route 0 and the one-way sentinel, keeping
    /// derived `PartialEq` honest).
    pub fn from_legs(
        id: u64,
        method: u8,
        src: HostId,
        dst: HostId,
        sent: SimTime,
        legs: [Option<LegOutcome>; MAX_PROBE_LEGS],
        discarded: bool,
    ) -> PairOutcome {
        let mut state = [LEG_ABSENT; MAX_PROBE_LEGS];
        let mut route = [0u8; MAX_PROBE_LEGS];
        let mut one_way = [ONE_WAY_NONE; MAX_PROBE_LEGS];
        for (i, leg) in legs.iter().enumerate() {
            if let Some(l) = leg {
                state[i] = if l.lost { LEG_LOST } else { LEG_RECEIVED };
                route[i] = l.route;
                if let Some(us) = l.one_way_us {
                    debug_assert_ne!(us, ONE_WAY_NONE, "one_way_us collides with the sentinel");
                    one_way[i] = us;
                }
            }
        }
        PairOutcome { id, method, src, dst, sent, state, route, one_way, discarded }
    }

    /// The outcome of leg slot `i`, `None` for an empty slot.
    #[inline]
    pub fn leg(&self, i: usize) -> Option<LegOutcome> {
        match self.state[i] {
            LEG_ABSENT => None,
            s => Some(LegOutcome {
                route: self.route[i],
                lost: s == LEG_LOST,
                one_way_us: (self.one_way[i] != ONE_WAY_NONE).then(|| self.one_way[i]),
            }),
        }
    }

    /// All leg slots in order, as the former public array read.
    pub fn legs(&self) -> [Option<LegOutcome>; MAX_PROBE_LEGS] {
        std::array::from_fn(|i| self.leg(i))
    }

    /// True when every present leg was lost (the probe failed
    /// end-to-end).
    #[inline]
    pub fn all_lost(&self) -> bool {
        self.prefix_all_lost(MAX_PROBE_LEGS)
    }

    /// True when the first `j` leg slots hold at least one leg and every
    /// present one was lost — "the application sent j copies and none
    /// arrived". `prefix_all_lost(1)` is the paper's first-packet loss;
    /// `prefix_all_lost(MAX_PROBE_LEGS)` is [`all_lost`](Self::all_lost).
    #[inline]
    pub fn prefix_all_lost(&self, j: usize) -> bool {
        let mut any = false;
        for &s in self.state.iter().take(j) {
            if s == LEG_RECEIVED {
                return false;
            }
            any |= s != LEG_ABSENT;
        }
        any
    }

    /// The smallest observed one-way time across received legs (the copy
    /// the application would have used first), microseconds.
    #[inline]
    pub fn best_one_way_us(&self) -> Option<i64> {
        self.best_of_first_one_way_us(MAX_PROBE_LEGS)
    }

    /// The smallest observed one-way time across the first `j` legs —
    /// what an application sending only j copies would have seen.
    #[inline]
    fn best_of_first_one_way_us(&self, j: usize) -> Option<i64> {
        self.one_way
            .iter()
            .take(j)
            .copied()
            .filter(|&us| us != ONE_WAY_NONE)
            .min()
    }

    /// Number of legs present (1 to [`MAX_PROBE_LEGS`]).
    pub fn leg_count(&self) -> usize {
        self.state.iter().filter(|&&s| s != LEG_ABSENT).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(lost: bool, one_way: Option<i64>) -> Option<LegOutcome> {
        Some(LegOutcome { route: 0, lost, one_way_us: one_way })
    }

    fn pair(first_two: [Option<LegOutcome>; 2]) -> PairOutcome {
        probe([first_two[0], first_two[1], None, None])
    }

    fn probe(legs: [Option<LegOutcome>; MAX_PROBE_LEGS]) -> PairOutcome {
        PairOutcome::from_legs(1, 0, HostId(0), HostId(1), SimTime::ZERO, legs, false)
    }

    #[test]
    fn all_lost_requires_every_leg_lost() {
        assert!(pair([leg(true, None), leg(true, None)]).all_lost());
        assert!(!pair([leg(true, None), leg(false, Some(10))]).all_lost());
        assert!(!pair([leg(false, Some(10)), None]).all_lost());
        assert!(pair([leg(true, None), None]).all_lost());
    }

    #[test]
    fn empty_pair_is_not_lost() {
        assert!(!pair([None, None]).all_lost());
    }

    #[test]
    fn four_leg_probe_generalizes_the_pair_predicates() {
        let p = probe([leg(true, None), leg(true, None), leg(false, Some(40_000)), leg(true, None)]);
        assert!(!p.all_lost(), "the third copy arrived");
        assert_eq!(p.leg_count(), 4);
        assert!(p.prefix_all_lost(1), "first copy lost");
        assert!(p.prefix_all_lost(2), "first two copies lost");
        assert!(!p.prefix_all_lost(3), "three copies include the arrival");
        assert!(!p.prefix_all_lost(4));
        assert_eq!(p.best_one_way_us(), Some(40_000));
        assert_eq!(p.best_of_first_one_way_us(2), None);
        assert_eq!(p.best_of_first_one_way_us(3), Some(40_000));
        let dead = probe([leg(true, None); MAX_PROBE_LEGS]);
        assert!(dead.all_lost());
        assert!(!probe([None; MAX_PROBE_LEGS]).prefix_all_lost(4), "no legs, no loss");
    }

    #[test]
    fn best_one_way_picks_minimum() {
        let p = pair([leg(false, Some(500)), leg(false, Some(300))]);
        assert_eq!(p.best_one_way_us(), Some(300));
        let q = pair([leg(true, None), leg(false, Some(300))]);
        assert_eq!(q.best_one_way_us(), Some(300));
        let r = pair([leg(true, None), leg(true, None)]);
        assert_eq!(r.best_one_way_us(), None);
    }

    #[test]
    fn leg_count_counts_present() {
        assert_eq!(pair([leg(false, Some(1)), None]).leg_count(), 1);
        assert_eq!(pair([leg(false, Some(1)), leg(true, None)]).leg_count(), 2);
    }

    #[test]
    fn leg_accessor_round_trips_every_slot() {
        let legs = [leg(false, Some(-250)), leg(true, None), None, leg(false, None)];
        let p = probe(legs);
        assert_eq!(p.legs(), legs);
        for (i, want) in legs.iter().enumerate() {
            assert_eq!(p.leg(i), *want, "slot {i}");
        }
    }

    #[test]
    fn packed_layout_stays_compact() {
        // The whole point of the packed encoding: a cache line per
        // outcome, not the ~120 bytes of the Option-array layout.
        assert!(
            std::mem::size_of::<PairOutcome>() <= 64,
            "PairOutcome grew to {} bytes",
            std::mem::size_of::<PairOutcome>()
        );
    }
}
