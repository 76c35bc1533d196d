//! The outside-in cost model: for each workload, each layer's share of
//! the run is *its ns per operation at the workload's operating point ×
//! the workload's operation count ÷ the run's busy seconds*, and
//! `model.coverage` is the sum of the shares. The operation counts use
//! only `ExperimentOutput` counters and workload constants (formulas
//! below and in the README). What coverage leaves unexplained is runner
//! glue, cache effects and whatever only in-program counters can see.

use crate::workloads::Counters;

/// Constants of a workload's job that the op-count formulas need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConsts {
    /// Targets echo every leg back (doubles measurement transmissions).
    pub round_trip: bool,
    /// Accumulator feeds per resolved pair: 1 + inferred views ÷ sent
    /// methods (hosts cycle the methods uniformly, and each view re-feeds
    /// the outcomes of exactly one method).
    pub feeds_per_outcome: f64,
    /// Mean pause between a host's probes, seconds.
    pub mean_wait_s: f64,
}

/// Per-operation costs at one operating point, nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCosts {
    /// One event-queue pop + push.
    pub push_pop_ns: f64,
    /// One `Network::transmit`.
    pub transit_ns: f64,
    /// One `Network::host_up`.
    pub host_up_ns: f64,
    /// One overlay packet through a node (timer work amortised in).
    pub node_packet_ns: f64,
    /// One measurement leg through the collector.
    pub leg_ns: f64,
    /// One outcome into `LossAccum`.
    pub loss_outcome_ns: f64,
    /// One outcome into one `WindowAccum`.
    pub window_outcome_ns: f64,
}

/// Operation counts of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ops {
    /// Events popped: deliveries + measurement wakes + node timers.
    pub pops: f64,
    /// Underlay transmissions.
    pub transits: f64,
    /// Overlay (probe / LSA) packets a node handled.
    pub node_packets: f64,
    /// Measurement legs.
    pub legs: f64,
    /// Outcomes fed to the accumulators.
    pub feeds: f64,
}

/// The op-count formulas.
pub fn ops(c: &Counters, k: &JobConsts) -> Ops {
    let (sent, delivered) = (c.sent as f64, c.delivered as f64);
    let delivered_share = if c.sent == 0 { 0.0 } else { delivered / sent };
    // A leg is one transmission, or two through an intermediate; an
    // echoed leg doubles both.
    let echo = if k.round_trip { 2.0 } else { 1.0 };
    let measure_tx = (c.measure_legs + c.via_legs) as f64 * echo;
    // Everything else offered to the underlay is overlay traffic; the
    // delivered part of it reaches a node's `on_packet`.
    let node_packets = (sent - measure_tx).max(0.0) * delivered_share;
    // One wake per host per mean pause; one node timer per probe sent.
    let wakes = c.n as f64 * c.sim_s / k.mean_wait_s;
    Ops {
        pops: delivered + wakes + c.overlay_probes as f64,
        transits: sent,
        node_packets,
        legs: c.measure_legs as f64,
        feeds: c.resolved as f64 * k.feeds_per_outcome,
    }
}

/// Layer shares of a run's busy time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    /// `netsim::event`.
    pub event: f64,
    /// `netsim::net` (transit + one liveness check per popped event).
    pub net: f64,
    /// `overlay::node` (prober + table + dissemination).
    pub node: f64,
    /// `trace::collect`.
    pub collect: f64,
    /// `analysis::{loss, windows}` (one loss + two window accumulators).
    pub analysis: f64,
}

impl Shares {
    /// Σ shares: how much of the run the outside view explains.
    pub fn coverage(&self) -> f64 {
        self.event + self.net + self.node + self.collect + self.analysis
    }
}

/// Shares of `busy_s` (CPU seconds over all threads; equals wall time
/// for the sequential workloads).
pub fn shares(u: &UnitCosts, o: &Ops, busy_s: f64) -> Shares {
    let of = |ns: f64| ns * 1e-9 / busy_s;
    Shares {
        event: of(o.pops * u.push_pop_ns),
        net: of(o.transits * u.transit_ns + o.pops * u.host_up_ns),
        node: of(o.node_packets * u.node_packet_ns),
        collect: of(o.legs * u.leg_ns),
        analysis: of(o.feeds * (u.loss_outcome_ns + 2.0 * u.window_outcome_ns)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Counters {
        Counters {
            n: 10,
            sim_s: 90.0,
            sent: 1000,
            delivered: 900,
            lsa_bytes: 0,
            lsa_entries: 0,
            overlay_probes: 300,
            measure_legs: 150,
            via_legs: 50,
            route_legs: 150,
            resolved: 100,
            discarded: 0,
            peak_pending: 0,
            malformed: 0,
            rows: 3,
        }
    }

    #[test]
    fn op_counts_follow_the_documented_formulas() {
        let k = JobConsts { round_trip: false, feeds_per_outcome: 1.5, mean_wait_s: 0.9 };
        let o = ops(&counters(), &k);
        assert_eq!(o.transits, 1000.0);
        assert_eq!(o.legs, 150.0);
        assert_eq!(o.feeds, 150.0);
        // (1000 - (150 + 50)) overlay packets offered, 90% delivered.
        assert!((o.node_packets - 720.0).abs() < 1e-9);
        // 900 deliveries + 10 hosts * 90 s / 0.9 s wakes + 300 timers.
        assert!((o.pops - 2200.0).abs() < 1e-9);
        let rt = ops(&counters(), &JobConsts { round_trip: true, ..k });
        assert!((rt.node_packets - 540.0).abs() < 1e-9, "echoes double measurement traffic");
    }

    #[test]
    fn shares_are_cost_times_count_over_busy_time() {
        let u = UnitCosts {
            push_pop_ns: 100.0,
            transit_ns: 200.0,
            host_up_ns: 10.0,
            node_packet_ns: 1000.0,
            leg_ns: 50.0,
            loss_outcome_ns: 20.0,
            window_outcome_ns: 15.0,
        };
        let o =
            Ops { pops: 2000.0, transits: 1000.0, node_packets: 500.0, legs: 400.0, feeds: 100.0 };
        let s = shares(&u, &o, 1e-3);
        assert!((s.event - 0.2).abs() < 1e-12);
        assert!((s.net - 0.22).abs() < 1e-12);
        assert!((s.node - 0.5).abs() < 1e-12);
        assert!((s.collect - 0.02).abs() < 1e-12);
        assert!((s.analysis - 0.005).abs() < 1e-12);
        assert!((s.coverage() - 0.945).abs() < 1e-12);
    }
}
