//! The §4.1 measurement methodology as a deterministic experiment.
//!
//! "Each node periodically initiates probes to other nodes. A probe
//! consists of one or two request packets from the initiator to the
//! target. The nodes cycle through the different probe types, and for
//! each probe, they pick a random destination node. After sending the
//! probe, the host waits for a random amount of time between 0.6 and 1.2
//! seconds, and then repeats the process."
//!
//! The runner drives three coupled layers over the [`netsim`] substrate:
//!
//! 1. the **overlay** — every host runs an [`overlay::OverlayNode`]
//!    (15-second probing, loss-triggered chains, link-state
//!    dissemination) that answers the `lat`/`loss`/`rand` route queries;
//! 2. the **measurement driver** — the probe-type cycling above, with
//!    64-bit identifiers and local-clock timestamps;
//! 3. the **collector + accumulators** — the central machine of the
//!    paper, resolving pairs, filtering host failures and streaming
//!    outcomes into the loss and window statistics.

use crate::method::{MethodSet, MAX_PROBE_LEGS};
use analysis::{Fnv, LossAccum, LossShape, PairIndex, WindowAccum, WindowShape, WireVersion};
use netsim::{
    Delivery, EventQueue, HostId, LoadProfile, NetCounters, Rng, SimDuration, SimTime, Topology,
};
use overlay::{
    Delivered, DisseminationMode, MeasureKind, NodeConfig, OverlayNode, Packet, PeerSet, Policy,
    Route, RouteTag, Transmit,
};
use std::sync::Arc;
use trace::{Collector, CollectorConfig, CollectorStats, PairOutcome, RecvEvent, SendEvent};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The probe methods to cycle through.
    pub methods: MethodSet,
    /// Measurement duration (probing stops after this; in-flight pairs
    /// still resolve).
    pub duration: SimDuration,
    /// Master seed; equal seeds give byte-identical results.
    pub seed: u64,
    /// Round-trip mode (RONwide 2002): targets echo measures back.
    pub round_trip: bool,
    /// Per-host pause between probes, seconds (§4.1: 0.6–1.2).
    pub wait_range_s: (f64, f64),
    /// Overlay node configuration.
    pub node: NodeConfig,
    /// How overlay nodes disseminate their link-state metrics. The
    /// default full-snapshot mode reproduces the historical behaviour
    /// bit-for-bit; delta mode ships fewer bytes (−84 % on `ron2003`
    /// refreshing every 4 probes) and keeps routes informed only while
    /// its refresh period fits the staleness horizon — see
    /// [`DisseminationMode::Delta`].
    pub dissemination: DisseminationMode,
    /// Collector policy.
    pub collector: CollectorConfig,
    /// How often the collector resolves expired pairs.
    pub sweep_interval: SimDuration,
    /// Probability that an overlay node's user-space forwarder drops a
    /// relayed packet (scheduling/queueing in the application; calibrated
    /// against the elevated via-intermediate loss in Tables 5 and 7).
    pub forward_drop: f64,
    /// Disable the diurnal load swing (unit tests).
    pub flat_load: bool,
    /// Worker threads executing workload slices. `0` means *auto*: read
    /// the `MPATH_SHARDS` environment variable, defaulting to 1. The
    /// value **never affects results** — only how slices are scheduled
    /// onto threads (see [`crate::shard`]).
    pub shards: usize,
    /// Width of one independent workload slice. A campaign longer than
    /// this is partitioned into `ceil(duration / slice_width)` slices,
    /// each simulated as an independent sub-experiment (own RNG
    /// universe, event queue and collector) at its absolute time offset,
    /// then merged in slice order. Runs no longer than one slice are
    /// executed exactly as a classic sequential run with the master
    /// seed. Results depend on `(seed, duration, slice_width)` but never
    /// on [`shards`](Self::shards).
    ///
    /// Slice boundaries close the windowed statistics: a 20-minute or
    /// 1-hour window straddling a boundary is counted as two partial
    /// windows. For window-faithful Table 6 / Figure 3 numbers keep
    /// `slice_width` a multiple of one hour (the 6-hour default is);
    /// short non-aligned widths are fine for equivalence tests, which
    /// compare runs under the *same* slice plan.
    pub slice_width: SimDuration,
    /// Name of the scenario this run executes (stamped into the output
    /// and its fingerprint). Hand-assembled configs default to `custom`.
    pub scenario: String,
    /// Digest of the scenario spec that produced this config (see
    /// [`crate::scenario::ScenarioSpec::digest`]); zero for
    /// hand-assembled configs.
    pub spec_digest: u64,
}

impl ExperimentConfig {
    /// Defaults for a method set: paper pacing, RON node config.
    pub fn new(methods: MethodSet) -> Self {
        ExperimentConfig {
            methods,
            duration: SimDuration::from_hours(6),
            seed: 1,
            round_trip: false,
            wait_range_s: (0.6, 1.2),
            node: NodeConfig::default(),
            dissemination: DisseminationMode::FullSnapshot,
            collector: CollectorConfig::default(),
            sweep_interval: SimDuration::from_secs(10),
            forward_drop: 0.008,
            flat_load: false,
            shards: 0,
            slice_width: SimDuration::from_hours(6),
            scenario: "custom".to_string(),
            spec_digest: 0,
        }
    }
}

/// Width of the Figure 3 windows.
const WIN20: SimDuration = SimDuration::from_mins(20);
/// Width of the Table 6 windows.
const WIN60: SimDuration = SimDuration::from_hours(1);

/// Everything a run produces.
pub struct ExperimentOutput {
    /// Name of the scenario that produced this run.
    pub scenario: String,
    /// Digest of the scenario spec (zero for hand-assembled configs).
    pub spec_digest: u64,
    /// Analysis-method display names (indexed by method id).
    pub names: Vec<String>,
    /// Loss/latency accumulators.
    pub loss: LossAccum,
    /// 20-minute windows (Figure 3).
    pub win20: WindowAccum,
    /// 1-hour windows (Table 6).
    pub win60: WindowAccum,
    /// Raw network flow counters.
    pub net: NetCounters,
    /// Overlay probes sent by all nodes (the reactive overhead).
    pub overlay_probes: u64,
    /// Measurement legs transmitted.
    pub measure_legs: u64,
    /// Collector counters (mergeable across slices): resolved pairs,
    /// host-failure discards, late receives.
    pub collector: CollectorStats,
    /// Per route tag (direct/rand/lat/loss): (legs sent, legs that used
    /// an intermediate). Shows how often each policy diverts.
    pub route_usage: [(u64, u64); 4],
    /// Host count.
    pub n: usize,
    /// Configured measurement duration.
    pub duration: SimDuration,
}

impl ExperimentOutput {
    /// Analysis-method id by display name.
    pub fn index_of(&self, name: &str) -> Option<u8> {
        self.names.iter().position(|n| *n == name).map(|i| i as u8)
    }

    /// Summary row for a named method.
    pub fn summary(&self, name: &str) -> Option<analysis::MethodSummary> {
        self.index_of(name).map(|m| self.loss.summary(m))
    }

    /// Pairs discarded by the §4.1 host-failure filter.
    pub fn discarded(&self) -> u64 {
        self.collector.discarded
    }

    /// Why this output cannot be a result — a slice or their merge — of
    /// running `cfg` over the measured pairs `pairs`: the first field
    /// whose stamp or shape differs, or `None` when everything
    /// [`crate::report::merge_outputs`] asserts on agrees. The
    /// coordinator asks before merging a wire-received result, so a
    /// malformed one — accumulators rowed by another mesh included — is
    /// a protocol error instead of a failed assert or a mis-merge.
    pub fn shape_mismatch(&self, cfg: &ExperimentConfig, pairs: &PairIndex) -> Option<String> {
        fn differs<T: PartialEq + std::fmt::Debug>(field: &str, got: T, want: T) -> Option<String> {
            (got != want).then(|| format!("`{field}` is {got:?}, the job produces {want:?}"))
        }
        let methods = cfg.methods.total();
        let depth = cfg.methods.max_legs().max(1);
        let window = |width: SimDuration| WindowShape {
            width_us: width.as_micros(),
            pairs: pairs.clone(),
            methods,
            finished: true,
        };
        let loss = LossShape { pairs: pairs.clone(), methods, depth };
        differs("scenario", &self.scenario, &cfg.scenario)
            .or_else(|| differs("spec_digest", self.spec_digest, cfg.spec_digest))
            .or_else(|| differs("names", &self.names, &cfg.methods.names()))
            .or_else(|| differs("n", self.n, pairs.n()))
            .or_else(|| differs("loss", self.loss.shape(), loss))
            .or_else(|| differs("win20", self.win20.shape(), window(WIN20)))
            .or_else(|| differs("win60", self.win60.shape(), window(WIN60)))
    }

    /// A stable 64-bit fingerprint over the *entire* output state —
    /// every accumulator cell, histogram bucket, counter and the exact
    /// bit patterns of all floating-point sums.
    ///
    /// Two outputs with equal fingerprints render byte-identical tables
    /// and figures; the sharding equivalence harness uses this to prove
    /// that `shards = N` reproduces `shards = 1` exactly.
    ///
    /// The fold is over the dense `n · n · methods` cell grid whatever
    /// the accumulators hold ([`LossAccum::digest`]), at a cost that
    /// follows the rows held.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        f.write(self.scenario.as_bytes());
        f.write(&[0]);
        f.write_u64(self.spec_digest);
        for name in &self.names {
            f.write(name.as_bytes());
            f.write(&[0]);
        }
        self.loss.digest(&mut f);
        self.win20.digest(&mut f);
        self.win60.digest(&mut f);
        // Net counters fold field-by-field for the same reason as the
        // collector counters below; `lsa_bytes`/`lsa_entries` are
        // deliberately excluded so the dissemination mode is a free
        // knob that cannot re-roll the FullSnapshot goldens.
        f.write_u64(self.net.sent);
        f.write_u64(self.net.delivered);
        f.write_u64(self.net.dropped_outage);
        f.write_u64(self.net.dropped_congestion);
        f.write_u64(self.overlay_probes);
        f.write_u64(self.measure_legs);
        // Collector counters are folded field-by-field (not via the
        // struct) so adding diagnostics to `CollectorStats` — e.g.
        // `malformed_receives`/`malformed_sends`, which are structurally
        // zero in simulation (the driver's legs are bounded by validated
        // method specs) — cannot silently re-roll every recorded
        // fingerprint golden.
        f.write_u64(self.collector.resolved);
        f.write_u64(self.collector.discarded);
        f.write_u64(self.collector.late_receives);
        for (total, via) in self.route_usage {
            f.write_u64(total);
            f.write_u64(via);
        }
        f.write_u64(self.n as u64);
        f.write_u64(self.duration.as_micros());
        f.finish()
    }
}

/// Wire version of the distributed result format. Bump when any
/// accumulator's serde layout changes incompatibly; a coordinator and
/// worker disagreeing on this value must fail loudly, never merge.
/// (v2: `CollectorStats` gained `peak_pending` — a v1 binary's strict
/// field check would reject the new map only *after* a successful
/// handshake, so the version must say no first. v3: `NetCounters`
/// gained `lsa_bytes`/`lsa_entries` for dissemination accounting. v4:
/// the accumulators ship what they hold — one key per counter column and
/// one row per measured pair, where v3 shipped a map per cell of the
/// dense n² grid; their own `"v"` went 1 → 2 with it.)
pub const OUTPUT_WIRE_VERSION: u32 = 4;

// Versioned wire format (v4): the exact in-memory state crosses the
// wire — every accumulator row and the bit patterns of every f64 sum —
// so a slice result computed on another host merges byte-identically to
// one computed locally. `duration` travels as integer microseconds.
impl serde::Serialize for ExperimentOutput {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<OUTPUT_WIRE_VERSION>);
        m.field("scenario", &self.scenario);
        m.field("spec_digest", &self.spec_digest);
        m.field("names", &self.names);
        m.field("loss", &self.loss);
        m.field("win20", &self.win20);
        m.field("win60", &self.win60);
        m.field("net", &self.net);
        m.field("overlay_probes", &self.overlay_probes);
        m.field("measure_legs", &self.measure_legs);
        m.field("collector", &self.collector);
        m.field("route_usage", &self.route_usage);
        m.field("n", &self.n);
        m.field("duration_us", &self.duration.as_micros());
        m.end();
    }
}

impl serde::Deserialize for ExperimentOutput {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (
            WireVersion::<OUTPUT_WIRE_VERSION>,
            scenario,
            spec_digest,
            names,
            loss,
            win20,
            win60,
            net,
            overlay_probes,
            measure_legs,
            collector,
            route_usage,
            n,
            duration_us,
        ) = serde::read_fields!(
            r,
            "ExperimentOutput",
            [
                v,
                scenario,
                spec_digest,
                names,
                loss,
                win20,
                win60,
                net,
                overlay_probes,
                measure_legs,
                collector,
                route_usage,
                n,
                duration_us
            ]
        );
        ExperimentOutput {
            scenario,
            spec_digest,
            names,
            loss,
            win20,
            win60,
            net,
            overlay_probes,
            measure_legs,
            collector,
            route_usage,
            n,
            duration: SimDuration::from_micros(duration_us),
        }
        .validated()
    }
}

impl ExperimentOutput {
    /// What an output off the wire must satisfy on its own (the
    /// coordinator goes on to hold it to the job: `shape_mismatch`).
    fn validated(self) -> Result<Self, serde::Error> {
        if self.loss.n() != self.n {
            return Err(serde::Error::new(format!(
                "ExperimentOutput: loss accumulator is {}-host but n={}",
                self.loss.n(),
                self.n
            )));
        }
        // One run feeds all three accumulators the same outcomes.
        for (name, win) in [("win20", &self.win20), ("win60", &self.win60)] {
            if win.pairs() != self.loss.pairs() {
                return Err(serde::Error::new(format!(
                    "ExperimentOutput: `{name}` is rowed by a {:?}, `loss` by a {:?}",
                    win.pairs(),
                    self.loss.pairs()
                )));
            }
        }
        Ok(self)
    }
}

enum Ev {
    /// Overlay timer for one host.
    NodeTimer(u16),
    /// Measurement-driver wakeup for one host.
    Wake(u16),
    /// A packet reaches a host.
    Arrive { to: u16, packet: Packet },
    /// A delayed leg of a multi-packet probe. Its tactic is
    /// `methods[method].legs[leg]`; `avoid` holds the routes of earlier
    /// legs this one must steer around. The handler enqueues the next
    /// leg (see [`Runner::send_legs`]).
    Leg { src: u16, dst: u16, id: u64, method: u8, leg: u8, avoid: AvoidSet },
    /// Collector sweep.
    Sweep,
}

/// The routes of earlier legs that a later leg of the same probe must
/// steer around: empty for same-path probes, the first copy's route
/// under §3.2 pairwise diversity (`distinct`), every earlier copy's
/// under full diversity (`all_prior`). Inline and `Copy` — the last of
/// [`MAX_PROBE_LEGS`] legs avoids at most `MAX_PROBE_LEGS - 1` routes —
/// so a delayed leg carries it through the event queue without a heap
/// allocation.
#[derive(Clone, Copy)]
struct AvoidSet {
    routes: [Route; MAX_PROBE_LEGS - 1],
    len: u8,
}

impl AvoidSet {
    const EMPTY: AvoidSet = AvoidSet { routes: [Route::Direct; MAX_PROBE_LEGS - 1], len: 0 };

    fn push(&mut self, route: Route) {
        self.routes[self.len as usize] = route;
        self.len += 1;
    }

    fn as_slice(&self) -> &[Route] {
        &self.routes[..self.len as usize]
    }
}

fn policy_for(tag: RouteTag) -> Policy {
    match tag {
        RouteTag::Direct => Policy::Direct,
        RouteTag::Rand => Policy::Random,
        RouteTag::Lat => Policy::MinLat,
        RouteTag::Loss => Policy::MinLoss,
    }
}

struct Runner {
    cfg: ExperimentConfig,
    /// Absolute start of this run's (or slice's) measurement period.
    start: SimTime,
    net: netsim::Network,
    nodes: Vec<OverlayNode>,
    q: EventQueue<Ev>,
    collector: Collector,
    /// Reused outcome buffer: each sweep swaps it with the collector's
    /// finalized vector (`drain_into`), so the resolve → feed loop
    /// allocates nothing in steady state.
    outcomes: Vec<PairOutcome>,
    loss: LossAccum,
    win20: WindowAccum,
    win60: WindowAccum,
    cycles: Vec<usize>,
    rng: Rng,
    measure_legs: u64,
    route_usage: [(u64, u64); 4],
}

impl Runner {
    fn new(topo: Arc<Topology>, cfg: ExperimentConfig, start: SimTime) -> Self {
        let n = topo.n();
        let total_methods = cfg.methods.total();
        // Scenario-driven configs were validated at resolve time; this
        // catches hand-assembled method sets whose leg count the wire
        // format (and the collector's probe records) cannot carry.
        assert!(
            cfg.methods.max_legs() <= MAX_PROBE_LEGS,
            "method set sends {} legs but the wire caps probes at {}",
            cfg.methods.max_legs(),
            MAX_PROBE_LEGS
        );
        let root = Rng::new(cfg.seed ^ 0x00E0_77E5_7A11_BEEF);
        // A node peers with its row of the probe mesh the topology
        // declares, and with everyone when it declares none; hosts probe
        // their peers only, so the accumulators hold a row per pair of
        // that same mesh. The clique keeps the exact historical n²
        // layout.
        let mesh = topo.probe_mesh();
        let pairs = PairIndex::new(n, mesh.map(|m| m.as_slice()));
        let nodes = (0..n)
            .map(|i| {
                let me = HostId(i as u16);
                OverlayNode::with_peers(
                    me,
                    mesh.map_or_else(|| PeerSet::everyone(me, n), |m| PeerSet::new(n, &m[i])),
                    cfg.node,
                    cfg.seed ^ (0x1000 + i as u64),
                    start,
                    cfg.dissemination,
                )
            })
            .collect();
        let mut net = netsim::Network::new(topo, cfg.seed);
        if cfg.flat_load {
            net.set_load(LoadProfile::flat());
        }
        let collector = Collector::new(n, cfg.collector);
        // Depth (max legs over the set) sizes the best-of-first-j curve.
        let loss = LossAccum::with_pairs(pairs.clone(), total_methods, cfg.methods.max_legs());
        // total_methods counts real methods plus inferred views.
        let win20 = WindowAccum::with_pairs(pairs.clone(), total_methods, WIN20);
        let win60 = WindowAccum::with_pairs(pairs, total_methods, WIN60);
        Runner {
            rng: root.derive(7),
            cfg,
            start,
            net,
            nodes,
            q: EventQueue::new(),
            collector,
            outcomes: Vec::new(),
            loss,
            win20,
            win60,
            cycles: vec![0; n],
            measure_legs: 0,
            route_usage: [(0, 0); 4],
        }
    }

    fn local(&self, h: u16, now: SimTime) -> i64 {
        self.net.local_micros(HostId(h), now)
    }

    /// Puts one node-emitted packet on the wire.
    fn transmit(&mut self, now: SimTime, from: u16, tx: Transmit) {
        debug_assert_ne!(HostId(from), tx.to);
        // Account dissemination payload as it would encode on the wire,
        // counted on offer, delivered or not, like `net.sent`.
        if let Some((bytes, entries)) = tx.packet.link_state_cost() {
            self.net.note_lsa(bytes, entries);
        }
        match self.net.transmit(now, HostId(from), tx.to) {
            Delivery::Delivered { delay } => {
                self.q.push(now + delay, Ev::Arrive { to: tx.to.0, packet: tx.packet });
            }
            Delivery::Dropped { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments, reason = "the fields of one SendEvent, passed on the hot path without a struct")]
    fn send_measure(
        &mut self,
        now: SimTime,
        src: u16,
        dst: u16,
        id: u64,
        method: u8,
        leg: u8,
        tag: RouteTag,
        avoid: &[Route],
    ) -> Route {
        let kind = if self.cfg.round_trip { MeasureKind::Request } else { MeasureKind::OneWay };
        let sent_local_us = self.local(src, now);
        self.collector.on_send(SendEvent {
            id,
            method,
            leg,
            src: HostId(src),
            dst: HostId(dst),
            route: tag as u8,
            sent: now,
            sent_local_us,
        });
        self.measure_legs += 1;
        let node = &mut self.nodes[src as usize];
        // §3.2: a later copy of a multi-path probe travels a path
        // distinct from the ones in `avoid`; with nothing to avoid this
        // is the plain policy route.
        let route = node.route_avoiding(HostId(dst), policy_for(tag), now, avoid);
        let pkt = Packet::Measure {
            id,
            method,
            leg,
            origin: HostId(src),
            target: HostId(dst),
            route: tag,
            kind,
            sent_local_us,
        };
        let usage = &mut self.route_usage[tag as usize];
        usage.0 += 1;
        if matches!(route, Route::Via(_)) {
            usage.1 += 1;
        }
        let tx = node.wrap(route, HostId(dst), pkt);
        self.transmit(now, src, tx);
        route
    }

    fn on_wake(&mut self, now: SimTime, h: u16, end: SimTime) {
        // Schedule the next wake first (pacing continues even while the
        // host process is down — a crashed process leaves a send gap, the
        // collector's 90 s filter sees it).
        let wait = self.rng.uniform(self.cfg.wait_range_s.0, self.cfg.wait_range_s.1);
        let next = now + SimDuration::from_secs_f64(wait);
        if next < end {
            self.q.push(next, Ev::Wake(h));
        }
        if !self.net.host_up(HostId(h), now) {
            return;
        }
        let midx = self.cycles[h as usize] % self.cfg.methods.methods.len();
        self.cycles[h as usize] += 1;
        // A uniform peer of the host's own: one draw.
        let peers = self.nodes[h as usize].peers();
        let dst = peers.id(self.rng.below(peers.len() as u64) as usize).0;
        let id = self.rng.next_u64();
        self.send_legs(now, h, dst, id, midx as u8, 0, AvoidSet::EMPTY, true);
    }

    /// The one probe-leg path. Sends leg `leg` of probe `id` at `now`
    /// (unless the source process is down — a crashed host skips its
    /// copy, the probe goes on), then every following leg that is due
    /// at the same instant (gap 0), and enqueues the first leg that is
    /// not: leg *k+1* rides one gap behind leg *k*, so a gapped probe
    /// is a chain of [`Ev::Leg`] events, each carrying the avoid set its
    /// predecessors built.
    ///
    /// Which routes enter the set is all that separates the probe
    /// families: `all_prior` adds every leg's actual route, `distinct`
    /// only the first leg's ("every later copy avoids the first copy's
    /// path" — copies beyond the second may still share a detour, as
    /// two `rand` legs may), same-path probes none.
    #[allow(clippy::too_many_arguments, reason = "a probe's identity plus the leg cursor its Ev::Leg event resumes from")]
    fn send_legs(
        &mut self,
        now: SimTime,
        src: u16,
        dst: u16,
        id: u64,
        method: u8,
        mut leg: u8,
        mut avoid: AvoidSet,
        src_up: bool,
    ) {
        let m = &self.cfg.methods.methods[method as usize];
        let (legs, gap, distinct, all_prior) = (m.legs.len() as u8, m.gap, m.distinct, m.all_prior);
        loop {
            let route = src_up.then(|| {
                let tag = self.cfg.methods.methods[method as usize].legs[leg as usize];
                self.send_measure(now, src, dst, id, method, leg, tag, avoid.as_slice())
            });
            leg += 1;
            if leg == legs {
                return;
            }
            if let Some(route) = route {
                if all_prior || (distinct && leg == 1) {
                    avoid.push(route);
                }
            }
            if gap != SimDuration::ZERO {
                self.q.push(now + gap, Ev::Leg { src, dst, id, method, leg, avoid });
                return;
            }
        }
    }

    fn on_arrive(&mut self, now: SimTime, to: u16, packet: Packet) {
        if !self.net.host_up(HostId(to), now) {
            return; // receiver process down: packet dies at the host
        }
        let local = self.local(to, now);
        // Is this host acting as a forwarding intermediate for the packet?
        let relaying = matches!(&packet, Packet::Forward { target, .. } if target.0 != to);
        let mut out = Vec::new();
        let delivered = self.nodes[to as usize].on_packet(now, local, packet, &mut out);
        for tx in out {
            if relaying && self.rng.chance(self.cfg.forward_drop) {
                continue; // the user-space forwarder dropped the packet
            }
            self.transmit(now, to, tx);
        }
        if let Some(Delivered::Measure { id, method, leg, origin, route, kind, .. }) = delivered {
            match kind {
                MeasureKind::OneWay => {
                    self.collector.on_recv(RecvEvent { id, leg, recv: now, recv_local_us: local });
                }
                MeasureKind::Request => {
                    // RONwide round-trip: echo back toward the origin via
                    // the same tactic, chosen from this node's tables.
                    let node = &mut self.nodes[to as usize];
                    let r = node.route(origin, policy_for(route), now);
                    let echo = Packet::Measure {
                        id,
                        method,
                        leg,
                        origin: HostId(to),
                        target: origin,
                        route,
                        kind: MeasureKind::Echo,
                        sent_local_us: local,
                    };
                    let tx = node.wrap(r, origin, echo);
                    self.transmit(now, to, tx);
                }
                MeasureKind::Echo => {
                    // Back at the origin: the round trip is complete.
                    self.collector.on_recv(RecvEvent { id, leg, recv: now, recv_local_us: local });
                }
            }
        }
    }

    fn on_node_timer(&mut self, now: SimTime, h: u16) {
        let due = match self.nodes[h as usize].poll_at() {
            Some(t) => t,
            None => return,
        };
        if due > now {
            // Stale timer; re-arm for the real deadline.
            self.q.push(due, Ev::NodeTimer(h));
            return;
        }
        if !self.net.host_up(HostId(h), now) {
            // Crashed process: probing pauses; retry shortly.
            self.q.push(now + SimDuration::from_secs(5), Ev::NodeTimer(h));
            return;
        }
        let local = self.local(h, now);
        let mut out = Vec::new();
        self.nodes[h as usize].on_timer(now, local, &mut out);
        for tx in out {
            self.transmit(now, h, tx);
        }
        if let Some(next) = self.nodes[h as usize].poll_at() {
            self.q.push(next.max(now + SimDuration::from_micros(1)), Ev::NodeTimer(h));
        }
    }

    fn drain_outcomes(&mut self, now: SimTime) {
        self.collector.advance(now);
        let mut outs = std::mem::take(&mut self.outcomes);
        self.collector.drain_into(&mut outs);
        for o in &outs {
            self.feed(o);
        }
        self.outcomes = outs; // keep the capacity for the next sweep
    }

    fn feed(&mut self, o: &PairOutcome) {
        self.loss.on_outcome(o);
        self.win20.on_outcome(o);
        self.win60.on_outcome(o);
        // Synthesise the inferred views (direct*, lat*).
        let base = self.cfg.methods.methods.len() as u8;
        for (vi, view) in self.cfg.methods.views.iter().enumerate() {
            if view.source == o.method {
                if let Some(leg) = o.leg(view.leg as usize) {
                    let synth = PairOutcome::from_legs(
                        o.id,
                        base + vi as u8,
                        o.src,
                        o.dst,
                        o.sent,
                        [Some(leg), None, None, None],
                        o.discarded,
                    );
                    self.loss.on_outcome(&synth);
                    self.win20.on_outcome(&synth);
                    self.win60.on_outcome(&synth);
                }
            }
        }
    }

    /// Runs the event loop through the slice and its resolution tail;
    /// returns the instant the tail ends.
    fn simulate(&mut self) -> SimTime {
        let n = self.nodes.len();
        let end = self.start + self.cfg.duration;
        // Tail time for in-flight pairs to resolve.
        let hard_end = end + self.cfg.collector.receive_window + SimDuration::from_secs(10);
        // Stagger initial wakes and arm node timers.
        for h in 0..n as u16 {
            let stagger = SimDuration::from_secs_f64(self.rng.uniform(0.0, 1.2));
            self.q.push(self.start + stagger, Ev::Wake(h));
            if let Some(t) = self.nodes[h as usize].poll_at() {
                self.q.push(t, Ev::NodeTimer(h));
            }
        }
        self.q.push(self.start + self.cfg.sweep_interval, Ev::Sweep);

        while let Some((now, ev)) = self.q.pop() {
            if now > hard_end {
                break;
            }
            match ev {
                Ev::Wake(h) => self.on_wake(now, h, end),
                Ev::NodeTimer(h) => self.on_node_timer(now, h),
                Ev::Arrive { to, packet } => self.on_arrive(now, to, packet),
                Ev::Leg { src, dst, id, method, leg, avoid } => {
                    let src_up = self.net.host_up(HostId(src), now);
                    self.send_legs(now, src, dst, id, method, leg, avoid, src_up);
                }
                Ev::Sweep => {
                    self.drain_outcomes(now);
                    self.q.push(now + self.cfg.sweep_interval, Ev::Sweep);
                }
            }
        }
        hard_end
    }

    fn run(mut self) -> (ExperimentOutput, u64) {
        let n = self.nodes.len();
        let hard_end = self.simulate();
        // Final resolution of everything still pending.
        self.collector.advance(hard_end);
        self.collector.finish(hard_end);
        self.drain_outcomes(hard_end);
        self.win20.finish();
        self.win60.finish();

        let overlay_probes = self.nodes.iter().map(|nd| nd.counters().0).sum();
        // Diagnostic only — summed link-state footprint at slice end.
        // Never part of ExperimentOutput, so it cannot perturb the wire
        // format or any fingerprint.
        let table_bytes: u64 =
            self.nodes.iter().map(|nd| nd.table().approx_bytes() as u64).sum();
        let stats = self.collector.stats();
        let out = ExperimentOutput {
            scenario: self.cfg.scenario.clone(),
            spec_digest: self.cfg.spec_digest,
            names: self.cfg.methods.names(),
            loss: self.loss,
            win20: self.win20,
            win60: self.win60,
            net: *self.net.counters(),
            overlay_probes,
            measure_legs: self.measure_legs,
            collector: stats,
            route_usage: self.route_usage,
            n,
            duration: self.cfg.duration,
        };
        (out, table_bytes)
    }
}

/// Runs one workload slice: a self-contained sub-experiment whose
/// measurement period starts at the absolute instant `start`. The slice
/// shares the topology (same testbed) but animates it with `cfg.seed`
/// (the caller derives per-slice seeds); diurnal load, host clocks and
/// window statistics all see the true campaign timeline because the
/// network processes are functions of absolute time and initialise
/// lazily at first observation.
///
/// Beside the output rides one diagnostic: the summed link-state table
/// footprint (bytes) over all nodes at slice end. It never enters
/// [`ExperimentOutput`], so byte identity is untouched.
pub(crate) fn run_slice(
    topo: Arc<Topology>,
    cfg: ExperimentConfig,
    start: SimTime,
) -> (ExperimentOutput, u64) {
    Runner::new(topo, cfg, start).run()
}

/// Runs the paper's measurement experiment on `topo` under `cfg`.
///
/// The campaign is partitioned into independent workload slices and
/// executed on [`ExperimentConfig::shards`] worker threads; results are
/// byte-identical for every shard count (see [`crate::shard`]).
pub fn run_experiment(topo: Topology, cfg: ExperimentConfig) -> ExperimentOutput {
    crate::shard::run_sharded(topo, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{Method, MethodSet};

    fn quick_cfg(methods: MethodSet, seed: u64, mins: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(methods);
        cfg.duration = SimDuration::from_mins(mins);
        cfg.seed = seed;
        cfg.flat_load = true;
        cfg
    }

    /// Resident state follows live work: at the end of a sparse-mesh run
    /// under direct probing (the scale sweep's method set; a detour adds
    /// the via → dst core links) the network has animated the segments
    /// its packets crossed — each host's two access links and the core
    /// links to its k mesh neighbours — not one per ordered host pair,
    /// the event queue holds buffers for what is pending, not for every
    /// bucket it ever filled, and the accumulators a row per declared
    /// pair, not per ordered host pair.
    #[test]
    fn a_run_holds_state_for_what_it_used() {
        let (hosts, k) = (60, 6);
        let mut topo = Topology::synthetic(hosts, 0.02, 3);
        topo.set_probe_mesh(netsim::sparse_mesh(hosts, k, 3));
        let direct = MethodSet {
            methods: vec![crate::method::Method::single("direct", RouteTag::Direct)],
            views: Vec::new(),
        };
        let mut runner = Runner::new(Arc::new(topo), quick_cfg(direct, 3, 25), SimTime::ZERO);
        runner.simulate();
        assert!(runner.net.counters().sent > 10_000);
        let animated = runner.net.animated_segments();
        assert!(animated > hosts, "animated {animated}");
        assert!(animated <= (k + 2) * hosts, "animated {animated} segments");
        // 25 simulated minutes is more than a ring revolution.
        let held = runner.q.approx_bytes();
        assert!(held < 1 << 20, "the event queue retains {held} bytes");
        // And the accumulators hold a row per declared pair and method
        // (one method, ten 8-byte counters), not one per ordered pair.
        assert!(runner.loss.summary(0).pairs > 1_000);
        let index = runner.loss.pairs().approx_bytes();
        assert_eq!(runner.loss.approx_bytes() - index, 80 * hosts * k, "hosts x k loss rows");
        assert!(runner.win20.approx_bytes() - index < 16 * hosts * k + 4096);
    }

    #[test]
    fn lossless_network_measures_zero_loss() {
        let topo = Topology::synthetic(4, 0.0, 11);
        let out = run_experiment(topo, quick_cfg(MethodSet::ron2003(), 11, 30));
        for name in ["loss", "direct rand", "direct direct", "direct*"] {
            let s = out.summary(name).unwrap();
            assert!(s.pairs > 50, "{name}: pairs={}", s.pairs);
            assert_eq!(s.totlp, 0.0, "{name} must see no loss");
        }
        assert!(out.measure_legs > 0);
        assert!(out.overlay_probes > 0, "the RON prober must run");
    }

    #[test]
    fn lossy_network_direct_sees_loss_and_mesh_reduces_it() {
        // 1.5% per edge → ~3% per path; mesh spreads copies across
        // distinct cores so totlp must drop well below direct loss.
        let topo = Topology::synthetic(6, 0.015, 13);
        let out = run_experiment(topo, quick_cfg(MethodSet::ron2003(), 13, 240));
        let direct = out.summary("direct*").unwrap();
        let mesh = out.summary("direct rand").unwrap();
        assert!(direct.lp1 > 1.0, "direct lp1={}", direct.lp1);
        assert!(
            mesh.totlp < direct.lp1 * 0.85,
            "mesh {} vs direct {}",
            mesh.totlp,
            direct.lp1
        );
        let clp = mesh.clp.expect("mesh clp");
        assert!(clp < 100.0);
    }

    #[test]
    fn back_to_back_clp_exceeds_random_intermediate_clp() {
        // The paper's central correlation finding, on a small testbed.
        let topo = Topology::synthetic(6, 0.02, 17);
        let out = run_experiment(topo, quick_cfg(MethodSet::ron2003(), 17, 360));
        let dd = out.summary("direct direct").unwrap().clp.expect("dd clp");
        let dr = out.summary("direct rand").unwrap().clp.expect("dr clp");
        assert!(dd > dr, "CLP(direct direct)={dd} must exceed CLP(direct rand)={dr}");
        assert!(dd > 40.0, "bursty losses: dd clp={dd}");
    }

    #[test]
    fn round_trip_mode_produces_rtt_latencies() {
        let topo = Topology::synthetic(4, 0.0, 19);
        let mut cfg = quick_cfg(MethodSet::ron_wide(), 19, 30);
        cfg.round_trip = true;
        let out = run_experiment(topo, cfg);
        let d = out.summary("direct").unwrap();
        assert!(d.pairs > 30);
        assert_eq!(d.totlp, 0.0);
        // One-way in this synthetic topo is a few ms; RTT must be ~2×
        // (and definitely above one-way).
        assert!(d.lat_ms > 5.0, "rtt={}ms", d.lat_ms);
        let rr = out.summary("rand rand").unwrap();
        assert!(rr.lat_ms > d.lat_ms, "two-hop RTT must exceed direct RTT");
    }

    #[test]
    fn determinism_same_seed_same_tables() {
        let run = |seed| {
            let topo = Topology::synthetic(4, 0.01, seed);
            let out = run_experiment(topo, quick_cfg(MethodSet::ron_narrow(), seed, 60));
            let s = out.summary("direct rand").unwrap();
            (s.lp1, s.lp2, s.totlp, s.clp, s.lat_ms, s.pairs)
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23), run(24), "different seeds explore different universes");
    }

    #[test]
    fn views_match_their_source_legs() {
        let topo = Topology::synthetic(5, 0.01, 29);
        let out = run_experiment(topo, quick_cfg(MethodSet::ron2003(), 29, 120));
        let dr = out.index_of("direct rand").unwrap();
        let dstar = out.index_of("direct*").unwrap();
        // direct*'s pair count equals direct rand's (every pair yields a
        // view) and its lp1 equals direct rand's first-leg loss.
        let a = out.loss.summary(dr);
        let b = out.loss.summary(dstar);
        assert_eq!(a.pairs, b.pairs);
        assert!((a.lp1 - b.lp1).abs() < 1e-9);
        assert_eq!(b.lp2, None, "views are single-packet");
    }

    fn k_leg_set(all_prior: bool, legs: Vec<RouteTag>, gap_ms: u64) -> MethodSet {
        let mut m = Method::redundant("k!", legs, SimDuration::from_millis(gap_ms));
        m.all_prior = all_prior;
        MethodSet { methods: vec![m], views: Vec::new() }
    }

    #[test]
    fn two_leg_all_prior_is_exactly_pairwise_diversity() {
        // With two legs "avoid all prior routes" degenerates to "avoid
        // the first route", and the avoiding router consumes RNG draws
        // identically — the whole run must be bit-equal, which is what
        // keeps the knob's default off-state away from the goldens.
        let run = |all_prior| {
            let set = k_leg_set(all_prior, vec![RouteTag::Direct, RouteTag::Rand], 10);
            let topo = Topology::synthetic(5, 0.01, 37);
            run_experiment(topo, quick_cfg(set, 37, 60)).fingerprint()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn four_leg_all_prior_steers_later_legs_off_prior_paths() {
        let run = |all_prior, gap_ms| {
            let legs =
                vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Rand, RouteTag::Rand];
            let topo = Topology::synthetic(5, 0.01, 41);
            run_experiment(topo, quick_cfg(k_leg_set(all_prior, legs, gap_ms), 41, 60))
        };
        let pairwise = run(false, 10).fingerprint();
        let full = run(true, 10);
        assert_ne!(
            pairwise,
            full.fingerprint(),
            "legs 3 and 4 must route around *all* predecessors, not just leg 1"
        );
        assert_eq!(full.fingerprint(), run(true, 10).fingerprint(), "and deterministically");
        // The gap-0 sequential path exercises the same avoidance inline.
        let seq = run(true, 0);
        assert!(seq.summary("k!").unwrap().pairs > 30);
        assert!(seq.measure_legs >= 4 * seq.summary("k!").unwrap().pairs);
    }

    #[test]
    fn three_leg_gapped_probes_chain_every_leg_under_both_diversity_rules() {
        // Three legs 10 ms apart: legs 1 and 2 are each enqueued by
        // their predecessor. `distinct` steers both off leg 0's route
        // only; `all_prior` also steers leg 2 off leg 1's.
        let cfg = |all_prior, shards| {
            let legs = vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Rand];
            let mut cfg = quick_cfg(k_leg_set(all_prior, legs, 10), 59, 60);
            cfg.slice_width = SimDuration::from_mins(15);
            cfg.shards = shards;
            cfg
        };
        let run = |all_prior, shards| {
            run_experiment(Topology::synthetic(5, 0.01, 59), cfg(all_prior, shards))
        };
        let distinct = run(false, 1);
        let all_prior = run(true, 1);
        for out in [&distinct, &all_prior] {
            assert!(out.collector.resolved > 100);
            assert_eq!(out.measure_legs, 3 * out.collector.resolved, "a probe lost a leg");
            // The shape the coordinator holds wire results to is the
            // shape the runner really produces, depth 3 included.
            assert_eq!(out.shape_mismatch(&cfg(true, 1), &PairIndex::clique(5)), None);
        }
        assert_ne!(distinct.fingerprint(), all_prior.fingerprint());
        assert_eq!(distinct.fingerprint(), run(false, 4).fingerprint());
        assert_eq!(all_prior.fingerprint(), run(true, 4).fingerprint());
    }

    #[test]
    fn lsa_counters_never_touch_the_fingerprint() {
        let topo = Topology::synthetic(4, 0.01, 43);
        let mut out = run_experiment(topo, quick_cfg(MethodSet::ron_narrow(), 43, 30));
        assert!(out.net.lsa_bytes > 0, "full snapshots must be accounted");
        assert!(out.net.lsa_entries > 0);
        let before = out.fingerprint();
        out.net.lsa_bytes ^= 0xDEAD;
        out.net.lsa_entries ^= 0xBEEF;
        assert_eq!(out.fingerprint(), before, "lsa counters are excluded by design");
    }

    #[test]
    fn delta_mode_cuts_dissemination_bytes_and_stays_deterministic() {
        let run = |mode| {
            let mut cfg = quick_cfg(MethodSet::ron_narrow(), 47, 120);
            cfg.dissemination = mode;
            run_experiment(Topology::synthetic(6, 0.01, 47), cfg)
        };
        let full = run(DisseminationMode::FullSnapshot);
        let delta = run(DisseminationMode::Delta { max_age_probes: 16 });
        assert!(delta.collector.resolved > 0, "delta-mode routing must still resolve pairs");
        assert!(delta.net.lsa_bytes > 0, "anti-entropy refreshes still cost bytes");
        assert!(
            delta.net.lsa_bytes * 2 < full.net.lsa_bytes,
            "delta {} vs full {} bytes",
            delta.net.lsa_bytes,
            full.net.lsa_bytes
        );
        let again = run(DisseminationMode::Delta { max_age_probes: 16 });
        assert_eq!(delta.fingerprint(), again.fingerprint(), "delta mode is deterministic");
        assert_eq!(delta.net.lsa_bytes, again.net.lsa_bytes);
    }

    #[test]
    fn windows_accumulate() {
        let topo = Topology::synthetic(4, 0.02, 31);
        let out = run_experiment(topo, quick_cfg(MethodSet::ron_narrow(), 31, 90));
        let loss_m = out.index_of("loss").unwrap();
        assert!(out.win20.window_count(loss_m) > 0, "20-minute windows must close");
        assert!(out.win60.window_count(loss_m) > 0, "hour windows must close");
    }
}
