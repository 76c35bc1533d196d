//! The assembled overlay node: prober + link-state table + forwarder.
//!
//! [`OverlayNode`] is a sans-io state machine. Its inputs are timer
//! expiries ([`OverlayNode::on_timer`]) and received packets
//! ([`OverlayNode::on_packet`]); its outputs are [`Transmit`] requests
//! (packets to put on the wire toward a next hop) and [`Delivered`]
//! values (packets addressed to the local application layer). Route
//! queries ([`OverlayNode::route`]) never perform I/O.
//!
//! The same state machine is driven by the discrete-event experiment
//! runner (`mpath-core`) and by the std-thread UDP driver (`mpath-live`).

use crate::dissem::{Disseminator, DisseminationMode};
use crate::peers::PeerSet;
use crate::prober::{Prober, ProberConfig};
use crate::table::{LinkStateTable, Policy, Route};
use crate::wire::{MeasureKind, Packet, RouteTag};
use netsim::{HostId, Rng, SimDuration, SimTime};

/// Node configuration: probing plus routing-metric parameters.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Prober timing.
    pub prober: ProberConfig,
    /// Loss window size (the paper's "last 100 probes").
    pub window: usize,
    /// EWMA weight for latency samples.
    pub ewma_alpha: f64,
    /// How long a peer's metric vector stays trustworthy.
    pub staleness: SimDuration,
    /// Absolute loss-rate advantage an indirect path must show before
    /// loss routing diverts (route-flap damping).
    pub loss_hysteresis: f64,
    /// Relative latency advantage an indirect path must show before
    /// latency routing diverts.
    pub lat_hysteresis: f64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            prober: ProberConfig::default(),
            window: 100,
            ewma_alpha: 0.1,
            staleness: SimDuration::from_secs(90),
            loss_hysteresis: 0.05,
            lat_hysteresis: 0.10,
        }
    }
}

/// A packet the node wants transmitted to a directly reachable peer.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmit {
    /// Next wire hop (always a direct underlay transmission).
    pub to: HostId,
    /// The packet to send.
    pub packet: Packet,
}

/// A packet addressed to this node's application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivered {
    /// A measurement leg arrived.
    Measure {
        /// Probe pair identifier.
        id: u64,
        /// Method registry index.
        method: u8,
        /// Leg index (0/1).
        leg: u8,
        /// Path source.
        origin: HostId,
        /// Route kind the leg used.
        route: RouteTag,
        /// One-way, request, or echo.
        kind: MeasureKind,
        /// Sender's local clock at transmission.
        sent_local_us: i64,
    },
    /// Application data arrived.
    Data {
        /// Source node.
        origin: HostId,
        /// Stream id.
        stream: u32,
        /// Sequence number.
        seq: u32,
        /// Payload length (payload itself stays in the packet).
        len: usize,
    },
}

/// A RON-style overlay node.
pub struct OverlayNode {
    me: HostId,
    cfg: NodeConfig,
    table: LinkStateTable,
    prober: Prober,
    dissem: Disseminator,
    rng: Rng,
    forwarded: u64,
    /// `u32`, like the next: the pair fits what was the struct's
    /// padding, so a simulated mesh's node array keeps its stride;
    /// both saturate.
    unknown_host: u32,
    non_peer: u32,
}

impl OverlayNode {
    /// Creates a node for a clique of `n` nodes: [`Self::with_peers`]
    /// over [`PeerSet::everyone`].
    pub fn new_with_dissemination(
        me: HostId,
        n: usize,
        cfg: NodeConfig,
        seed: u64,
        start: SimTime,
        mode: DisseminationMode,
    ) -> Self {
        Self::with_peers(me, PeerSet::everyone(me, n), cfg, seed, start, mode)
    }

    /// Creates node `me`, which probes, keeps link state for and routes
    /// through `peers`, running the given dissemination strategy. `seed`
    /// controls all node randomness (probe ids, jitter, random
    /// intermediates); `start` is the instant probing begins.
    pub fn with_peers(
        me: HostId,
        peers: PeerSet,
        cfg: NodeConfig,
        seed: u64,
        start: SimTime,
        mode: DisseminationMode,
    ) -> Self {
        let root = Rng::new(seed);
        let table = LinkStateTable::with_peers(
            me,
            peers.clone(),
            cfg.window,
            cfg.ewma_alpha,
            1 + cfg.prober.fast_count,
            cfg.staleness,
            cfg.loss_hysteresis,
            cfg.lat_hysteresis,
        );
        let prober = Prober::with_peers(peers.clone(), cfg.prober, root.derive(1), start);
        let dissem = Disseminator::with_peers(mode, me, peers);
        let rng = root.derive(2);
        OverlayNode {
            me,
            cfg,
            table,
            prober,
            dissem,
            rng,
            forwarded: 0,
            unknown_host: 0,
            non_peer: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> HostId {
        self.me
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Read access to the link-state table (diagnostics, tests).
    pub fn table(&self) -> &LinkStateTable {
        &self.table
    }

    /// The hosts this node peers with.
    pub fn peers(&self) -> &PeerSet {
        self.table.peers()
    }

    /// Approximate resident bytes of the node: its table, prober and
    /// disseminator (the few words beside them are not counted). None
    /// of the three holds anything sized by the mesh.
    pub fn approx_bytes(&self) -> usize {
        self.table.approx_bytes() + self.prober.approx_bytes() + self.dissem.approx_bytes()
    }

    /// The node's dissemination strategy.
    pub fn dissemination(&self) -> DisseminationMode {
        self.dissem.mode()
    }

    /// Earliest instant the node needs a timer callback: the prober's
    /// next send or timeout (dissemination rides the probes).
    pub fn poll_at(&self) -> Option<SimTime> {
        self.prober.poll_at()
    }

    /// Runs timer work at `now`. `local_now_us` is the local wall clock
    /// (skewed in simulation; real time in live deployments) stamped into
    /// outgoing probes.
    pub fn on_timer(&mut self, now: SimTime, local_now_us: i64, out: &mut Vec<Transmit>) {
        let mut sends = Vec::new();
        self.prober.on_timer(now, &mut self.table, &mut sends);
        for s in sends {
            let (metrics, lsa) = self.dissem.on_probe_send(s.peer, s.id, &mut self.table);
            out.push(Transmit {
                to: s.peer,
                packet: Packet::ProbeReq {
                    id: s.id,
                    from: self.me,
                    sent_local_us: local_now_us,
                    metrics,
                },
            });
            if let Some(packet) = lsa {
                out.push(Transmit { to: s.peer, packet });
            }
        }
    }

    /// Handles a packet arriving from the network at `now`. A packet
    /// that names a host outside the mesh (ids are indices in every
    /// driver's address book) is dropped and counted, whatever else it
    /// says; one nested in a [`Packet::Forward`] meets the same check
    /// when it is unwrapped. Link state from a host inside the mesh that
    /// is not one of my peers is counted too
    /// ([`Self::non_peer_drops`]): its probe request is answered — the
    /// answer costs no state — but the metrics it carries, its probe
    /// responses and the LSAs it originated are not stored. Forwarding
    /// and delivery serve any host of the mesh.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        local_now_us: i64,
        packet: Packet,
        out: &mut Vec<Transmit>,
    ) -> Option<Delivered> {
        let n = self.table.n();
        let known = match &packet {
            Packet::ProbeReq { from, .. } | Packet::ProbeResp { from, .. } => from.idx() < n,
            Packet::Lsa { origin, .. } => origin.idx() < n,
            Packet::Forward { target, .. } => target.idx() < n,
            Packet::Measure { origin, target, .. } | Packet::Data { origin, target, .. } => {
                origin.idx() < n && target.idx() < n
            }
        };
        if !known {
            self.unknown_host = self.unknown_host.saturating_add(1);
            return None;
        }
        match packet {
            Packet::ProbeReq { id, from, metrics, .. } => {
                if self.is_peer(from) {
                    self.dissem.on_probe_metrics(from, metrics, now, &mut self.table);
                }
                let (metrics, lsa) = self.dissem.on_probe_reply(from, &mut self.table);
                out.push(Transmit {
                    to: from,
                    packet: Packet::ProbeResp {
                        id,
                        from: self.me,
                        resp_local_us: local_now_us,
                        metrics,
                    },
                });
                if let Some(packet) = lsa {
                    out.push(Transmit { to: from, packet });
                }
                None
            }
            Packet::ProbeResp { id, from, metrics, .. } => {
                if !self.is_peer(from) {
                    return None;
                }
                self.dissem.on_probe_metrics(from, metrics, now, &mut self.table);
                if self.prober.on_response(id, from, now, &mut self.table).is_some() {
                    // A valid response acknowledges the LSA that rode
                    // along with the probe (delta mode).
                    self.dissem.on_ack(id, from);
                }
                None
            }
            Packet::Lsa { origin, seq, full, entries } => {
                if !self.is_peer(origin) {
                    return None;
                }
                self.dissem.on_lsa(origin, seq, full, entries, now, &mut self.table);
                None
            }
            Packet::Forward { target, inner } => {
                if target == self.me {
                    // The forwarding hop was the last one; unwrap locally.
                    self.on_packet(now, local_now_us, *inner, out)
                } else {
                    // One-intermediate overlay forwarding: relay the inner
                    // packet toward its final target.
                    self.forwarded += 1;
                    out.push(Transmit { to: target, packet: *inner });
                    None
                }
            }
            Packet::Measure { id, method, leg, origin, target, route, kind, sent_local_us } => {
                if target == self.me {
                    Some(Delivered::Measure { id, method, leg, origin, route, kind, sent_local_us })
                } else {
                    // Mis-delivered measurement: relay it (defensive; the
                    // runner normally wraps indirection in Forward).
                    self.forwarded += 1;
                    out.push(Transmit {
                        to: target,
                        packet: Packet::Measure {
                            id,
                            method,
                            leg,
                            origin,
                            target,
                            route,
                            kind,
                            sent_local_us,
                        },
                    });
                    None
                }
            }
            Packet::Data { origin, target, stream, seq, payload } => {
                if target == self.me {
                    Some(Delivered::Data { origin, stream, seq, len: payload.len() })
                } else {
                    self.forwarded += 1;
                    out.push(Transmit {
                        to: target,
                        packet: Packet::Data { origin, target, stream, seq, payload },
                    });
                    None
                }
            }
        }
    }

    /// Whether `h` is one of my peers; counts it when it is not.
    fn is_peer(&mut self, h: HostId) -> bool {
        let known = self.table.peers().slot(h).is_some();
        if !known {
            self.non_peer = self.non_peer.saturating_add(1);
        }
        known
    }

    /// Selects a route to `dst` under `policy`.
    pub fn route(&mut self, dst: HostId, policy: Policy, now: SimTime) -> Route {
        self.table.route(dst, policy, now, &mut self.rng)
    }

    /// Selects a route to `dst` distinct from every route in `avoid`:
    /// the first copy's path for a §3.2 pair, every earlier copy's under
    /// full prior-leg diversity, nothing (plain [`Self::route`]) when
    /// `avoid` is empty.
    pub fn route_avoiding(
        &mut self,
        dst: HostId,
        policy: Policy,
        now: SimTime,
        avoid: &[Route],
    ) -> Route {
        self.table.route_avoiding(dst, policy, now, &mut self.rng, avoid)
    }

    /// Wraps `packet` for the chosen route: direct packets go straight to
    /// the destination, indirect ones are encapsulated for the
    /// intermediate hop.
    pub fn wrap(&self, route: Route, dst: HostId, packet: Packet) -> Transmit {
        match route {
            Route::Direct => Transmit { to: dst, packet },
            Route::Via(k) => Transmit {
                to: k,
                packet: Packet::Forward { target: dst, inner: Box::new(packet) },
            },
        }
    }

    /// (probes sent, probes lost, packets forwarded for others).
    pub fn counters(&self) -> (u64, u64, u64) {
        let (s, l) = self.prober.counters();
        (s, l, self.forwarded)
    }

    /// Packets [`Self::on_packet`] dropped for naming an unknown host.
    pub fn unknown_host_drops(&self) -> u64 {
        u64::from(self.unknown_host)
    }

    /// Probe and link-state packets from hosts that are not my peers:
    /// none of them left any state behind.
    pub fn non_peer_drops(&self) -> u64 {
        u64::from(self.non_peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MetricEntry;

    fn node(me: u16, n: usize) -> OverlayNode {
        OverlayNode::new_with_dissemination(
            HostId(me),
            n,
            NodeConfig::default(),
            42 + me as u64,
            SimTime::ZERO,
            DisseminationMode::FullSnapshot,
        )
    }

    #[test]
    fn probe_req_gets_probe_resp_with_metrics() {
        let mut a = node(0, 3);
        let mut out = Vec::new();
        let req = Packet::ProbeReq {
            id: 7,
            from: HostId(1),
            sent_local_us: 123,
            metrics: vec![],
        };
        let delivered = a.on_packet(SimTime::from_secs(1), 1_000_000, req, &mut out);
        assert!(delivered.is_none());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, HostId(1));
        match &out[0].packet {
            Packet::ProbeResp { id, from, metrics, .. } => {
                assert_eq!(*id, 7);
                assert_eq!(*from, HostId(0));
                // Nothing sampled yet: the piggyback drops the
                // uninformative never-probed entries entirely.
                assert!(metrics.is_empty(), "no sampled paths → empty piggyback");
            }
            p => panic!("expected ProbeResp, got {p:?}"),
        }
    }

    #[test]
    fn forward_relays_inner_packet() {
        let mut k = node(1, 3);
        let mut out = Vec::new();
        let inner = Packet::Measure {
            id: 9,
            method: 0,
            leg: 0,
            origin: HostId(0),
            target: HostId(2),
            route: RouteTag::Direct,
            kind: MeasureKind::OneWay,
            sent_local_us: 5,
        };
        let fwd = Packet::Forward { target: HostId(2), inner: Box::new(inner.clone()) };
        let delivered = k.on_packet(SimTime::from_secs(1), 0, fwd, &mut out);
        assert!(delivered.is_none());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, HostId(2));
        assert_eq!(out[0].packet, inner);
        assert_eq!(k.counters().2, 1, "forward counter");
    }

    #[test]
    fn measure_for_me_is_delivered() {
        let mut d = node(2, 3);
        let mut out = Vec::new();
        let m = Packet::Measure {
            id: 11,
            method: 3,
            leg: 1,
            origin: HostId(0),
            target: HostId(2),
            route: RouteTag::Direct,
            kind: MeasureKind::OneWay,
            sent_local_us: 77,
        };
        match d.on_packet(SimTime::from_secs(2), 0, m, &mut out) {
            Some(Delivered::Measure { id, method, leg, origin, route, kind, sent_local_us }) => {
                assert_eq!(
                    (id, method, leg, origin, route, kind, sent_local_us),
                    (11, 3, 1, HostId(0), RouteTag::Direct, MeasureKind::OneWay, 77)
                );
            }
            other => panic!("expected Measure delivery, got {other:?}"),
        }
        assert!(out.is_empty());
    }

    #[test]
    fn forward_addressed_to_me_unwraps_locally() {
        let mut d = node(2, 3);
        let mut out = Vec::new();
        let inner = Packet::Data {
            origin: HostId(0),
            target: HostId(2),
            stream: 1,
            seq: 4,
            payload: b"hi".to_vec(),
        };
        let fwd = Packet::Forward { target: HostId(2), inner: Box::new(inner) };
        match d.on_packet(SimTime::from_secs(1), 0, fwd, &mut out) {
            Some(Delivered::Data { origin, stream, seq, len }) => {
                assert_eq!((origin, stream, seq, len), (HostId(0), 1, 4, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A stranger: no 3-node mesh has a host 999.
    const EVIL: HostId = HostId(999);

    /// `packet` names [`EVIL`]: every dissemination mode must drop it
    /// without a transmit, a delivery or a panic, and count it.
    fn assert_dropped(packet: Packet) {
        for mode in ALL_MODES {
            let mut a = OverlayNode::new_with_dissemination(
                HostId(0),
                3,
                NodeConfig::default(),
                42,
                SimTime::ZERO,
                mode,
            );
            let mut out = Vec::new();
            let delivered = a.on_packet(SimTime::from_secs(1), 0, packet.clone(), &mut out);
            assert_eq!(delivered, None, "{mode:?}");
            assert!(out.is_empty(), "{mode:?}: {out:?}");
            assert_eq!(a.unknown_host_drops(), 1, "{mode:?}");
            assert_eq!(a.counters().2, 0, "{mode:?}: nothing relayed");
        }
    }

    fn data(origin: HostId, target: HostId) -> Packet {
        Packet::Data { origin, target, stream: 1, seq: 1, payload: b"x".to_vec() }
    }

    fn measure(origin: HostId, target: HostId) -> Packet {
        Packet::Measure {
            id: 1,
            method: 0,
            leg: 0,
            origin,
            target,
            route: RouteTag::Direct,
            kind: MeasureKind::OneWay,
            sent_local_us: 0,
        }
    }

    #[test]
    fn probe_req_from_unknown_host_is_dropped() {
        assert_dropped(Packet::ProbeReq { id: 1, from: EVIL, sent_local_us: 0, metrics: vec![] });
    }

    #[test]
    fn probe_resp_from_unknown_host_is_dropped() {
        assert_dropped(Packet::ProbeResp { id: 1, from: EVIL, resp_local_us: 0, metrics: vec![] });
    }

    #[test]
    fn lsa_from_unknown_host_is_dropped() {
        assert_dropped(Packet::Lsa { origin: EVIL, seq: 1, full: true, entries: vec![] });
    }

    #[test]
    fn forward_to_unknown_host_is_dropped() {
        let inner = Box::new(data(HostId(1), HostId(2)));
        assert_dropped(Packet::Forward { target: EVIL, inner });
        // Addressed to me, so unwrapped: the inner packet is checked too.
        let inner = Box::new(data(HostId(1), EVIL));
        assert_dropped(Packet::Forward { target: HostId(0), inner });
    }

    #[test]
    fn measure_naming_unknown_host_is_dropped() {
        assert_dropped(measure(HostId(1), EVIL));
        assert_dropped(measure(EVIL, HostId(0)));
    }

    #[test]
    fn data_naming_unknown_host_is_dropped() {
        assert_dropped(data(HostId(1), EVIL));
        assert_dropped(data(EVIL, HostId(0)));
    }

    /// A host of the 10-host mesh that [`sparse_node`] does not peer with.
    const STRANGER: HostId = HostId(3);

    /// Host 0 of a 10-host mesh, peering with hosts 2, 5 and 7.
    fn sparse_node(mode: DisseminationMode) -> OverlayNode {
        let peers = PeerSet::new(10, &[2, 5, 7]);
        OverlayNode::with_peers(HostId(0), peers, NodeConfig::default(), 42, SimTime::ZERO, mode)
    }

    const ALL_MODES: [DisseminationMode; 2] =
        [DisseminationMode::FullSnapshot, DisseminationMode::Delta { max_age_probes: 1 }];

    fn about_host_7() -> Vec<MetricEntry> {
        vec![MetricEntry { peer: HostId(7), loss_e4: 0, lat_us: 9_000, alive: true }]
    }

    #[test]
    fn probe_req_from_a_non_peer_is_answered_and_leaves_no_state() {
        for mode in ALL_MODES {
            let mut a = sparse_node(mode);
            let now = SimTime::from_secs(1);
            let req =
                Packet::ProbeReq { id: 7, from: STRANGER, sent_local_us: 0, metrics: about_host_7() };
            let mut out = Vec::new();
            assert_eq!(a.on_packet(now, 0, req, &mut out), None);
            assert_eq!(out.len(), 1, "{mode:?}: the answer and nothing beside it: {out:?}");
            assert_eq!(out[0].to, STRANGER);
            assert!(matches!(out[0].packet, Packet::ProbeResp { id: 7, from: HostId(0), .. }));
            assert_eq!(a.table().remote_metric(STRANGER, HostId(7), now), None, "{mode:?}");
            assert_eq!((a.non_peer_drops(), a.unknown_host_drops()), (1, 0), "{mode:?}");
        }
    }

    #[test]
    fn probe_resp_and_lsa_from_a_non_peer_are_dropped_and_counted() {
        for mode in ALL_MODES {
            let mut a = sparse_node(mode);
            let now = SimTime::from_secs(1);
            let mut out = Vec::new();
            let resp = Packet::ProbeResp {
                id: 7,
                from: STRANGER,
                resp_local_us: 0,
                metrics: about_host_7(),
            };
            assert_eq!(a.on_packet(now, 0, resp, &mut out), None);
            let lsa = Packet::Lsa { origin: STRANGER, seq: 1, full: true, entries: about_host_7() };
            assert_eq!(a.on_packet(now, 0, lsa, &mut out), None);
            assert!(out.is_empty(), "{mode:?}: {out:?}");
            assert_eq!(a.table().remote_metric(STRANGER, HostId(7), now), None, "{mode:?}");
            assert_eq!((a.non_peer_drops(), a.unknown_host_drops()), (2, 0), "{mode:?}");
            // And nothing of the stranger's is re-advertised later.
            a.on_timer(SimTime::from_secs(2), 0, &mut out);
            let forwarded = |tx: &Transmit| matches!(tx.packet, Packet::Lsa { origin: STRANGER, .. });
            assert!(!out.iter().any(forwarded), "{mode:?}");
        }
    }

    #[test]
    fn a_peer_is_served_as_before_and_nothing_is_counted() {
        let mut a = sparse_node(DisseminationMode::FullSnapshot);
        let now = SimTime::from_secs(1);
        let req =
            Packet::ProbeReq { id: 7, from: HostId(5), sent_local_us: 0, metrics: about_host_7() };
        let mut out = Vec::new();
        a.on_packet(now, 0, req, &mut out);
        assert_eq!(out.len(), 1);
        assert!(a.table().remote_metric(HostId(5), HostId(7), now).is_some());
        assert_eq!(a.non_peer_drops(), 0);
    }

    #[test]
    fn a_sparse_node_probes_its_peers_and_nobody_else() {
        let mut a = sparse_node(DisseminationMode::FullSnapshot);
        let mut out = Vec::new();
        while let Some(at) = a.poll_at().filter(|&at| at < SimTime::from_secs(16)) {
            a.on_timer(at, at.as_micros() as i64, &mut out);
        }
        let mut probed: Vec<u16> = out.iter().map(|tx| tx.to.0).collect();
        probed.sort_unstable();
        probed.dedup();
        assert_eq!(probed, [2, 5, 7]);
    }

    #[test]
    fn the_node_timer_is_the_probers_in_every_mode() {
        // A prober of its own on the node's stream 1, driven beside the
        // node with nobody answering: dissemination must add no wake-up
        // and move no draw, so the two agree at every step.
        for mode in ALL_MODES {
            let mut a = sparse_node(mode);
            let (cfg, peers) = (*a.config(), a.peers().clone());
            let stream = Rng::new(42).derive(1);
            let mut prober = Prober::with_peers(peers.clone(), cfg.prober, stream, SimTime::ZERO);
            let mut table =
                LinkStateTable::with_peers(HostId(0), peers, 100, 0.1, 5, cfg.staleness, 0.05, 0.1);
            let (mut out, mut sends) = (Vec::new(), Vec::new());
            let mut steps = 0;
            while let Some(at) = a.poll_at().filter(|&at| at < SimTime::from_secs(60)) {
                assert_eq!(prober.poll_at(), Some(at), "{mode:?}, step {steps}");
                a.on_timer(at, 0, &mut out);
                prober.on_timer(at, &mut table, &mut sends);
                steps += 1;
            }
            assert_eq!(prober.poll_at(), a.poll_at(), "{mode:?}");
            assert!(steps > 10, "{mode:?}: only {steps} timer steps in a minute");
        }
    }

    #[test]
    fn footprint_follows_the_neighbourhood_not_the_mesh() {
        // Host 0 with the same six peers in a 3000-host and a 30-host
        // mesh: no field may be sized by n.
        let footprint = |n: usize| {
            let peers = PeerSet::new(n, &[3, 8, 11, 17, 22, 29]);
            let mode = DisseminationMode::Delta { max_age_probes: 8 };
            OverlayNode::with_peers(HostId(0), peers, NodeConfig::default(), 1, SimTime::ZERO, mode)
                .approx_bytes()
        };
        let (big, small) = (footprint(3000), footprint(30));
        assert!(big < 16 * 1024, "a 6-peer node in a 3000-host mesh holds {big} B");
        assert!(big.abs_diff(small) * 10 <= small, "3000 hosts: {big} B, 30 hosts: {small} B");
        // The clique is the set of everyone, and pays for everyone.
        let clique = node(0, 3000).approx_bytes();
        assert!(clique > 100 * big, "clique {clique} B vs sparse {big} B");
    }

    #[test]
    fn timer_emits_probe_requests_with_piggyback() {
        let mut a = node(0, 4);
        let mut out = Vec::new();
        // Drive past the first interval; every peer gets probed at least
        // once somewhere within it.
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(16) {
            if let Some(at) = a.poll_at() {
                t = at;
                a.on_timer(t, t.as_micros() as i64, &mut out);
            } else {
                break;
            }
        }
        #[allow(
            clippy::disallowed_types,
            reason = "test assertion set compared by set equality, order never observed"
        )]
        let probed: std::collections::HashSet<u16> = out
            .iter()
            .filter_map(|tx| match &tx.packet {
                Packet::ProbeReq { .. } => Some(tx.to.0),
                _ => None,
            })
            .collect();
        assert_eq!(probed, [1u16, 2, 3].into_iter().collect());
        // Early probes go out before any outcome is recorded and carry
        // an empty piggyback (never-sampled entries are dropped); once
        // timeouts mark paths as sampled, the entries appear.
        let mut max_piggyback = 0;
        for tx in &out {
            if let Packet::ProbeReq { metrics, from, .. } = &tx.packet {
                assert_eq!(*from, HostId(0));
                assert!(metrics.len() <= 3);
                max_piggyback = max_piggyback.max(metrics.len());
            }
        }
        assert!(max_piggyback >= 1, "sampled paths must eventually ride the piggyback");
    }

    /// A clique of `n` nodes on a miniature in-memory "network" with zero
    /// loss and a fixed 10 ms delay, driven through `poll_at`, `on_timer`
    /// and `on_packet` until `until`.
    fn run_clique(n: usize, mode: DisseminationMode, until: SimTime) -> Vec<OverlayNode> {
        let cfg = NodeConfig::default();
        let mut nodes: Vec<OverlayNode> = (0..n as u16)
            .map(|i| {
                let seed = 42 + u64::from(i);
                OverlayNode::new_with_dissemination(HostId(i), n, cfg, seed, SimTime::ZERO, mode)
            })
            .collect();
        let delay = SimDuration::from_millis(10);
        // In-flight packets: (arrival, receiver, packet).
        let mut wire: Vec<(SimTime, u16, Packet)> = Vec::new();
        loop {
            let timers = nodes.iter().filter_map(|a| a.poll_at());
            let Some(t) = timers.chain(wire.iter().map(|w| w.0)).min() else { break };
            if t >= until {
                break;
            }
            let mut out = Vec::new();
            let (due, later) = wire.into_iter().partition(|w| w.0 <= t);
            wire = later;
            for (_, to, pkt) in due {
                nodes[usize::from(to)].on_packet(t, t.as_micros() as i64, pkt, &mut out);
            }
            for a in &mut nodes {
                if a.poll_at().is_some_and(|at| at <= t) {
                    a.on_timer(t, t.as_micros() as i64, &mut out);
                }
            }
            for tx in out {
                wire.push((t + delay, tx.to.0, tx.packet));
            }
        }
        nodes
    }

    #[test]
    fn two_nodes_learn_each_other_via_packet_exchange() {
        let nodes = run_clique(2, DisseminationMode::FullSnapshot, SimTime::from_secs(120));
        let ab = nodes[0].table().direct(HostId(1));
        let ba = nodes[1].table().direct(HostId(0));
        assert!(ab.samples() >= 4, "A probed B: {}", ab.samples());
        assert!(ba.samples() >= 4, "B probed A: {}", ba.samples());
        assert_eq!(ab.loss_rate(), 0.0);
        // RTT 20 ms → one-way estimate 10 ms.
        let lat = ab.latency_us().unwrap();
        assert!((lat - 10_000.0).abs() < 1_000.0, "lat={lat}");
    }

    #[test]
    fn delta_keeps_the_table_fresh_only_while_its_refresh_fits_the_staleness_horizon() {
        // The hazard `DisseminationMode::Delta` documents: once a stable
        // mesh stops changing (here after ~590 s, when the smoothed loss
        // estimate of a clean path has crossed its last whole percent),
        // the periodic full refresh is all that re-stamps an entry.
        // 4 probes x 15 s x 1.2 jitter = 72 s fits the 90 s horizon;
        // 16 probes = 240 s does not, and 15 minutes in sits ~190 s
        // after the third refresh and ~45 s before the fourth.
        const N: u16 = 6;
        let end = SimTime::from_secs(900);
        // Every (node, peer, dst) view the node still trusts at `end`.
        let trusted = |mode: DisseminationMode| -> Vec<(u16, u16, u16)> {
            let nodes = run_clique(usize::from(N), mode, end);
            let mut views = Vec::new();
            for (a, node) in (0..N).zip(&nodes) {
                for (peer, dst) in (0..N).flat_map(|p| (0..N).map(move |d| (p, d))) {
                    if node.table().remote_metric(HostId(peer), HostId(dst), end).is_some() {
                        views.push((a, peer, dst));
                    }
                }
            }
            views
        };
        let full = trusted(DisseminationMode::FullSnapshot);
        assert_eq!(full.len(), usize::from(N * (N - 1) * (N - 1)), "full snapshots: every view");
        let delta4 = trusted(DisseminationMode::Delta { max_age_probes: 4 });
        assert_eq!(delta4, full, "delta refreshing inside the horizon loses no view");
        let delta16 = trusted(DisseminationMode::Delta { max_age_probes: 16 });
        assert!(delta16.len() * 2 < full.len(), "a 240 s refresh lets views expire: {delta16:?}");
    }

    #[test]
    fn wrap_direct_and_via() {
        let a = node(0, 3);
        let m = Packet::Measure {
            id: 1,
            method: 0,
            leg: 0,
            origin: HostId(0),
            target: HostId(2),
            route: RouteTag::Direct,
            kind: MeasureKind::OneWay,
            sent_local_us: 0,
        };
        let d = a.wrap(Route::Direct, HostId(2), m.clone());
        assert_eq!(d.to, HostId(2));
        assert_eq!(d.packet, m);
        let v = a.wrap(Route::Via(HostId(1)), HostId(2), m.clone());
        assert_eq!(v.to, HostId(1));
        match v.packet {
            Packet::Forward { target, inner } => {
                assert_eq!(target, HostId(2));
                assert_eq!(*inner, m);
            }
            p => panic!("expected Forward, got {p:?}"),
        }
    }
}
