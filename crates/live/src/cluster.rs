//! Multi-node localhost clusters and the mesh-vs-direct live demo.

use crate::driver::{LiveConfig, LiveEvent, LiveNode};
use crate::impair::Impairment;
use netsim::HostId;
use overlay::{NodeConfig, Policy, ProberConfig};
use std::net::UdpSocket;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A set of live overlay nodes on loopback.
pub struct Cluster {
    nodes: Vec<Arc<LiveNode>>,
}

/// Demo-friendly node configuration: everything runs ~50× faster than
/// the RON defaults so convergence takes seconds, not minutes.
fn demo_node_config() -> NodeConfig {
    NodeConfig {
        prober: ProberConfig {
            interval: netsim::SimDuration::from_millis(300),
            jitter_frac: 0.2,
            timeout: netsim::SimDuration::from_millis(150),
            fast_count: 4,
            fast_spacing: netsim::SimDuration::from_millis(100),
        },
        window: 100,
        ewma_alpha: 0.1,
        staleness: netsim::SimDuration::from_secs(5),
        loss_hysteresis: 0.05,
        lat_hysteresis: 0.10,
    }
}

impl Cluster {
    /// Spawns `n` nodes on loopback with the given impairment.
    pub fn spawn(n: usize, impair: Impairment, seed: u64) -> std::io::Result<Cluster> {
        // Each socket is bound once and handed to its node, so the
        // address book names ports nobody else can take in between.
        let sockets =
            (0..n).map(|_| UdpSocket::bind("127.0.0.1:0")).collect::<Result<Vec<_>, _>>()?;
        let peers = sockets.iter().map(UdpSocket::local_addr).collect::<Result<Vec<_>, _>>()?;
        let mut nodes = Vec::with_capacity(n);
        for (i, socket) in sockets.into_iter().enumerate() {
            let cfg = LiveConfig {
                me: HostId(i as u16),
                peers: peers.clone(),
                node: demo_node_config(),
                impair,
                seed: seed ^ (i as u64) << 8,
            };
            nodes.push(LiveNode::spawn(socket, cfg)?);
        }
        Ok(Cluster { nodes })
    }

    /// The spawned nodes.
    pub fn nodes(&self) -> &[Arc<LiveNode>] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clusters are never empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shuts every node down.
    pub fn shutdown(&self) {
        for n in &self.nodes {
            n.shutdown();
        }
    }
}

/// Results of [`run_mesh_demo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoReport {
    /// Data packets sent per strategy.
    pub sent: u32,
    /// Arrivals when sending one copy on the direct path.
    pub direct_delivered: u32,
    /// Arrivals when sending two copies (direct + random intermediate).
    pub mesh_delivered: u32,
}

/// Live mesh-vs-direct comparison: node 0 streams data to node 1 over an
/// impaired loopback wire, once singly (direct) and once 2-redundantly
/// (direct + random intermediate). Returns delivery counts.
pub fn run_mesh_demo(
    cluster: &Cluster,
    packets: u32,
    pacing: Duration,
) -> std::io::Result<DemoReport> {
    assert!(cluster.len() >= 3, "mesh needs an intermediate");
    let src = &cluster.nodes()[0];
    let dst = &cluster.nodes()[1];
    let events = dst.take_events().expect("events taken once");

    // Stream 1: direct only. Stream 2: direct + random intermediate.
    for seq in 0..packets {
        src.send_data(HostId(1), 1, seq, b"payload".to_vec(), Policy::Direct);
        src.send_data(HostId(1), 2, seq, b"payload".to_vec(), Policy::Direct);
        src.send_data(HostId(1), 2, seq, b"payload".to_vec(), Policy::Random);
        thread::sleep(pacing);
    }

    // Collect deliveries until the line goes quiet.
    let mut got_direct = vec![false; packets as usize];
    let mut got_mesh = vec![false; packets as usize];
    loop {
        match events.recv_timeout(Duration::from_millis(500)) {
            Ok(LiveEvent::Data { stream, seq, .. }) => {
                if let Some(slot) = match stream {
                    1 => got_direct.get_mut(seq as usize),
                    2 => got_mesh.get_mut(seq as usize),
                    _ => None,
                } {
                    *slot = true;
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    Ok(DemoReport {
        sent: packets,
        direct_delivered: got_direct.iter().filter(|&&x| x).count() as u32,
        mesh_delivered: got_mesh.iter().filter(|&&x| x).count() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SnapshotRow;
    use overlay::Packet;
    use std::time::Instant;

    /// Polls `ok` until it holds or `within` has passed.
    fn eventually(within: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let give_up = Instant::now() + within;
        while !ok() {
            if Instant::now() >= give_up {
                return false;
            }
            thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// `node`'s snapshot row for `peer`.
    fn row(node: &LiveNode, peer: u16) -> SnapshotRow {
        let snap = node.snapshot().expect("snapshot");
        *snap.iter().find(|r| r.0 == HostId(peer)).expect("peer in snapshot")
    }

    /// A node of a clean 3-node cluster has measured both peers: alive,
    /// lossless, with a plausible loopback latency.
    fn assert_converged(node: &LiveNode) {
        let snap = node.snapshot().expect("snapshot");
        assert_eq!(snap.len(), 2);
        for (peer, loss, lat, dead) in snap {
            assert!(!dead, "peer {peer:?} wrongly dead");
            assert_eq!(loss, 0.0, "loopback lost probes to {peer:?}");
            let lat = lat.expect("latency measured");
            assert!(lat < 200_000.0, "loopback rtt/2 {lat}us");
        }
    }

    fn data_to(target: u16) -> Packet {
        let payload = b"x".to_vec();
        Packet::Data { origin: HostId(1), target: HostId(target), stream: 1, seq: 1, payload }
    }

    #[test]
    fn nodes_learn_each_other_over_loopback() {
        let cluster = Cluster::spawn(3, Impairment::none(), 7).unwrap();
        thread::sleep(Duration::from_millis(1500));
        assert_converged(&cluster.nodes()[0]);
        cluster.shutdown();
    }

    #[test]
    fn data_flows_direct_and_via_intermediate() {
        let cluster = Cluster::spawn(3, Impairment::none(), 8).unwrap();
        thread::sleep(Duration::from_millis(600));
        let report = run_mesh_demo(&cluster, 20, Duration::from_millis(5)).unwrap();
        assert_eq!(report.direct_delivered, 20, "clean wire: all direct arrive");
        assert_eq!(report.mesh_delivered, 20, "clean wire: all mesh arrive");
        cluster.shutdown();
    }

    #[test]
    fn mesh_beats_direct_on_lossy_wire() {
        // 25% loss per hop: direct ≈ 75% delivery; mesh (direct + a
        // 2-hop copy) ≈ 1 − 0.25 × (1 − 0.75²) ≈ 89%.
        let cluster = Cluster::spawn(4, Impairment::lossy(0.25, 2), 9).unwrap();
        thread::sleep(Duration::from_millis(1200));
        let report = run_mesh_demo(&cluster, 150, Duration::from_millis(4)).unwrap();
        assert!(
            report.mesh_delivered > report.direct_delivered,
            "mesh {} must beat direct {}",
            report.mesh_delivered,
            report.direct_delivered
        );
        cluster.shutdown();
    }

    #[test]
    fn dead_peer_is_detected_live() {
        let cluster = Cluster::spawn(3, Impairment::none(), 10).unwrap();
        thread::sleep(Duration::from_millis(800));
        // Kill node 2; node 0 must mark it dead within a few fast chains.
        cluster.nodes()[2].shutdown();
        thread::sleep(Duration::from_millis(1500));
        let snap = cluster.nodes()[0].snapshot().expect("snapshot");
        let dead_peer = snap.iter().find(|(p, _, _, _)| *p == HostId(2)).unwrap();
        assert!(dead_peer.3, "node 2 should be declared dead");
        let live_peer = snap.iter().find(|(p, _, _, _)| *p == HostId(1)).unwrap();
        assert!(!live_peer.3, "node 1 must stay alive");
        cluster.shutdown();
    }

    #[test]
    fn datagram_naming_an_unknown_host_does_not_kill_the_node() {
        let cluster = Cluster::spawn(3, Impairment::none(), 11).unwrap();
        thread::sleep(Duration::from_millis(600));
        let victim = &cluster.nodes()[0];
        let evil = [
            Packet::ProbeReq { id: 1, from: HostId(999), sent_local_us: 0, metrics: vec![] },
            Packet::Forward { target: HostId(999), inner: Box::new(data_to(1)) },
            data_to(999),
        ];
        let side = UdpSocket::bind("127.0.0.1:0").unwrap();
        for packet in &evil {
            side.send_to(&packet.encode(), victim.addr()).unwrap();
        }
        // Long enough for node 1 to give up on a node 0 that died.
        thread::sleep(Duration::from_millis(1500));
        assert!(victim.snapshot().is_some(), "node 0 still answers");
        assert!(!row(&cluster.nodes()[1], 0).3, "node 1 must not have declared node 0 dead");
        let counters = victim.counters();
        assert_eq!(counters.unknown_host, evil.len() as u64);
        assert_eq!(counters.forwarded, 0, "nothing was relayed to a stranger");
        assert!(counters.probes_sent > 0, "the node's own counters are visible: {counters:?}");
        cluster.shutdown();
    }

    #[test]
    fn noise_does_not_disturb_convergence() {
        let cluster = Cluster::spawn(3, Impairment::none(), 7).unwrap();
        thread::sleep(Duration::from_millis(500));
        let victim = &cluster.nodes()[0];
        let side = UdpSocket::bind("127.0.0.1:0").unwrap();
        let valid =
            Packet::ProbeReq { id: 1, from: HostId(1), sent_local_us: 0, metrics: vec![] }.encode();
        let mut rng = netsim::Rng::new(0x6e6f697365);
        let rounds = 40;
        for _ in 0..rounds {
            // Every truncation of a valid packet, the empty datagram
            // first, then random bytes; paced so the socket buffer never
            // overflows onto a real probe.
            for len in 0..valid.len() {
                side.send_to(&valid[..len], victim.addr()).unwrap();
            }
            let junk: Vec<u8> = (0..1 + rng.below(64)).map(|_| rng.next_u64() as u8).collect();
            side.send_to(&junk, victim.addr()).unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        thread::sleep(Duration::from_millis(600));
        assert_converged(victim);
        let undecodable = victim.counters().undecodable;
        assert!(undecodable >= rounds * valid.len() as u64, "counted {undecodable}");
        cluster.shutdown();
    }

    #[test]
    fn full_event_channel_is_counted() {
        let cluster = Cluster::spawn(3, Impairment::none(), 16).unwrap();
        let (src, dst) = (&cluster.nodes()[0], &cluster.nodes()[1]);
        // Nobody drains node 1's events: 4096 fit, the rest are counted.
        // Loopback drops datagrams while node 1's receive buffer is full,
        // so no fixed number sent is sure to fill the channel: send
        // paced batches until a drop is counted.
        let mut seq = 0;
        assert!(eventually(Duration::from_secs(10), || {
            for _ in 0..100 {
                src.send_data(HostId(1), 1, seq, b"x".to_vec(), Policy::Direct);
                seq += 1;
            }
            dst.counters().events_dropped > 0
        }));
        // Joined first, so nothing refills the slots the count frees.
        cluster.shutdown();
        assert_eq!(dst.take_events().expect("events").try_iter().count(), 4096);
    }

    #[test]
    fn shutdown_joins_the_thread_and_frees_the_port() {
        let cluster = Cluster::spawn(3, Impairment::lossy(0.05, 2), 12).unwrap();
        thread::sleep(Duration::from_millis(300));
        let node = &cluster.nodes()[2];
        node.shutdown();
        UdpSocket::bind(node.addr()).expect("port free once shutdown returns");
        node.shutdown();
        let payload = b"late".to_vec();
        assert!(!node.send_data(HostId(0), 1, 0, payload, Policy::Direct));
        assert_eq!(node.route(HostId(0), Policy::MinLoss), None);
        assert_eq!(node.snapshot(), None);
        assert!(node.counters().probes_sent > 0, "counters outlive the thread");
        cluster.shutdown();
    }

    #[test]
    fn a_node_refuses_more_peers_than_a_probe_can_carry() {
        // `me` plus 256 peers fits one full snapshot; one more does not.
        for (hosts, fits) in [(258, false), (257, true)] {
            let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
            let mut peers = vec![std::net::SocketAddr::from(([127, 0, 0, 1], 9)); hosts];
            peers[0] = socket.local_addr().unwrap();
            let cfg = LiveConfig {
                me: HostId(0),
                peers,
                node: demo_node_config(),
                impair: Impairment::none(),
                seed: 17,
            };
            match LiveNode::spawn(socket, cfg) {
                Ok(_) => assert!(fits, "{hosts} hosts spawned"),
                Err(e) => {
                    assert!(!fits, "{hosts} hosts refused: {e}");
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                    assert!(e.to_string().contains("256"), "{e}");
                }
            }
        }
    }

    #[test]
    fn dropped_cluster_frees_its_ports() {
        let cluster = Cluster::spawn(3, Impairment::lossy(0.05, 2), 13).unwrap();
        thread::sleep(Duration::from_millis(300));
        let addrs: Vec<_> = cluster.nodes().iter().map(|n| n.addr()).collect();
        drop(cluster);
        for addr in addrs {
            UdpSocket::bind(addr).expect("port free once the cluster is dropped");
        }
    }

    #[test]
    fn restarted_node_is_relearned() {
        let impair = Impairment::lossy(0.05, 2);
        let cluster = Cluster::spawn(3, impair, 14).unwrap();
        let (watcher, doomed) = (&cluster.nodes()[0], &cluster.nodes()[2]);
        assert!(eventually(Duration::from_secs(2), || row(watcher, 2).2.is_some()));
        doomed.shutdown();
        assert!(eventually(Duration::from_secs(3), || row(watcher, 2).3), "node 2 declared dead");

        // Same address, new socket: binds only because `shutdown` freed it.
        let socket = UdpSocket::bind(doomed.addr()).expect("port free once shutdown returns");
        let cfg = LiveConfig {
            me: HostId(2),
            peers: cluster.nodes().iter().map(|n| n.addr()).collect(),
            node: demo_node_config(),
            impair,
            seed: 15,
        };
        let reborn = LiveNode::spawn(socket, cfg).unwrap();
        assert!(
            eventually(Duration::from_millis(1500), || {
                !row(watcher, 2).3 && (0..2).all(|peer| row(&reborn, peer).2.is_some())
            }),
            "node 0 sees node 2 alive again, and node 2 has measured both peers"
        );
        reborn.shutdown();
        cluster.shutdown();
    }
}
