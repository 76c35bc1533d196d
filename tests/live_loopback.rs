//! Tier-1 live-driver test: a real loopback-UDP overlay cluster must
//! converge (promoted from the `mpath-live` crate suite so
//! `cargo test -q` exercises the socket path, not just the simulator).
//!
//! The demo node configuration probes every ~300 ms, so three nodes
//! exchange several full probe cycles within 1.5 s of wall-clock time:
//! every peer must be alive, lossless and with a measured latency — the
//! same link-state convergence the simulator's overlay reaches, driven
//! here by one thread per node over real sockets.

use mpath::live::{Cluster, Impairment};

#[test]
fn loopback_cluster_converges() {
    let cluster = Cluster::spawn(3, Impairment::none(), 7).expect("spawn cluster");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let snap = cluster.nodes()[0].snapshot().expect("snapshot");
    assert_eq!(snap.len(), 2, "node 0 must know both peers");
    for (peer, loss, lat, dead) in snap {
        assert!(!dead, "peer {peer:?} wrongly declared dead");
        assert_eq!(loss, 0.0, "loopback lost probes to {peer:?}");
        let lat = lat.expect("latency measured");
        assert!(lat < 200_000.0, "loopback rtt/2 {lat}us implausible");
    }
    cluster.shutdown();
}
