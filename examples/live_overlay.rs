//! Live overlay on loopback: the same node code that runs in the
//! simulator, on real UDP sockets with an impaired wire.
//!
//! Spawns five overlay nodes on 127.0.0.1, waits for probing to
//! converge, then streams 200 packets from node 0 to node 1 twice —
//! once direct, once 2-redundant (direct + random intermediate) — and
//! prints the delivery comparison.
//!
//! ```sh
//! cargo run --release --example live_overlay
//! ```

use mpath::live::{run_mesh_demo, Cluster, Impairment};
use mpath::netsim::HostId;
use mpath::overlay::Policy;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // A 12%-loss, ~8 ms wire: roughly a bad WAN path.
    let impair = Impairment::lossy(0.12, 8);
    println!("spawning 5 overlay nodes on loopback (12% loss, ~8 ms delay per hop)...");
    let cluster = Cluster::spawn(5, impair, 4242)?;

    println!("letting the probers converge for 2 s...");
    std::thread::sleep(Duration::from_secs(2));

    if let Some(snap) = cluster.nodes()[0].snapshot() {
        println!("\nnode 0's view of the mesh:");
        for (peer, loss, lat, dead) in snap {
            println!(
                "  peer {:>2}: probe loss {:>5.1}%, latency {:>7}, {}",
                peer.0,
                loss * 100.0,
                lat.map(|l| format!("{:.1} ms", l / 1000.0)).unwrap_or_else(|| "?".into()),
                if dead { "DEAD" } else { "alive" }
            );
        }
    }
    if let Some(route) = cluster.nodes()[0].route(HostId(1), Policy::MinLoss) {
        println!("\nnode 0's loss-optimised route to node 1: {route:?}");
    }

    println!("\nstreaming 200 packets direct vs 2-redundant mesh...");
    let report = run_mesh_demo(&cluster, 200, Duration::from_millis(5))?;
    println!(
        "  direct: {:>3}/{} delivered ({:.1}%)",
        report.direct_delivered,
        report.sent,
        100.0 * report.direct_delivered as f64 / report.sent as f64
    );
    println!(
        "  mesh  : {:>3}/{} delivered ({:.1}%)",
        report.mesh_delivered,
        report.sent,
        100.0 * report.mesh_delivered as f64 / report.sent as f64
    );
    println!("\n2-redundant mesh routing masks most of the wire's loss (paper §3.2).");

    cluster.shutdown();
    Ok(())
}
