//! Outage rerouting: watch the reactive overlay dodge a path failure.
//!
//! A four-node overlay runs on the simulator; two minutes in, the core
//! segment of the A→B path fails for three minutes (the paper's §1
//! "outages lasting several minutes"). The example prints a timeline of
//! A's routing decision toward B and the delivery rate of a steady
//! packet stream under direct vs. loss-optimised routing.
//!
//! ```sh
//! cargo run --release --example outage_rerouting
//! ```

use mpath::netsim::{
    Delivery, EventQueue, HostId, LoadProfile, Network, SimDuration, SimTime, Topology,
};
use mpath::overlay::{
    DisseminationMode, NodeConfig, OverlayNode, Packet, Policy, Route, Transmit,
};

enum Ev {
    NodeTimer(u16),
    Arrive { to: u16, packet: Packet },
    AppTick,
}

fn main() {
    let n = 4;
    let topo = Topology::synthetic(n, 0.001, 7);
    let (a, b) = (HostId(0), HostId(1));
    let broken_core = topo.seg_core(a, b);
    let mut net = Network::new(topo, 7);
    net.set_load(LoadProfile::flat());

    let mut nodes: Vec<OverlayNode> = (0..n as u16)
        .map(|i| {
            OverlayNode::new_with_dissemination(
                HostId(i),
                n,
                NodeConfig::default(),
                100 + i as u64,
                SimTime::ZERO,
                DisseminationMode::FullSnapshot,
            )
        })
        .collect();

    let mut q = EventQueue::new();
    for i in 0..n as u16 {
        if let Some(t) = nodes[i as usize].poll_at() {
            q.push(t, Ev::NodeTimer(i));
        }
    }
    q.push(SimTime::from_secs(1), Ev::AppTick);

    let outage_start = SimTime::from_secs(120);
    let outage = SimDuration::from_secs(180);
    let end = SimTime::from_secs(480);
    let mut outage_armed = true;

    let (mut direct_sent, mut direct_ok) = (0u32, 0u32);
    let (mut smart_sent, mut smart_ok) = (0u32, 0u32);
    let mut last_route = Route::Direct;

    println!("time      A→B route       direct   loss-optimised");
    while let Some((now, ev)) = q.pop() {
        if now > end {
            break;
        }
        if outage_armed && now >= outage_start {
            outage_armed = false;
            net.segment_mut(broken_core).force_outage(now, outage);
            println!("{now}  *** core segment of A→B fails for {outage} ***");
        }
        match ev {
            Ev::NodeTimer(i) => {
                let due = nodes[i as usize].poll_at();
                if let Some(due) = due {
                    if due > now {
                        q.push(due, Ev::NodeTimer(i));
                        continue;
                    }
                }
                let mut out: Vec<Transmit> = Vec::new();
                nodes[i as usize].on_timer(now, now.as_micros() as i64, &mut out);
                for tx in out {
                    if let Delivery::Delivered { delay } = net.transmit(now, HostId(i), tx.to) {
                        q.push(now + delay, Ev::Arrive { to: tx.to.0, packet: tx.packet });
                    }
                }
                if let Some(t) = nodes[i as usize].poll_at() {
                    q.push(t.max(now + SimDuration::from_micros(1)), Ev::NodeTimer(i));
                }
            }
            Ev::Arrive { to, packet } => {
                let mut out = Vec::new();
                nodes[to as usize].on_packet(now, now.as_micros() as i64, packet, &mut out);
                for tx in out {
                    if let Delivery::Delivered { delay } = net.transmit(now, HostId(to), tx.to) {
                        q.push(now + delay, Ev::Arrive { to: tx.to.0, packet: tx.packet });
                    }
                }
            }
            Ev::AppTick => {
                // One application packet per second under each strategy,
                // counted end to end (including the forwarding hop).
                let route = nodes[0].route(b, Policy::MinLoss, now);
                if route != last_route {
                    println!("{now}  route changed: {last_route:?} → {route:?}");
                    last_route = route;
                }
                direct_sent += 1;
                if net.transmit(now, a, b).is_delivered() {
                    direct_ok += 1;
                }
                smart_sent += 1;
                match route {
                    Route::Direct => {
                        if net.transmit(now, a, b).is_delivered() {
                            smart_ok += 1;
                        }
                    }
                    Route::Via(k) => {
                        if net.transmit(now, a, k).is_delivered()
                            && net.transmit(now, k, b).is_delivered()
                        {
                            smart_ok += 1;
                        }
                    }
                }
                if now.as_secs() % 60 == 0 {
                    println!(
                        "{now}  {last_route:?}    {direct_ok}/{direct_sent}   {smart_ok}/{smart_sent}"
                    );
                }
                q.push(now + SimDuration::from_secs(1), Ev::AppTick);
            }
        }
    }

    println!("\nfinal delivery rates over {end}:");
    println!(
        "  direct Internet path : {direct_ok}/{direct_sent} ({:.1}%)",
        100.0 * direct_ok as f64 / direct_sent as f64
    );
    println!(
        "  reactive overlay     : {smart_ok}/{smart_sent} ({:.1}%)",
        100.0 * smart_ok as f64 / smart_sent as f64
    );
    println!("\nreactive routing rides out the outage via an intermediate (paper §5.1).");
}
