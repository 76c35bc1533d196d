//! Per-layer probes: each layer of the repo is timed from outside, by
//! batch-timing calls into its public functions at the operating points
//! the workloads run it at (`_n17`/`_n30`/`_n120` = host count).
//!
//! These are estimates, not in-program measurements: they see each
//! layer with warm caches and none of the runner's glue around it. The
//! cost model in [`crate::model`] says how much of a run they explain.

use crate::metrics::Metrics;
use crate::stats::{batch_ns, summarize, Summary};
use crate::workloads::render_summary;
use analysis::{LossAccum, WindowAccum};
use mpath_core::distrib::{encode_msg, read_msg_blocking, Msg};
use mpath_core::{CampaignJob, ExperimentOutput, MethodSet, ScenarioSpec};
use netsim::{EventQueue, HostId, Network, Rng, SimDuration, SimTime};
use overlay::{
    DisseminationMode, Disseminator, LinkStateTable, MetricEntry, NodeConfig, OverlayNode, Packet,
    Policy, Route, Transmit,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use trace::{Collector, CollectorConfig, LegOutcome, PairOutcome, RecvEvent, SendEvent};

/// Timed batches per probe (one warm-up batch precedes them).
const BATCHES: usize = 5;

/// Iterations per batch at `scale` (1 = full; the self-test divides).
fn iters(full: u64, scale: u64) -> u64 {
    (full / scale).max(50)
}

// ------------------------------------------------------------ netsim

/// Campaign-shaped delays: mostly packet flights inside the open
/// calendar window, a quarter probe-pacing waits, a few node timers.
fn campaign_delays(seed: u64) -> Vec<SimDuration> {
    let mut rng = Rng::new(seed ^ 0xE7E7);
    (0..4096)
        .map(|_| {
            let s = match rng.below(20) {
                0 => rng.uniform(1.0, 15.0),
                1..=5 => rng.uniform(0.6, 1.2),
                _ => rng.uniform(0.005, 0.150),
            };
            SimDuration::from_secs_f64(s)
        })
        .collect()
}

fn event_queue(occupancy: usize, seed: u64, scale: u64) -> Summary {
    let delays = campaign_delays(seed);
    let mut q = EventQueue::new();
    for (i, d) in delays.iter().cycle().take(occupancy).enumerate() {
        q.push(SimTime::ZERO + *d, i as u64);
    }
    let mut i = 0usize;
    // One pop and one push per call: occupancy stays resident while
    // the timestamps advance, as in a campaign.
    batch_ns(BATCHES, iters(40_000, scale), || {
        let (now, ev) = q.pop().expect("occupancy is constant");
        q.push(now + delays[i & 4095], black_box(ev));
        i += 1;
    })
}

fn random_pairs(n: usize, seed: u64) -> Vec<(HostId, HostId)> {
    let mut rng = Rng::new(seed ^ 0x9A12);
    (0..4096)
        .map(|_| {
            let src = rng.below(n as u64) as u16;
            let mut dst = rng.below(n as u64 - 1) as u16;
            if dst >= src {
                dst += 1;
            }
            (HostId(src), HostId(dst))
        })
        .collect()
}

/// `Network::transmit` over uniform random pairs under the diurnal
/// load, time advancing by `dt` per packet (the workload's packet rate).
fn transit(spec: &ScenarioSpec, seed: u64, dt: SimDuration, scale: u64) -> Summary {
    let topo = spec.topology(seed);
    let pairs = random_pairs(topo.n(), seed);
    let mut net = Network::new(topo, seed);
    let (mut now, mut i) = (SimTime::ZERO, 0usize);
    batch_ns(BATCHES, iters(40_000, scale), || {
        let (src, dst) = pairs[i & 4095];
        black_box(net.transmit(now, src, dst));
        now += dt;
        i += 1;
    })
}

fn host_up(spec: &ScenarioSpec, seed: u64, scale: u64) -> Summary {
    let topo = spec.topology(seed);
    let n = topo.n() as u16;
    let mut net = Network::new(topo, seed);
    let (mut now, mut h) = (SimTime::ZERO, 0u16);
    batch_ns(BATCHES, iters(40_000, scale), || {
        black_box(net.host_up(HostId(h), now));
        now += SimDuration::from_millis(5);
        h = (h + 1) % n;
    })
}

/// Samples `op` a few times, one clock pair per call (for calls that
/// take tens of microseconds or more); returns seconds per call.
fn sample_s<R>(samples: usize, mut op: impl FnMut() -> R) -> Summary {
    black_box(op());
    let v: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(op());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&v).expect("at least one sample")
}

// ------------------------------------------------------------ overlay

/// One-way delay of the overlay-only loop's lossless wire.
const MESH_DELAY: SimDuration = SimDuration::from_millis(20);

/// `n` overlay nodes driven exactly as the experiment runner drives
/// them — `poll_at`, stale-timer re-arm, `on_timer`, `poll_at`,
/// `on_packet` — over a fixed-delay lossless wire, with no event
/// queue, underlay, collector or measurement traffic around them.
struct Mesh {
    nodes: Vec<OverlayNode>,
    timers: BinaryHeap<Reverse<(SimTime, u16)>>,
    /// Fixed delay makes delivery order equal send order: a FIFO.
    wire: VecDeque<(SimTime, u16, Packet)>,
    out: Vec<Transmit>,
    now: SimTime,
    packets: u64,
    entries: u64,
}

fn build_nodes(n: usize, mode: DisseminationMode, seed: u64) -> Vec<OverlayNode> {
    (0..n)
        .map(|i| {
            OverlayNode::new_with_dissemination(
                HostId(i as u16),
                n,
                NodeConfig::default(),
                seed ^ (0x1000 + i as u64),
                SimTime::ZERO,
                mode,
            )
        })
        .collect()
}

impl Mesh {
    fn new(n: usize, mode: DisseminationMode, seed: u64) -> Mesh {
        let nodes = build_nodes(n, mode, seed);
        let timers = nodes
            .iter()
            .enumerate()
            .filter_map(|(h, nd)| nd.poll_at().map(|t| Reverse((t, h as u16))))
            .collect();
        Mesh {
            nodes,
            timers,
            wire: VecDeque::new(),
            out: Vec::new(),
            now: SimTime::ZERO,
            packets: 0,
            entries: 0,
        }
    }

    fn flush(&mut self, from: u16) {
        for tx in self.out.drain(..) {
            debug_assert_ne!(tx.to.0, from);
            self.wire.push_back((self.now + MESH_DELAY, tx.to.0, tx.packet));
        }
    }

    fn on_timer(&mut self, h: u16) {
        let node = &mut self.nodes[h as usize];
        let Some(due) = node.poll_at() else { return };
        if due > self.now {
            self.timers.push(Reverse((due, h)));
            return;
        }
        node.on_timer(self.now, self.now.as_micros() as i64, &mut self.out);
        if let Some(next) = node.poll_at() {
            self.timers.push(Reverse((next.max(self.now + SimDuration::from_micros(1)), h)));
        }
        self.flush(h);
    }

    fn on_arrive(&mut self, to: u16, packet: Packet) {
        self.packets += 1;
        self.entries += match &packet {
            Packet::ProbeReq { metrics, .. } | Packet::ProbeResp { metrics, .. } => metrics.len(),
            Packet::Lsa { entries, .. } => entries.len(),
            _ => 0,
        } as u64;
        let local = self.now.as_micros() as i64;
        self.nodes[to as usize].on_packet(self.now, local, packet, &mut self.out);
        self.flush(to);
    }

    /// Processes every timer and arrival due by `end`.
    fn run_until(&mut self, end: SimTime) {
        loop {
            let timer = self.timers.peek().map(|r| r.0 .0);
            let arrival = self.wire.front().map(|p| p.0);
            let take_timer = match (timer, arrival) {
                (Some(t), Some(a)) => t < a,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            let at = if take_timer { timer } else { arrival }.expect("matched above");
            if at > end {
                return;
            }
            self.now = at;
            if take_timer {
                let Reverse((_, h)) = self.timers.pop().expect("peeked");
                self.on_timer(h);
            } else {
                let (_, to, packet) = self.wire.pop_front().expect("peeked");
                self.on_arrive(to, packet);
            }
        }
    }
}

/// What the overlay-only loop measured at one operating point.
struct MeshProbe {
    mesh: Mesh,
    packet_ns: Summary,
    entries_per_packet: f64,
}

/// Warms the mesh for 3 probe rounds, then times batches of whole
/// rounds (at least ~25k packets each); cost is wall time over packets
/// handled, so timer work is amortised into the per-packet figure.
fn mesh_probe(n: usize, mode: DisseminationMode, seed: u64, scale: u64) -> MeshProbe {
    // The self-test shrinks simulated spans with `scale`; at full scale
    // `round` is one whole probe round.
    let round = NodeConfig::default().prober.interval / scale;
    let mut mesh = Mesh::new(n, mode, seed);
    mesh.run_until(SimTime::ZERO + round * 3);
    let per_round = 2 * n as u64 * (n as u64 - 1);
    let rounds = 25_000u64.div_ceil(per_round);
    let (p0, e0) = (mesh.packets, mesh.entries);
    let samples: Vec<f64> = (0..4)
        .map(|_| {
            let (before, end) = (mesh.packets, mesh.now + round * rounds);
            let t0 = Instant::now();
            mesh.run_until(end);
            t0.elapsed().as_nanos() as f64 / (mesh.packets - before).max(1) as f64
        })
        .collect();
    MeshProbe {
        packet_ns: summarize(&samples).expect("four batches"),
        entries_per_packet: (mesh.entries - e0) as f64 / (mesh.packets - p0).max(1) as f64,
        mesh,
    }
}

fn poll_at(mesh: &Mesh, scale: u64) -> Summary {
    let mut i = 0usize;
    batch_ns(BATCHES, iters(20_000, scale), || {
        black_box(mesh.nodes[i % mesh.nodes.len()].poll_at());
        i += 1;
    })
}

/// Route lookups on node 0 of a warmed mesh, destinations cycling.
fn route(mesh: &mut Mesh, policy: Policy, avoid: &[Route], scale: u64) -> Summary {
    let (n, now) = (mesh.nodes.len() as u16, mesh.now);
    let node = &mut mesh.nodes[0];
    let mut dst = 0u16;
    batch_ns(BATCHES, iters(20_000, scale), || {
        dst = dst % (n - 1) + 1;
        black_box(node.route_avoiding(HostId(dst), policy, now, avoid));
    })
}

/// A standalone table configured as [`OverlayNode`] configures its own,
/// every direct path sampled 50 times, plus a full peer vector.
fn warmed_table(n: usize) -> (LinkStateTable, Vec<MetricEntry>, SimTime) {
    let cfg = NodeConfig::default();
    let mut table = LinkStateTable::new(
        HostId(0),
        n,
        cfg.window,
        cfg.ewma_alpha,
        1 + cfg.prober.fast_count,
        cfg.staleness,
        cfg.loss_hysteresis,
        cfg.lat_hysteresis,
    );
    let now = SimTime::from_secs(100);
    for peer in 1..n as u16 {
        for i in 0..50u64 {
            table
                .direct_mut(HostId(peer))
                .record_success(now, SimDuration::from_millis(20 + (u64::from(peer) * 7 + i) % 60));
        }
    }
    let entries = (1..n as u16)
        .map(|j| MetricEntry {
            peer: HostId(j),
            loss_e4: (j * 11) % 300,
            lat_us: 10_000 + (u32::from(j) * 997) % 80_000,
            alive: true,
        })
        .collect();
    (table, entries, now)
}

fn ingest_per_entry(n: usize, scale: u64) -> Summary {
    let (mut table, entries, now) = warmed_table(n);
    let mut from = 0u16;
    let s = batch_ns(BATCHES, iters(200_000 / n as u64, scale), || {
        from = from % (n as u16 - 1) + 1;
        table.ingest_full(HostId(from), black_box(&entries), now);
    });
    s.scaled(1.0 / entries.len() as f64)
}

fn snapshot_rebuild(n: usize, scale: u64) -> Summary {
    let (mut table, _, now) = warmed_table(n);
    batch_ns(BATCHES, iters(400_000 / n as u64, scale), || {
        // A direct-path update invalidates the cache, so every call
        // rebuilds the advertised vector from all n-1 path stats.
        table.direct_mut(HostId(5)).record_success(now, SimDuration::from_millis(21));
        black_box(table.snapshot().len());
    })
}

fn probe_send(n: usize, mode: DisseminationMode, seed: u64, scale: u64) -> Summary {
    let (mut table, _, _) = warmed_table(n);
    let mut dissem = Disseminator::new(mode, HostId(0), n, Rng::new(seed ^ 0xD155), SimTime::ZERO);
    let (mut id, mut peer) = (0u64, 0u16);
    batch_ns(BATCHES, iters(20_000, scale), || {
        id += 1;
        peer = peer % (n as u16 - 1) + 1;
        black_box(dissem.on_probe_send(HostId(peer), id, &mut table));
    })
}

// ------------------------------------------------- trace and analysis

/// `on_send` + `on_recv` + amortised `advance`/`drain_into` per leg:
/// two-leg probes from 30 hosts 30 ms apart (the campaign's rate), 2%
/// of legs lost, a sweep every 10 simulated seconds.
fn collector_leg(scale: u64) -> Summary {
    let mut c = Collector::new(30, CollectorConfig::default());
    let mut buf = Vec::new();
    let (mut now, mut id) = (SimTime::ZERO, 0u64);
    let s = batch_ns(BATCHES, iters(10_000, scale), || {
        id += 1;
        let (src, dst) = (HostId((id % 30) as u16), HostId(((id + 7) % 30) as u16));
        for leg in 0..2u8 {
            let sent_local_us = now.as_micros() as i64;
            c.on_send(SendEvent {
                id,
                method: 0,
                leg,
                src,
                dst,
                route: leg,
                sent: now,
                sent_local_us,
            });
            if !(id * 2 + u64::from(leg)).is_multiple_of(50) {
                let at = now + SimDuration::from_millis(40);
                c.on_recv(RecvEvent { id, leg, recv: at, recv_local_us: at.as_micros() as i64 });
            }
        }
        now += SimDuration::from_millis(30);
        if id.is_multiple_of(333) {
            c.advance(now);
            c.drain_into(&mut buf);
            black_box(buf.len());
        }
    });
    s.scaled(0.5)
}

fn outcomes(n: usize, methods: usize, seed: u64) -> Vec<PairOutcome> {
    let pairs = random_pairs(n, seed);
    (0..4096usize)
        .map(|i| {
            let leg = |k: usize| {
                let lost = (i * 2 + k).is_multiple_of(50);
                Some(LegOutcome {
                    route: k as u8,
                    lost,
                    one_way_us: (!lost).then_some(30_000 + ((i * 37 + k * 11) % 50_000) as i64),
                })
            };
            let (src, dst) = pairs[i];
            let legs = [leg(0), leg(1), None, None];
            PairOutcome::from_legs(
                i as u64,
                (i % methods) as u8,
                src,
                dst,
                SimTime::ZERO,
                legs,
                false,
            )
        })
        .collect()
}

/// `(loss, windows)` ns per outcome for a method set's accumulators,
/// outcomes 30 ms apart so windows close at the campaign's cadence.
fn accumulators(n: usize, set: &MethodSet, seed: u64, scale: u64) -> (Summary, Summary) {
    let mut outs = outcomes(n, set.methods.len(), seed);
    let mut loss = LossAccum::with_depth(n, set.total(), set.max_legs());
    let mut i = 0usize;
    let loss_ns = batch_ns(BATCHES, iters(40_000, scale), || {
        loss.on_outcome(black_box(&outs[i & 4095]));
        i += 1;
    });
    let mut win = WindowAccum::new(n, set.total(), SimDuration::from_mins(20));
    let mut now = SimTime::ZERO;
    let win_ns = batch_ns(BATCHES, iters(40_000, scale), || {
        let o = &mut outs[i & 4095];
        o.sent = now;
        win.on_outcome(black_box(o));
        now += SimDuration::from_millis(30);
        i += 1;
    });
    (loss_ns, win_ns)
}

// ------------------------------------------------- serde, frames, merge

fn decode(frame: &[u8]) -> Result<ExperimentOutput, String> {
    match read_msg_blocking(&mut &frame[..]) {
        Ok(Some(Msg::Result { output, .. })) => Ok(*output),
        Ok(_) => Err("slice frame does not hold a Result".to_string()),
        Err(e) => Err(format!("slice frame does not decode: {e}")),
    }
}

/// Serde, framing, merge, digest and render costs on one real slice
/// result (`frame` is slice 0 of the executor job, as `encode_msg`
/// framed it).
fn result_costs(m: &mut Metrics, frame: &[u8]) -> Result<(), String> {
    const MS: f64 = 1e3;
    let out = decode(frame)?;
    let json = serde_json::to_string(&out).map_err(|e| e.to_string())?;
    let bytes = json.len() as f64;
    m.put("serde.result_bytes", None, bytes);
    let enc = sample_s(BATCHES, || serde_json::to_string(&out).map(|s| s.len()));
    let dec = sample_s(BATCHES, || serde_json::from_str::<ExperimentOutput>(&json).is_ok());
    m.put_sampled("serde.encode_ms", None, enc, MS);
    m.put_sampled("serde.decode_ms", None, dec, MS);
    m.put_sampled("serde.encode_ns_per_byte", None, enc, 1e9 / bytes);
    m.put_sampled("serde.decode_ns_per_byte", None, dec, 1e9 / bytes);

    let render = sample_s(BATCHES, || render_summary(&out, false).len());
    put_us(m, "core.report.render_us", render);
    let digest = sample_s(BATCHES, || out.fingerprint());
    put_us(m, "analysis.digest_us", digest);

    let mut acc = decode(frame)?;
    let loss = sample_s(BATCHES, || acc.loss.merge(&out.loss));
    put_us(m, "analysis.loss.merge_us", loss);
    let win = sample_s(BATCHES, || {
        acc.win20.merge(&out.win20);
        acc.win60.merge(&out.win60);
    });
    put_us(m, "analysis.windows.merge_us", win);

    let msg = Msg::Result { slice: 0, output: Box::new(out) };
    let fe = sample_s(BATCHES, || encode_msg(&msg).len());
    m.put_sampled("core.distrib.frame_encode_ms", None, fe, MS);
    let fd = sample_s(BATCHES, || read_msg_blocking(&mut &frame[..]).is_ok());
    m.put_sampled("core.distrib.frame_decode_ms", None, fd, MS);
    Ok(())
}

// ------------------------------------------------------------ driver

/// What the probes take their operating points from: the workloads'
/// own jobs, and one framed slice result of the executor job.
pub struct Inputs<'a> {
    /// The `campaign30` job (30 hosts, 8 table rows).
    pub campaign: &'a CampaignJob,
    /// The `roundtrip17` job (17 hosts, 12 rows).
    pub wide: &'a CampaignJob,
    /// The `mesh120` job (120 hosts, full snapshots).
    pub mesh: &'a CampaignJob,
    /// The `mesh120_delta` job (its dissemination mode).
    pub mesh_delta: &'a CampaignJob,
    /// The `shards2`/`distrib2` job (24 slices).
    pub sliced: &'a CampaignJob,
    /// Slice 0 of `sliced`, as `encode_msg` framed it.
    pub slice_frame: &'a [u8],
}

/// Records a once-per-run timing already in its metric's unit.
fn put(m: &mut Metrics, name: &str, s: Summary) {
    m.put_sampled(name, None, s, 1.0);
}

/// Records a once-per-run timing sampled in seconds, as microseconds.
fn put_us(m: &mut Metrics, name: &str, s: Summary) {
    m.put_sampled(name, None, s, 1e6);
}

/// The overlay-only loop at `n` hosts, plus everything read off its
/// warmed full-snapshot mesh. `tag` is `n17` / `n30` / `n120`.
fn overlay_probes(m: &mut Metrics, n: usize, tag: &str, seed: u64, scale: u64) -> Mesh {
    let full = DisseminationMode::FullSnapshot;
    let mut p = mesh_probe(n, full, seed, scale);
    put(m, &format!("overlay.node.packet_ns_{tag}_full"), p.packet_ns);
    m.put(&format!("overlay.node.entries_per_packet_{tag}_full"), None, p.entries_per_packet);
    let minloss = route(&mut p.mesh, Policy::MinLoss, &[], scale);
    put(m, &format!("overlay.table.route_minloss_ns_{tag}"), minloss);
    p.mesh
}

/// The node, table and snapshot probes reported at 30 and 120 hosts.
fn node_state_probes(m: &mut Metrics, mesh: &Mesh, tag: &str, seed: u64, scale: u64) {
    let n = mesh.nodes.len();
    put(m, &format!("overlay.node.poll_at_ns_{tag}"), poll_at(mesh, scale));
    let new = sample_s(BATCHES, || build_nodes(n, DisseminationMode::FullSnapshot, seed).len());
    put_us(m, &format!("overlay.node.new_us_{tag}"), new);
    put(m, &format!("overlay.table.ingest_ns_per_entry_{tag}"), ingest_per_entry(n, scale));
    put(m, &format!("overlay.table.snapshot_rebuild_ns_{tag}"), snapshot_rebuild(n, scale));
}

/// Runs every once-per-run layer probe and records its metrics.
pub fn probe_all(m: &mut Metrics, inputs: &Inputs<'_>, scale: u64) -> Result<(), String> {
    let Inputs { campaign, wide, mesh, .. } = *inputs;
    let seed = campaign.seed;

    put(m, "netsim.event.push_pop_ns_occ128", event_queue(128, seed, scale));
    put(m, "netsim.event.push_pop_ns_occ4096", event_queue(4096, seed, scale));
    // Time per packet at the workload's packet rate: ~190 packets per
    // simulated second on campaign30, ~3400 on mesh120.
    let (dt30, dt120) = (SimDuration::from_micros(5200), SimDuration::from_micros(300));
    put(m, "netsim.net.transit_ns_n30", transit(&campaign.spec, seed, dt30, scale));
    put(m, "netsim.net.transit_ns_n120", transit(&mesh.spec, seed, dt120, scale));
    put(m, "netsim.net.host_up_ns", host_up(&campaign.spec, seed, scale));
    for (tag, job) in [("n30", campaign), ("n120", mesh)] {
        let topo = job.spec.topology(seed);
        let build = sample_s(BATCHES, || job.spec.topology(seed).n());
        put_us(m, &format!("netsim.topology.build_us_{tag}"), build);
        let clone = sample_s(BATCHES, || topo.clone().n());
        put_us(m, &format!("netsim.topology.clone_us_{tag}"), clone);
    }

    overlay_probes(m, 17, "n17", seed, scale);
    let mut mesh30 = overlay_probes(m, 30, "n30", seed, scale);
    node_state_probes(m, &mesh30, "n30", seed, scale);
    put(m, "overlay.table.route_minlat_ns_n30", route(&mut mesh30, Policy::MinLat, &[], scale));
    put(m, "overlay.table.route_random_ns_n30", route(&mut mesh30, Policy::Random, &[], scale));
    // A third copy steering around a direct first copy and a detoured
    // second one.
    let prior = [Route::Direct, Route::Via(HostId(29))];
    let avoiding = route(&mut mesh30, Policy::MinLoss, &prior, scale);
    put(m, "overlay.table.route_avoiding_ns_n30", avoiding);
    drop(mesh30);
    let mesh120 = overlay_probes(m, 120, "n120", seed, scale);
    node_state_probes(m, &mesh120, "n120", seed, scale);
    let table_bytes: usize = mesh120.nodes.iter().map(|nd| nd.table().approx_bytes()).sum();
    m.put("overlay.table.bytes_per_host_n120", None, table_bytes as f64 / 120.0);
    drop(mesh120); // ~70 MB of tables; the delta mesh is about to need as much.

    let full = DisseminationMode::FullSnapshot;
    let delta = inputs.mesh_delta.spec.dissemination.mode();
    let p = mesh_probe(120, delta, seed, scale);
    put(m, "overlay.node.packet_ns_n120_delta", p.packet_ns);
    m.put("overlay.node.entries_per_packet_n120_delta", None, p.entries_per_packet);
    put(m, "overlay.dissem.probe_send_ns_full_n120", probe_send(120, full, seed, scale));
    put(m, "overlay.dissem.probe_send_ns_delta_n120", probe_send(120, delta, seed, scale));

    put(m, "trace.collect.leg_ns", collector_leg(scale));
    for (tag, job) in [("n30m8", campaign), ("n17m12", wide)] {
        let n = job.spec.topology.hosts();
        let (loss, win) = accumulators(n, &job.spec.methods(), seed, scale);
        put(m, &format!("analysis.loss.outcome_ns_{tag}"), loss);
        put(m, &format!("analysis.windows.outcome_ns_{tag}"), win);
    }

    let plan = batch_ns(BATCHES, iters(200, scale), || {
        black_box(inputs.sliced.plan().len());
    });
    m.put_sampled("core.shard.plan_us", None, plan, 1e-3);
    result_costs(m, inputs.slice_frame)
}
