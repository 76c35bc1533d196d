//! Microbenches of the performance-critical building blocks: the event
//! queue, the lazily-advanced loss chain, the wire codec, route
//! selection and the collector.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::{EventQueue, GeParams, GilbertElliott, Rng, SimDuration, SimTime};
use overlay::{LinkStateTable, MetricEntry, Packet, Policy};
use std::hint::black_box;
use trace::record::MAX_PROBE_LEGS;
use trace::{Collector, CollectorConfig, LegOutcome, PairOutcome, RecvEvent, SendEvent};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/event_queue");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = Rng::new(1);
            for i in 0..100_000u64 {
                q.push(SimTime::from_micros(rng.next_u64() % 1_000_000_000), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                last = t;
            }
            black_box(last)
        })
    });
    g.finish();
}

fn bench_loss_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/gilbert_elliott");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("observe_1M", |b| {
        b.iter(|| {
            let mut ge = GilbertElliott::new(GeParams::from_stationary_loss(0.01));
            let mut rng = Rng::new(2);
            let mut t = SimTime::ZERO;
            let mut lost = 0u64;
            for _ in 0..1_000_000 {
                if ge.observe(t, 1.0, &mut rng).1 {
                    lost += 1;
                }
                t += SimDuration::from_millis(100);
            }
            black_box(lost)
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let pkt = Packet::ProbeReq {
        id: 0xFEED,
        from: netsim::HostId(3),
        sent_local_us: 123_456_789,
        metrics: (0..29)
            .map(|i| MetricEntry {
                peer: netsim::HostId(i),
                loss_e4: i * 13,
                lat_us: 54_000 + i as u32,
                alive: true,
            })
            .collect(),
    };
    let encoded = pkt.encode();
    let mut g = c.benchmark_group("components/wire");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_probe_29_metrics", |b| {
        b.iter(|| black_box(pkt.encode().len()))
    });
    g.bench_function("decode_probe_29_metrics", |b| {
        b.iter(|| black_box(Packet::decode(&encoded).unwrap()))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    // A fully populated 30-node table: the inner loop of every lat/loss
    // route query in the experiment.
    let n = 30;
    let mut table = LinkStateTable::new(
        netsim::HostId(0),
        n,
        100,
        0.1,
        5,
        SimDuration::from_secs(90),
        0.01,
        0.05,
    );
    let now = SimTime::from_secs(100);
    for peer in 1..n as u16 {
        for i in 0..50 {
            table.direct_mut(netsim::HostId(peer)).record_success(
                now,
                SimDuration::from_millis(20 + (peer as u64 * 7 + i) % 60),
            );
        }
        let entries: Vec<MetricEntry> = (0..n as u16)
            .filter(|&j| j != peer)
            .map(|j| MetricEntry {
                peer: netsim::HostId(j),
                loss_e4: (j * 11) % 300,
                lat_us: 10_000 + (j as u32 * 997) % 80_000,
                alive: true,
            })
            .collect();
        table.ingest_full(netsim::HostId(peer), &entries, now);
    }
    let mut g = c.benchmark_group("components/routing");
    g.throughput(Throughput::Elements(1));
    let mut rng = Rng::new(3);
    g.bench_function("min_loss_route_30_nodes", |b| {
        b.iter(|| black_box(table.route(netsim::HostId(17), Policy::MinLoss, now, &mut rng)))
    });
    g.bench_function("min_lat_route_30_nodes", |b| {
        b.iter(|| black_box(table.route(netsim::HostId(17), Policy::MinLat, now, &mut rng)))
    });
    g.bench_function("random_route_30_nodes", |b| {
        b.iter(|| black_box(table.route(netsim::HostId(17), Policy::Random, now, &mut rng)))
    });
    g.finish();
}

fn bench_dissem(c: &mut Criterion) {
    use overlay::{DisseminationMode, Disseminator};
    // A fully populated 30-node table, as in the routing bench: every
    // probe send reads the node's own snapshot, so the cache (rebuilt
    // only after a direct-path mutation) is on the hot path of all
    // dissemination modes.
    let n = 30;
    let mut table = LinkStateTable::new(
        netsim::HostId(0),
        n,
        100,
        0.1,
        5,
        SimDuration::from_secs(90),
        0.01,
        0.05,
    );
    let now = SimTime::from_secs(100);
    for peer in 1..n as u16 {
        for i in 0..50 {
            table.direct_mut(netsim::HostId(peer)).record_success(
                now,
                SimDuration::from_millis(20 + (peer as u64 * 7 + i) % 60),
            );
        }
    }
    let mut g = c.benchmark_group("components/dissem");
    g.throughput(Throughput::Elements(1));
    g.bench_function("snapshot_cached_30_nodes", |b| {
        // Steady state: no mutation between calls, the cache hits.
        b.iter(|| black_box(table.snapshot().len()))
    });
    g.bench_function("snapshot_rebuild_30_nodes", |b| {
        // Every call is preceded by one direct-path update, so the
        // cache re-summarises that peer's slot (the id keeps saying
        // "rebuild" so recorded baselines stay comparable).
        b.iter(|| {
            table.direct_mut(netsim::HostId(5)).record_success(now, SimDuration::from_millis(21));
            black_box(table.snapshot().len())
        })
    });
    let mut delta = Disseminator::new(
        DisseminationMode::Delta { max_age_probes: 16 },
        netsim::HostId(0),
        n,
        Rng::new(9),
        SimTime::ZERO,
    );
    let mut probe_id = 0u64;
    g.bench_function("delta_probe_send_quiescent_30_nodes", |b| {
        // The per-probe cost of delta mode once the mesh has converged:
        // nothing measured since the last probe, so change detection
        // is skipped and (usually) nothing is sent.
        b.iter(|| {
            probe_id += 1;
            let (metrics, lsa) = delta.on_probe_send(netsim::HostId(1), probe_id, &mut table);
            black_box((metrics.len(), lsa.is_some()))
        })
    });
    g.finish();
}

fn bench_collector(c: &mut Criterion) {
    let mut g = c.benchmark_group("components/collector");
    g.throughput(Throughput::Elements(100_000));
    g.sample_size(20);
    g.bench_function("resolve_100k_pairs", |b| {
        // The experiment's sweep loop hands the same buffer back every
        // drain; the bench mirrors that so buffer reuse is measured.
        let mut buf = Vec::new();
        b.iter(|| {
            let mut col = Collector::new(30, CollectorConfig::default());
            for i in 0..100_000u64 {
                let t = SimTime::from_millis(i);
                col.on_send(SendEvent {
                    id: i,
                    method: (i % 6) as u8,
                    leg: 0,
                    src: netsim::HostId((i % 30) as u16),
                    dst: netsim::HostId(((i + 7) % 30) as u16),
                    route: 0,
                    sent: t,
                    sent_local_us: t.as_micros() as i64,
                });
                if i % 50 != 0 {
                    col.on_recv(RecvEvent {
                        id: i,
                        leg: 0,
                        recv: t + SimDuration::from_millis(40),
                        recv_local_us: (t + SimDuration::from_millis(40)).as_micros() as i64,
                    });
                }
                if i % 1000 == 0 {
                    col.advance(t);
                    col.drain_into(&mut buf);
                    black_box(buf.len());
                }
            }
            col.finish(SimTime::from_secs(10_000));
            col.drain_into(&mut buf);
            black_box(buf.len())
        })
    });
    g.finish();
}

fn bench_record(c: &mut Criterion) {
    // The sentinel-coded compact layout: every resolved pair goes
    // through `from_legs` once and through the Option accessors many
    // times in the accumulators, so both directions of the packing are
    // on the campaign's hot path.
    let mut g = c.benchmark_group("components/record");
    g.throughput(Throughput::Elements(1_000_000));
    let mk = |i: u64| {
        let mut legs = [None; MAX_PROBE_LEGS];
        let present = 1 + (i % MAX_PROBE_LEGS as u64) as usize;
        for (j, slot) in legs.iter_mut().enumerate().take(present) {
            let lost = (i + j as u64).is_multiple_of(9);
            *slot = Some(LegOutcome {
                route: (j % 3) as u8,
                lost,
                one_way_us: if lost { None } else { Some(40_000 + (i % 5_000) as i64) },
            });
        }
        PairOutcome::from_legs(
            i,
            (i % 6) as u8,
            netsim::HostId((i % 30) as u16),
            netsim::HostId(((i + 7) % 30) as u16),
            SimTime::from_millis(i),
            legs,
            i.is_multiple_of(97),
        )
    };
    g.bench_function("from_legs_1M", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000_000u64 {
                acc = acc.wrapping_add(mk(i).id);
            }
            black_box(acc)
        })
    });
    let outcomes: Vec<PairOutcome> = (0..1_000_000u64).map(mk).collect();
    g.bench_function("accessors_1M", |b| {
        // The accumulators' read mix: first-packet loss, deep
        // best-of-first-j, and the per-slot Option view.
        b.iter(|| {
            let mut lost = 0u64;
            let mut best = 0i64;
            for o in &outcomes {
                if o.prefix_all_lost(1) {
                    lost += 1;
                }
                if let Some(us) = o.best_of_first_one_way_us(2) {
                    best = best.wrapping_add(us);
                }
                if let Some(l) = o.leg(0) {
                    lost += l.lost as u64;
                }
            }
            black_box((lost, best))
        })
    });
    g.finish();
}

fn bench_window_accum_soa(c: &mut Criterion) {
    // The SoA window accumulator's streaming hot path in isolation
    // (table6's variant runs it inside a full campaign): one million
    // near-time-ordered outcomes over a 30-host, 6-method cell grid,
    // mostly hitting the same open window — the branch the parallel
    // win/sent/lost arrays were laid out for.
    let mut g = c.benchmark_group("components/window_accum_soa");
    g.throughput(Throughput::Elements(1_000_000));
    g.sample_size(20);
    let mk = |i: u64| {
        let mut legs = [None; MAX_PROBE_LEGS];
        let lost = i.is_multiple_of(9);
        legs[0] = Some(LegOutcome {
            route: 0,
            lost,
            one_way_us: if lost { None } else { Some(40_000) },
        });
        PairOutcome::from_legs(
            i,
            (i % 6) as u8,
            netsim::HostId((i % 30) as u16),
            netsim::HostId(((i + 7) % 30) as u16),
            SimTime::from_millis(i * 3),
            legs,
            false,
        )
    };
    let outcomes: Vec<PairOutcome> = (0..1_000_000u64).map(mk).collect();
    g.bench_function("stream_1M_outcomes", |b| {
        b.iter(|| {
            let mut acc = analysis::WindowAccum::new(30, 6, SimDuration::from_mins(20));
            for o in &outcomes {
                acc.on_outcome(o);
            }
            acc.finish();
            black_box(acc.window_count(0))
        })
    });
    g.finish();
}

fn bench_table_sparse_lookup(c: &mut Criterion) {
    // Route selection over a 3000-host table populated the way a k=6
    // sparse mesh populates it: every peer advertises ~6 destinations,
    // so each stored vector is a short sorted vec and every remote
    // lookup is a binary search instead of a dense O(n) slot index.
    let n = 3000usize;
    let k = 6u16;
    let mut table = LinkStateTable::new(
        netsim::HostId(0),
        n,
        100,
        0.1,
        5,
        SimDuration::from_secs(90),
        0.01,
        0.05,
    );
    let now = SimTime::from_secs(100);
    for peer in 1..n as u16 {
        table
            .direct_mut(netsim::HostId(peer))
            .record_success(now, SimDuration::from_millis(20 + (peer as u64 * 7) % 60));
        // Ring-offset neighbors, so intermediates advertise distinct
        // destination sets (including some covering the probe target).
        let entries: Vec<MetricEntry> = (1..=k)
            .map(|j| {
                let dst = (peer as u32 + j as u32 * 499) % n as u32;
                MetricEntry {
                    peer: netsim::HostId(dst as u16),
                    loss_e4: (dst * 11 % 300) as u16,
                    lat_us: 10_000 + (dst * 997) % 80_000,
                    alive: true,
                }
            })
            .filter(|e| e.peer != netsim::HostId(peer))
            .collect();
        table.ingest_full(netsim::HostId(peer), &entries, now);
    }
    let mut g = c.benchmark_group("components/table_sparse_lookup");
    g.throughput(Throughput::Elements(1));
    let mut rng = Rng::new(7);
    g.bench_function("min_loss_route_3000_hosts_k6", |b| {
        b.iter(|| black_box(table.route(netsim::HostId(1700), Policy::MinLoss, now, &mut rng)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_loss_chain,
    bench_wire,
    bench_routing,
    bench_dissem,
    bench_collector,
    bench_record,
    bench_window_accum_soa,
    bench_table_sparse_lookup
);
criterion_main!(benches);
