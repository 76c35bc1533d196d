//! Scaling bench: throughput of the full simulation stack as the
//! synthetic testbed grows.
//!
//! The CLI companion (`repro --scale-sweep`) walks 30 → 3000 hosts and
//! is the tool for *finding* the knee; this bench pins the small end of
//! that curve (30/60/120 hosts on a sparse 6-regular probe mesh) under
//! criterion so `bench_delta` can flag a regression in the per-event
//! cost before it shows up as a sweep that suddenly takes minutes.
//!
//! Each measurement simulates a fixed 5 s of campaign with a single
//! `direct` method, one slice and a prober interval stretched
//! proportionally to the host count (constant per-host probe budget) —
//! the same shape the sweep uses, so the two stay comparable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mpath_core::method::{Method, RouteTag};
use mpath_core::MethodSet;
use netsim::SimDuration;
use std::hint::black_box;

const MESH_K: usize = 6;
const SIM_SECS: f64 = 5.0;

fn build(n: usize) -> (netsim::Topology, mpath_core::ExperimentConfig) {
    let seed = 2003;
    let duration = SimDuration::from_secs_f64(SIM_SECS);
    let mut params = netsim::Topology::synthetic_params(0.02);
    params.horizon = duration + SimDuration::from_mins(2);
    let mut topo = netsim::Topology::synthetic_with(n, 0.02, params, seed);
    topo.set_probe_mesh(netsim::sparse_mesh(n, MESH_K, seed));
    let mut cfg = mpath_core::ExperimentConfig::new(MethodSet {
        methods: vec![Method::single("direct", RouteTag::Direct)],
        views: Vec::new(),
    });
    cfg.duration = duration;
    cfg.slice_width = duration;
    cfg.seed = seed;
    cfg.shards = 1;
    cfg.flat_load = true;
    cfg.node.prober.interval = SimDuration::from_secs_f64(15.0 * n as f64 / 30.0);
    cfg.collector.receive_window = SimDuration::from_secs(5);
    cfg.sweep_interval = SimDuration::from_secs(1);
    cfg.scenario = format!("scaling-bench-{n}");
    (topo, cfg)
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/sparse_mesh");
    g.sample_size(10);
    for n in [30usize, 60, 120] {
        // Throughput in simulated pair outcomes: resolved count is a
        // pure function of (n, seed, duration), so the element count is
        // stable across machines and code changes that keep determinism.
        let probe = {
            let (topo, cfg) = build(n);
            mpath_core::run_experiment(topo, cfg)
        };
        assert!(probe.collector.resolved > 0, "{n}-host run must resolve pairs");
        g.throughput(Throughput::Elements(probe.collector.resolved));
        g.bench_function(format!("sim_5s_{n}_hosts"), |b| {
            b.iter(|| {
                let (topo, cfg) = build(n);
                black_box(mpath_core::run_experiment(topo, cfg).collector.resolved)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
