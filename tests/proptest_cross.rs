//! Cross-crate property tests: invariants that must hold for *any*
//! input, not just the scripted scenarios.

use mpath::netsim::{HostId, Rng, SimTime, Topology};
use mpath::overlay::{MeasureKind, MetricEntry, Packet, RouteTag, WireError};
use proptest::prelude::*;

fn arb_route_tag() -> impl Strategy<Value = RouteTag> {
    prop_oneof![
        Just(RouteTag::Direct),
        Just(RouteTag::Rand),
        Just(RouteTag::Lat),
        Just(RouteTag::Loss),
    ]
}

fn arb_measure_kind() -> impl Strategy<Value = MeasureKind> {
    prop_oneof![Just(MeasureKind::OneWay), Just(MeasureKind::Request), Just(MeasureKind::Echo)]
}

fn arb_metrics() -> impl Strategy<Value = Vec<MetricEntry>> {
    proptest::collection::vec(
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<bool>()).prop_map(
            |(peer, loss_e4, lat_us, alive)| MetricEntry {
                peer: HostId(peer),
                loss_e4,
                lat_us,
                alive,
            },
        ),
        0..40,
    )
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    let leaf = prop_oneof![
        (any::<u64>(), any::<u16>(), any::<i64>(), arb_metrics()).prop_map(
            |(id, from, t, metrics)| Packet::ProbeReq {
                id,
                from: HostId(from),
                sent_local_us: t,
                metrics,
            }
        ),
        (any::<u64>(), any::<u16>(), any::<i64>(), arb_metrics()).prop_map(
            |(id, from, t, metrics)| Packet::ProbeResp {
                id,
                from: HostId(from),
                resp_local_us: t,
                metrics,
            }
        ),
        (
            any::<u64>(),
            any::<u8>(),
            0u8..mpath::overlay::MAX_PROBE_LEGS as u8,
            any::<u16>(),
            any::<u16>(),
            arb_route_tag(),
            arb_measure_kind(),
            any::<i64>()
        )
            .prop_map(|(id, method, leg, o, t, route, kind, sent)| Packet::Measure {
                id,
                method,
                leg,
                origin: HostId(o),
                target: HostId(t),
                route,
                kind,
                sent_local_us: sent,
            }),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(o, t, stream, seq, payload)| Packet::Data {
                origin: HostId(o),
                target: HostId(t),
                stream,
                seq,
                payload,
            }),
        (any::<u16>(), any::<u64>(), any::<bool>(), arb_metrics()).prop_map(
            |(o, seq, full, entries)| Packet::Lsa { origin: HostId(o), seq, full, entries }
        ),
    ];
    // Optionally wrap in one Forward layer (the overlay uses at most one
    // intermediate).
    (leaf, any::<Option<u16>>()).prop_map(|(inner, fwd)| match fwd {
        Some(target) => Packet::Forward { target: HostId(target), inner: Box::new(inner) },
        None => inner,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_round_trips_any_packet(pkt in arb_packet()) {
        let encoded = pkt.encode();
        let decoded = Packet::decode(&encoded).expect("own encoding must decode");
        prop_assert_eq!(decoded, pkt);
    }

    #[test]
    fn every_strict_prefix_is_truncated(pkt in arb_packet()) {
        let encoded = pkt.encode();
        for cut in 0..encoded.len() {
            let decoded = Packet::decode(&encoded[..cut]);
            prop_assert_eq!(decoded, Err(WireError::Truncated), "{}-byte prefix", cut);
        }
    }

    #[test]
    fn bytes_after_a_packet_are_trailing(
        pkt in arb_packet(),
        extra in proptest::collection::vec(any::<u8>(), 1..17),
    ) {
        let mut datagram = pkt.encode();
        datagram.extend_from_slice(&extra);
        prop_assert_eq!(Packet::decode(&datagram), Err(WireError::Trailing(extra.len())));
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Packet::decode(&data);
    }

    #[test]
    fn network_transmission_is_deterministic(seed in any::<u64>(), n in 3u16..7) {
        let run = || {
            let topo = Topology::synthetic(n as usize, 0.05, seed);
            let mut net = mpath::netsim::Network::new(topo, seed);
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                let a = HostId((i % n as u64) as u16);
                let b = HostId(((i + 1) % n as u64) as u16);
                outcomes.push(net.transmit(SimTime::from_millis(i * 97), a, b).is_delivered());
            }
            outcomes
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn cdf_fraction_is_monotone_and_bounded(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = analysis::Cdf::from_values(values.clone());
        let mut prev = 0.0;
        for q in [-1e7, -10.0, 0.0, 1.0, 1e3, 1e7] {
            let f = cdf.fraction_at_or_below(q);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert_eq!(cdf.fraction_at_or_below(f64::INFINITY), 1.0);
    }

    #[test]
    fn sharded_experiment_matches_sequential_for_any_seed(
        seed in any::<u64>(),
        shards in 1usize..=8,
    ) {
        // The sharding merge invariant, fuzzed: for any master seed and
        // any worker count, the sliced run folds to the exact bits of
        // the single-worker run. A tiny 3-slice campaign keeps each
        // case cheap while still exercising multi-slice merge order and
        // the work-stealing scheduler.
        use mpath::core::{run_experiment, ExperimentConfig, MethodSet};
        let run = |workers: usize| {
            let topo = Topology::synthetic(4, 0.02, seed);
            let mut cfg = ExperimentConfig::new(MethodSet::ron_narrow());
            cfg.duration = mpath::netsim::SimDuration::from_mins(6);
            cfg.slice_width = mpath::netsim::SimDuration::from_mins(2);
            cfg.seed = seed;
            cfg.flat_load = true;
            cfg.shards = workers;
            run_experiment(topo, cfg)
        };
        let seq = run(1);
        let par = run(shards);
        prop_assert_eq!(seq.fingerprint(), par.fingerprint(),
            "seed={} shards={} diverged", seed, shards);
        prop_assert_eq!(seq.measure_legs, par.measure_legs);
    }

    #[test]
    fn slice_merger_folds_any_arrival_order_like_the_in_order_fold(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u32>(), 6..7),
    ) {
        // The one merge, fuzzed: the six slice outputs of a tiny
        // campaign, pushed in an arbitrary permutation, fold to the bits
        // of the sequential run — and the merger never holds more than
        // the permutation forces it to: a slice arriving `d` places
        // early waits for at most `d` predecessors.
        use mpath::core::shard::SliceMerger;
        use mpath::core::{CampaignJob, ScenarioRegistry, TopologySpec};
        let mut spec = ScenarioRegistry::builtin().get("ron-narrow").expect("builtin").clone();
        spec.name = "merger-fuzz".to_string();
        spec.topology = TopologySpec::Synthetic { hosts: 4, edge_loss: 0.02 };
        let job = CampaignJob {
            spec,
            seed,
            duration_us: mpath::netsim::SimDuration::from_mins(6).as_micros(),
            slice_width_us: mpath::netsim::SimDuration::from_mins(1).as_micros(),
        };
        prop_assert_eq!(job.plan().len(), keys.len());
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&k| (keys[k], k));
        let mut merger = SliceMerger::default();
        for &k in &order {
            merger.push(k, job.run_slice_index(k));
        }
        let displacement =
            order.iter().enumerate().map(|(pos, &k)| pos.abs_diff(k)).max().unwrap_or(0);
        prop_assert!(merger.peak_parked() <= displacement + 1,
            "order {:?} parked {}", order, merger.peak_parked());
        let mut cfg = job.config();
        cfg.shards = 1;
        let seq = mpath::core::run_experiment(job.spec.topology(job.seed), cfg);
        prop_assert_eq!(merger.finish(order.len()).fingerprint(), seq.fingerprint());
    }

    #[test]
    fn collector_conserves_probes(
        n_probes in 1u64..200,
        seed in any::<u64>(),
    ) {
        use trace::{Collector, CollectorConfig, SendEvent};
        let mut col = Collector::new(4, CollectorConfig::default());
        let mut rng = Rng::new(seed);
        for id in 0..n_probes {
            let t = SimTime::from_millis(id * 100);
            col.on_send(SendEvent {
                id,
                method: 0,
                leg: 0,
                src: HostId((rng.next_u64() % 4) as u16),
                dst: HostId(((rng.next_u64() % 3) as u16 + 1) % 4),
                route: 0,
                sent: t,
                sent_local_us: t.as_micros() as i64,
            });
        }
        col.finish(SimTime::from_secs(10_000));
        let outcomes = col.drain();
        prop_assert_eq!(outcomes.len() as u64, n_probes, "every probe resolves exactly once");
    }
}
