//! Every segment spec a topology hands the network, pinned to its bytes.
//!
//! Each digest is an FNV-1a fold of `format!("{:?}", spec)` over every
//! segment id in order — the 2n access segments, then the n² core
//! segments (diagonal included). The eight builtin scenarios at seeds 1
//! and 7 cover diversity draws on and off, direction skew on loss and
//! delay, shared-risk `down` windows, load-wave and flash-crowd `hot`
//! windows on edges and cores, storms, trouble episodes and the Cornell
//! latency episode; `Topology::synthetic` is the controlled testbed the
//! unit tests use. A change to how specs are stored or derived must leave
//! every digest where it is: a moved digest means a segment's loss,
//! outage, latency or scripted window changed.

use mpath::analysis::Fnv;
use mpath::core::builtin_specs;
use mpath::netsim::{SegmentId, Topology};

fn digest(topo: &Topology) -> u64 {
    let n = topo.n();
    let mut f = Fnv::new();
    for i in 0..2 * n + n * n {
        let id = SegmentId(i as u32);
        let spec = &topo.spec(id);
        f.write(format!("{spec:?}").as_bytes());
    }
    f.finish()
}

#[test]
fn builtin_scenario_specs_are_pinned() {
    // (scenario, seed, digest of every segment spec). The two 2002
    // campaigns share one testbed and one 5-day weather horizon.
    let pinned: &[(&str, u64, u64)] = &[
        ("ron2003", 1, 0xdb255280ca24311f),
        ("ron2003", 7, 0xe6a7b738dcd7588c),
        ("ron-narrow", 1, 0xcfd32f7e59224af2),
        ("ron-narrow", 7, 0xf031e7163512a6a9),
        ("ron-wide", 1, 0xcfd32f7e59224af2),
        ("ron-wide", 7, 0xf031e7163512a6a9),
        ("correlated-outages", 1, 0x51e50bdaa566156b),
        ("correlated-outages", 7, 0xa4fdde98ca82bba7),
        ("load-waves", 1, 0x2f4294b7c34065bd),
        ("load-waves", 7, 0xe1275618d605bbb7),
        ("asymmetric-paths", 1, 0xc675e45551c5ad8f),
        ("asymmetric-paths", 7, 0x5c279ab69f95cfb4),
        ("flash-crowd", 1, 0x9708a3fe7b6fd736),
        ("flash-crowd", 7, 0xb1b9c5d3e5c2b7c5),
        ("sparse-mesh", 1, 0x36577d0bcd3ded1c),
        ("sparse-mesh", 7, 0x4648c9df42a035b1),
    ];
    let mut got = Vec::new();
    for spec in builtin_specs() {
        for seed in [1, 7] {
            got.push((spec.name.clone(), seed, digest(&spec.topology(seed))));
        }
    }
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, s, d)| (n.as_str(), *s, *d)).collect();
    assert_eq!(got, pinned, "a segment spec moved (left: now, right: pinned)");
}

#[test]
fn synthetic_specs_are_pinned() {
    let d = digest(&Topology::synthetic(12, 0.01, 3));
    assert_eq!(d, 0xbcd7402b9611b8aa, "synthetic(12, 0.01, 3): spec digest moved ({d:#018x})");
}
