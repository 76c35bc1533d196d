//! The sharding equivalence harness: `run_experiment` with `shards = N`
//! must produce a **byte-identical** report to `shards = 1`, for every
//! scenario configuration — the paper campaigns *and* the synthetic
//! stress scenarios (whose scripted impairment schedules must compile
//! identically in every slice).
//!
//! Identity is asserted two ways:
//!
//! * [`ExperimentOutput::fingerprint`] — an FNV fold over every
//!   accumulator cell, histogram bucket, counter and the exact bit
//!   pattern of every floating-point sum. f64 addition is
//!   non-associative, so this catches merge-order bugs that a rendered
//!   table might round away.
//! * the rendered Table 5/7 text — the user-visible artifact, compared
//!   as strings.
//!
//! Every run here uses a `slice_width` far below the campaign duration
//! so the slice plan genuinely engages (multiple independent slices,
//! work-stealing across threads), not just the single-slice fast path.
//!
//! The golden test at the bottom pins the seed-1 fingerprint of every
//! built-in stress scenario: a change to a spec, an impairment planner,
//! or the simulator moves these values, so silent scenario drift is
//! caught at the PR that causes it.

use mpath::core::{report, ExperimentConfig, ExperimentOutput, ScenarioRegistry, ScenarioSpec, SlicePlan};
use mpath::netsim::SimDuration;

fn scenario(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin().get(name).expect("builtin scenario").clone()
}

/// A scaled-down campaign configuration cut into 4 slices.
fn sliced_cfg(spec: &ScenarioSpec, seed: u64, shards: usize) -> ExperimentConfig {
    let mut cfg = spec.config(seed, Some(SimDuration::from_mins(40)));
    cfg.slice_width = SimDuration::from_mins(10);
    cfg.shards = shards;
    cfg
}

fn sharded_run(spec: &ScenarioSpec, seed: u64, shards: usize) -> ExperimentOutput {
    mpath::core::run_experiment(spec.topology(seed), sliced_cfg(spec, seed, shards))
}

fn rendered(spec: &ScenarioSpec, out: &ExperimentOutput) -> String {
    if spec.round_trip {
        analysis::render_table7(&report::table7(out))
    } else {
        analysis::render_table5("equivalence", &report::table5(out))
    }
}

fn assert_equivalent_spec(spec: &ScenarioSpec) -> ExperimentOutput {
    let name = &spec.name;
    assert!(
        SlicePlan::new(&sliced_cfg(spec, 42, 1)).len() > 1,
        "{name}: the plan must engage multiple slices"
    );
    let seq = sharded_run(spec, 42, 1);
    assert!(seq.measure_legs > 0, "{name}: the sliced run must move traffic");
    for shards in [2, 4, 8] {
        let par = sharded_run(spec, 42, shards);
        assert_eq!(
            seq.fingerprint(),
            par.fingerprint(),
            "{name}: shards={shards} diverged from the sequential run"
        );
        assert_eq!(
            rendered(spec, &seq),
            rendered(spec, &par),
            "{name}: rendered report differs at shards={shards}"
        );
    }
    seq
}

fn assert_equivalent(name: &str) {
    assert_equivalent_spec(&scenario(name));
}

/// The built-in `correlated-outages` schedules its shared-risk windows
/// over a 7-day horizon, so a 40-minute equivalence run rarely meets
/// one. This variant compresses the horizon to ~1 hour and densifies
/// the events so the scripted `down` windows *provably* land inside the
/// run and straddle its 10-minute slice boundaries — exercising the
/// scripted-outage transit path under sharding, not just the schedule
/// compiler.
fn dense_correlated() -> ScenarioSpec {
    let mut spec = scenario("correlated-outages");
    spec.name = "correlated-outages-dense".to_string();
    spec.days = 0.042; // ~1 hour
    spec.horizon_days = 0.042;
    spec.impairments.shared_risk = Some(mpath::netsim::SharedRiskSpec {
        groups: 4,
        hosts_per_group: 5,
        outages_per_day: 240.0, // ~10 events per group inside the hour
        down_mins: (2.0, 10.0),
    });
    spec.validate().expect("dense variant must be a valid spec");
    spec
}

/// A k-leg (3- and 4-redundant) custom method set: the generalized
/// probe driver, collector records and best-of-first-j accumulators
/// must hold the same byte-identity invariant as the paper's pairs.
fn k_leg_spec() -> ScenarioSpec {
    use mpath::core::{MethodSetSpec, MethodSpec, MethodsSpec, ViewSpec};
    use mpath::overlay::RouteTag;
    let mut spec = scenario("ron-narrow");
    spec.name = "k-leg-custom".to_string();
    spec.methods = MethodsSpec::Custom(MethodSetSpec {
        methods: vec![
            MethodSpec {
                name: "direct".into(),
                legs: vec![RouteTag::Direct],
                gap_ms: 0.0,
                distinct: false,
                all_prior: false,
            },
            MethodSpec {
                name: "triple".into(),
                legs: vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Rand],
                gap_ms: 10.0,
                distinct: true,
                all_prior: false,
            },
            MethodSpec {
                name: "quad".into(),
                legs: vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Lat, RouteTag::Loss],
                gap_ms: 0.0,
                distinct: true,
                all_prior: false,
            },
        ],
        views: vec![ViewSpec { name: "triple*".into(), source: 1, leg: 0 }],
    });
    spec.validate().expect("k-leg spec must be valid");
    spec
}

/// A scaled-down variant of the built-in `sparse-mesh` scenario: 24
/// hosts on a 4-regular probe mesh — small enough for the 40-minute
/// equivalence harness while still leaving most host pairs off-mesh, so
/// a slice that ever probed outside the mesh would be visible.
fn sparse_small() -> ScenarioSpec {
    let mut spec = scenario("sparse-mesh");
    spec.name = "sparse-mesh-small".to_string();
    spec.topology = mpath::core::TopologySpec::SparseSynthetic {
        hosts: 24,
        edge_loss: 0.02,
        mesh_k: 4,
    };
    spec.validate().expect("small sparse variant must be a valid spec");
    spec
}

#[test]
fn sparse_mesh_sharded_equals_sequential() {
    let seq = assert_equivalent_spec(&sparse_small());
    // Every slice rebuilds the topology — and thus the seed-derived
    // probe mesh — from the master seed, so the merged report must show
    // zero traffic outside the mesh, under every shard count.
    let mesh = mpath::netsim::sparse_mesh(24, 4, 42);
    let loss = seq.index_of("loss").expect("loss is measured");
    for src in 0..24u16 {
        for dst in 0..24u16 {
            if src == dst || mesh[src as usize].contains(&dst) {
                continue;
            }
            let pairs = seq
                .loss
                .cell(loss, mpath::netsim::HostId(src), mpath::netsim::HostId(dst))
                .pairs;
            assert_eq!(pairs, 0, "probe traffic off the mesh: {src} -> {dst}");
        }
    }
}

#[test]
fn k_leg_custom_methods_shard_equals_sequential() {
    let seq = assert_equivalent_spec(&k_leg_spec());
    assert_eq!(seq.loss.depth(), 4, "the deep accumulator must engage");
    let quad = seq.index_of("quad").expect("quad is measured");
    let curve = seq.loss.best_of_first_pct(quad);
    assert_eq!(curve.len(), 4);
    assert!(curve.windows(2).all(|w| w[1] <= w[0]), "redundancy can only help: {curve:?}");
}

/// A ron-narrow variant running the non-default dissemination mode: the
/// per-node LSA sequence state must re-initialize identically in every
/// slice.
fn delta_spec() -> ScenarioSpec {
    let mut spec = scenario("ron-narrow");
    spec.name = "delta-dissem".to_string();
    spec.dissemination = mpath::core::DisseminationSpec::Delta { max_age_probes: 8 };
    spec.validate().expect("dissemination variant must be a valid spec");
    spec
}

#[test]
fn delta_dissemination_shard_equals_sequential() {
    let spec = delta_spec();
    let seq = assert_equivalent_spec(&spec);
    // The LSA counters live outside the fingerprint (deliberately), so
    // their merge is pinned explicitly.
    assert!(seq.net.lsa_bytes > 0, "delta refreshes must be accounted");
    let par = sharded_run(&spec, 42, 4);
    assert_eq!(seq.net.lsa_bytes, par.net.lsa_bytes, "lsa_bytes diverged under sharding");
    assert_eq!(seq.net.lsa_entries, par.net.lsa_entries);
}

#[test]
fn ron2003_sharded_equals_sequential() {
    assert_equivalent("ron2003");
}

#[test]
fn ron_narrow_sharded_equals_sequential() {
    assert_equivalent("ron-narrow");
}

#[test]
fn ron_wide_sharded_equals_sequential() {
    assert_equivalent("ron-wide");
}

#[test]
fn correlated_outages_sharded_equals_sequential() {
    // The shared-risk schedule is compiled per slice from the same seed;
    // a slice seeing a different schedule would diverge instantly.
    assert_equivalent("correlated-outages");
}

#[test]
fn load_waves_sharded_equals_sequential() {
    // The moving hot spot straddles slice boundaries; the absolute-time
    // windows must land identically in every slice plan execution.
    // (Host 0's first 90-minute dwell starts at t = 0, so the wave is
    // active throughout the 40-minute run.)
    assert_equivalent("load-waves");
}

#[test]
fn dense_correlated_outages_exercise_the_down_windows_under_sharding() {
    let spec = dense_correlated();
    // The scripted windows must actually intersect the 40-minute run.
    let topo = spec.topology(42);
    let in_run = (0..topo.segments())
        .flat_map(|i| topo.spec(mpath::netsim::SegmentId(i as u32)).down)
        .filter(|w| w.0 < mpath::netsim::SimTime::ZERO + SimDuration::from_mins(40))
        .count();
    assert!(in_run > 10, "only {in_run} down windows start inside the run");
    let seq = assert_equivalent_spec(&spec);
    // And they must dominate the outage drops: the same spec without
    // shared risk sees strictly fewer.
    let mut plain = dense_correlated();
    plain.name = "correlated-outages-dense-control".to_string();
    plain.impairments.shared_risk = None;
    let control = sharded_run(&plain, 42, 1);
    assert!(
        seq.net.dropped_outage > control.net.dropped_outage,
        "shared-risk windows must add outage drops: {} vs control {}",
        seq.net.dropped_outage,
        control.net.dropped_outage
    );
}

#[test]
fn fingerprint_distinguishes_universes() {
    // Sanity: the fingerprint is not a constant — different seeds give
    // different outputs.
    let spec = scenario("ron-narrow");
    let a = sharded_run(&spec, 42, 1);
    let b = sharded_run(&spec, 43, 1);
    assert_ne!(a.fingerprint(), b.fingerprint());
}

#[test]
fn fingerprint_distinguishes_scenarios() {
    // Same seed, same duration, same testbed size — but different specs
    // must never collide (the scenario name and spec digest are folded
    // into the fingerprint).
    let a = sharded_run(&scenario("correlated-outages"), 42, 1);
    let b = sharded_run(&scenario("load-waves"), 42, 1);
    assert_ne!(a.fingerprint(), b.fingerprint());
}

/// The CI toggle: with `shards = 0` (auto) the runner reads
/// `MPATH_SHARDS`, so running the whole tier-1 suite under
/// `MPATH_SHARDS=1` and `MPATH_SHARDS=4` executes this guard — and
/// every other experiment-driven test — under both schedules.
#[test]
fn env_shard_count_is_equivalent_too() {
    let spec = scenario("ron-narrow");
    let explicit = sharded_run(&spec, 42, 1);
    let auto = mpath::core::run_experiment(
        spec.topology(42),
        sliced_cfg(&spec, 42, 0), // auto: MPATH_SHARDS or 1
    );
    assert_eq!(
        explicit.fingerprint(),
        auto.fingerprint(),
        "MPATH_SHARDS={:?} must not change results",
        std::env::var("MPATH_SHARDS").ok()
    );
}

/// Golden seed-1 fingerprints for the three paper campaigns at a fixed
/// 30-simulated-minute duration. Recorded *before* the k-leg probe
/// refactor: the pair pipeline must be a true special case of the k-leg
/// pipeline, so these values must never move unless the simulator or a
/// paper spec changes intentionally. Re-record like the stress goldens:
///
/// ```text
/// cargo test --test sharding_equivalence golden -- --nocapture
/// ```
#[test]
fn golden_paper_campaign_fingerprints() {
    let golden: &[(&str, u64)] = &[
        ("ron2003", 0xbf1b301118588f9d),
        ("ron-narrow", 0x2dccce190878f0df),
        ("ron-wide", 0x76de32708ad3e0fe),
    ];
    let mut failures = Vec::new();
    for (name, expected) in golden {
        let out = scenario(name).run(1, Some(SimDuration::from_mins(30)));
        let got = out.fingerprint();
        println!("(\"{name}\", {got:#018x}),");
        if got != *expected {
            failures.push(format!("{name}: expected {expected:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "paper campaigns drifted (re-record only if the drift is intentional):\n{}",
        failures.join("\n")
    );
}

/// Golden seed-1 fingerprints for every built-in stress scenario, at a
/// fixed 30-simulated-minute duration. These pin the *entire* chain —
/// spec JSON (via the digest), impairment planners, topology build,
/// simulator, accumulators. If a PR moves one intentionally, re-record
/// with:
///
/// ```text
/// cargo test --test sharding_equivalence golden -- --nocapture
/// ```
///
/// and copy the printed values.
#[test]
fn golden_stress_scenario_fingerprints() {
    // The dense variant is included because the built-ins schedule
    // their correlated windows over a 7-day horizon — at 30 minutes the
    // built-ins pin the spec digest and schedule compiler, while the
    // dense variant pins the scripted-outage transit path itself. The
    // delta rows pin the LSA ingest paths, which the shard
    // equivalence tests above only ever compare with themselves.
    //
    // Columns: fingerprint, `net.lsa_bytes`, `net.lsa_entries` — the
    // LSA counters sit outside the fingerprint by design, so they are
    // pinned beside it.
    let golden: &[(&str, u64, u64, u64)] = &[
        ("correlated-outages", 0x6991ef085e3467f0, 57121239, 6298357),
        ("load-waves", 0x8a2b279f160daa39, 57361621, 6324863),
        ("asymmetric-paths", 0x37a3046e85afc239, 57220425, 6309293),
        ("flash-crowd", 0xcb6d99d34a8fdc8f, 57121239, 6298357),
        ("correlated-outages-dense", 0x4a673816bee8c380, 47142756, 5198068),
        ("sparse-mesh-small", 0x7cf5cce05c972967, 970985, 102195),
        ("delta-dissem", 0xeb53e7d03661a980, 1839792, 156548),
        ("sparse-mesh-small-delta", 0xcbed087de6a7df46, 448875, 27515),
    ];
    let specs: Vec<ScenarioSpec> = golden
        .iter()
        .map(|(name, ..)| match *name {
            "correlated-outages-dense" => dense_correlated(),
            "sparse-mesh-small" => sparse_small(),
            "delta-dissem" => delta_spec(),
            "sparse-mesh-small-delta" => {
                let mut spec = sparse_small();
                spec.name = "sparse-mesh-small-delta".to_string();
                spec.dissemination = delta_spec().dissemination;
                spec.validate().expect("sparse delta variant must be a valid spec");
                spec
            }
            builtin => scenario(builtin),
        })
        .collect();
    let mut failures = Vec::new();
    for ((name, fingerprint, lsa_bytes, lsa_entries), spec) in golden.iter().zip(&specs) {
        let out = spec.run(1, Some(SimDuration::from_mins(30)));
        let got = (out.fingerprint(), out.net.lsa_bytes, out.net.lsa_entries);
        println!("(\"{name}\", {:#018x}, {}, {}),", got.0, got.1, got.2);
        if got != (*fingerprint, *lsa_bytes, *lsa_entries) {
            failures.push(format!(
                "{name}: expected ({fingerprint:#018x}, {lsa_bytes}, {lsa_entries}), got ({:#018x}, {}, {})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "stress scenarios drifted (re-record if intentional):\n{}",
        failures.join("\n")
    );
}
