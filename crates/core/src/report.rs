//! Assembling experiment output into the paper's tables and figures.
//!
//! Each function regenerates one artifact of the evaluation section; the
//! `repro` binary in `mpath-bench` prints them all side by side with the
//! paper's published values.

use crate::experiment::ExperimentOutput;
use analysis::{Cdf, Figure, Series, Table5Row, Table6, Table7Row};
use netsim::HostId;

/// Merges per-slice experiment outputs, in the order given, into one
/// campaign report.
///
/// Every counter is an exact sum; the f64 latency sums fold in the
/// caller's order, so a fixed input order (ascending slice index — see
/// [`crate::shard`]) gives a bit-stable result. The merged duration is
/// the sum of slice durations, i.e. the configured campaign duration.
///
/// Panics when `outputs` is empty or the outputs disagree on shape
/// (host count, method names).
pub fn merge_outputs(outputs: Vec<ExperimentOutput>) -> ExperimentOutput {
    let mut it = outputs.into_iter();
    let mut acc = it.next().expect("merge_outputs needs at least one slice");
    for o in it {
        assert_eq!(acc.names, o.names, "slices must share the method registry");
        assert_eq!(acc.n, o.n, "slices must share the testbed");
        assert_eq!(acc.scenario, o.scenario, "slices must come from one scenario");
        assert_eq!(acc.spec_digest, o.spec_digest, "slices must share the scenario spec");
        acc.loss.merge(&o.loss);
        acc.win20.merge(&o.win20);
        acc.win60.merge(&o.win60);
        acc.net.merge(&o.net);
        acc.overlay_probes += o.overlay_probes;
        acc.measure_legs += o.measure_legs;
        acc.collector.merge(&o.collector);
        for (a, b) in acc.route_usage.iter_mut().zip(o.route_usage) {
            a.0 += b.0;
            a.1 += b.1;
        }
        acc.duration += o.duration;
    }
    acc
}

/// Resolves a method name, falling back to its inferred (`*`) variant —
/// in RON2003 `direct` exists only as `direct*`.
pub fn resolve(out: &ExperimentOutput, name: &str) -> Option<(u8, String)> {
    if let Some(i) = out.index_of(name) {
        return Some((i, name.to_string()));
    }
    let starred = format!("{name}*");
    out.index_of(&starred).map(|i| (i, starred))
}

/// Table 5 rows in the paper's order for a one-way dataset.
pub fn table5(out: &ExperimentOutput) -> Vec<Table5Row> {
    let order = [
        "direct", "lat", "loss", "direct rand", "lat loss", "direct direct", "dd 10 ms",
        "dd 20 ms",
    ];
    order
        .iter()
        .filter_map(|name| {
            let (idx, shown) = resolve(out, name)?;
            Some(Table5Row { name: shown, summary: out.loss.summary(idx) })
        })
        .collect()
}

/// Table 6: hour-window loss counts in the paper's column order.
pub fn table6(out: &ExperimentOutput) -> Table6 {
    let order = [
        "direct", "direct direct", "dd 10 ms", "dd 20 ms", "lat", "loss", "direct rand",
        "lat loss",
    ];
    let mut methods = Vec::new();
    let mut counts = Vec::new();
    let mut totals = Vec::new();
    for name in order {
        if let Some((idx, shown)) = resolve(out, name) {
            methods.push(shown);
            counts.push(out.win60.threshold_counts(idx));
            totals.push(out.win60.window_count(idx));
        }
    }
    Table6 { methods, counts, totals }
}

/// Table 7 rows (RONwide round-trip dataset).
pub fn table7(out: &ExperimentOutput) -> Vec<Table7Row> {
    let order = [
        "direct", "rand", "lat", "loss", "direct direct", "rand rand", "direct rand",
        "direct lat", "direct loss", "rand lat", "rand loss", "lat loss",
    ];
    order
        .iter()
        .filter_map(|name| {
            let (idx, shown) = resolve(out, name)?;
            Some(Table7Row { name: shown, summary: out.loss.summary(idx) })
        })
        .collect()
}

/// Figure 2: CDF of long-term per-path loss rates (percent), one series
/// per dataset run.
pub fn fig2(runs: &[(&str, &ExperimentOutput)]) -> Figure {
    let mut fig = Figure::new(
        "Figure 2: CDF of long-term per-path loss rates",
        "loss_pct",
        "fraction_of_paths",
    );
    for (label, out) in runs {
        if let Some((idx, _)) = resolve(out, "direct") {
            let vals: Vec<f64> =
                out.loss.per_path_loss(idx).into_iter().map(|(_, _, r)| r * 100.0).collect();
            fig.push(Series::new(*label, Cdf::from_values(vals).points(200)));
        }
    }
    fig
}

/// Figure 3: CDF of 20-minute loss-rate samples per method.
pub fn fig3(out: &ExperimentOutput) -> Figure {
    let mut fig = Figure::new(
        "Figure 3: CDF of 20-minute loss rates",
        "loss_rate",
        "fraction_of_samples",
    );
    for name in
        ["direct", "loss", "direct direct", "direct rand", "lat loss", "dd 10 ms", "dd 20 ms"]
    {
        if let Some((idx, shown)) = resolve(out, name) {
            fig.push(Series::new(shown, out.win20.histogram(idx).cdf_points()));
        }
    }
    fig
}

/// Figure 4: CDF across paths of the second-packet conditional loss
/// probability, for the two-packet methods.
pub fn fig4(out: &ExperimentOutput) -> Figure {
    let mut fig = Figure::new(
        "Figure 4: CDF of per-path conditional loss probabilities",
        "clp_pct",
        "fraction_of_paths",
    );
    for name in ["direct direct", "direct rand", "dd 10 ms", "dd 20 ms"] {
        if let Some((idx, shown)) = resolve(out, name) {
            let vals = out.loss.per_path_clp(idx, 1);
            if !vals.is_empty() {
                fig.push(Series::new(shown, Cdf::from_values(vals).points(200)));
            }
        }
    }
    fig
}

/// Figure 5: CDF of per-path one-way latencies for paths whose direct
/// latency exceeds 50 ms.
pub fn fig5(out: &ExperimentOutput) -> Figure {
    let mut fig = Figure::new(
        "Figure 5: CDF of one-way latencies (paths over 50 ms)",
        "latency_ms",
        "fraction_of_paths",
    );
    let Some((direct_idx, _)) = resolve(out, "direct") else { return fig };
    #[allow(
        clippy::disallowed_types,
        reason = "membership probe only (`contains` below); the series order is \
                  per_path_latency_ms's, never the set's"
    )]
    let slow: std::collections::HashSet<(HostId, HostId)> = out
        .loss
        .per_path_latency_ms(direct_idx)
        .into_iter()
        .filter(|&(_, _, ms)| ms > 50.0)
        .map(|(s, d, _)| (s, d))
        .collect();
    for name in ["lat loss", "lat", "direct rand", "direct", "loss"] {
        if let Some((idx, shown)) = resolve(out, name) {
            let vals: Vec<f64> = out
                .loss
                .per_path_latency_ms(idx)
                .into_iter()
                .filter(|(s, d, _)| slow.contains(&(*s, *d)))
                .map(|(_, _, ms)| ms)
                .collect();
            if !vals.is_empty() {
                fig.push(Series::new(shown, Cdf::from_values(vals).points(200)));
            }
        }
    }
    fig
}

/// Figure 6: the §5 design-space curves from the analytic model.
pub fn fig6(model: &crate::model::DesignModel, flow_bps: f64) -> Figure {
    let mut fig = Figure::new(
        "Figure 6: when to use reactive or redundant routing",
        "desired_improvement",
        "fraction_capacity_for_data",
    );
    let pts = model.figure6(flow_bps, 101);
    fig.push(Series::new(
        "reactive",
        pts.iter().filter(|p| !p.1.is_nan()).map(|p| (p.0, p.1)).collect(),
    ));
    fig.push(Series::new(
        "redundant",
        pts.iter().filter(|p| !p.2.is_nan()).map(|p| (p.0, p.2)).collect(),
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentConfig};
    use crate::method::MethodSet;
    use crate::model::DesignModel;
    use crate::scenario::ScenarioRegistry;
    use netsim::{SimDuration, Topology};

    fn ron_wide_run(seed: u64, mins: u64) -> ExperimentOutput {
        ScenarioRegistry::builtin()
            .get("ron-wide")
            .unwrap()
            .run(seed, Some(SimDuration::from_mins(mins)))
    }

    fn tiny_run(seed: u64) -> ExperimentOutput {
        let topo = Topology::synthetic(4, 0.02, seed);
        let mut cfg = ExperimentConfig::new(MethodSet::ron2003());
        cfg.duration = SimDuration::from_mins(45);
        cfg.seed = seed;
        cfg.flat_load = true;
        run_experiment(topo, cfg)
    }

    #[test]
    fn table5_has_the_paper_rows() {
        let out = tiny_run(5);
        let rows = table5(&out);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "direct*", "lat*", "loss", "direct rand", "lat loss", "direct direct",
                "dd 10 ms", "dd 20 ms"
            ]
        );
    }

    #[test]
    fn table6_columns_resolve() {
        let out = tiny_run(6);
        let t = table6(&out);
        assert_eq!(t.methods.len(), 8);
        assert_eq!(t.counts.len(), 8);
        // Threshold counts are monotonically nonincreasing.
        for c in &t.counts {
            for w in c.windows(2) {
                assert!(w[1] <= w[0]);
            }
        }
    }

    #[test]
    fn table7_requires_ron_wide() {
        let out = ron_wide_run(7, 30);
        let rows = table7(&out);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn figures_have_series() {
        let out = tiny_run(8);
        assert!(!fig3(&out).series.is_empty());
        let f2 = fig2(&[("test", &out)]);
        assert_eq!(f2.series.len(), 1);
        // fig4 may be sparse on tiny runs but must not panic.
        let _ = fig4(&out);
        let _ = fig5(&out);
        let f6 = fig6(&DesignModel::ron2003_defaults(), 64_000.0);
        assert_eq!(f6.series.len(), 2);
    }

    #[test]
    fn resolve_prefers_exact_name() {
        let out = ron_wide_run(9, 20);
        let (_, shown) = resolve(&out, "direct").unwrap();
        assert_eq!(shown, "direct", "RONwide has a real direct method");
    }
}
