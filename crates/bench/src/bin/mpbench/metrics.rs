//! The metric registry (every name the benchmark prints, with its
//! unit, direction, layer and comparison rule) and the records a run
//! produces.
//!
//! `BENCHMARK.json` lists the same names with unit and direction only
//! (its schema is fixed); layer and exactness live here, the predicted
//! end-to-end effect of each metric in the README, and a test holds the
//! two name lists equal.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};

/// How `--compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// User-visible; may worsen by at most its bound in `BENCHMARK.json`.
    EndToEnd,
    /// A deterministic count: two runs of one commit at one seed agree
    /// exactly, so any difference is a behaviour change.
    Exact,
    /// A timing, or a figure derived from timings: explains an
    /// end-to-end move, never gates on its own.
    Measured,
}

/// One registry entry.
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of "better".
    pub lower_is_better: bool,
    /// Comparison rule.
    pub kind: Kind,
    /// Reported once per workload (else once per run).
    pub per_workload: bool,
    /// The repo module the number belongs to.
    pub layer: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    kind: Kind,
    per_workload: bool,
    layer: &'static str,
) -> Def {
    Def { name, unit, lower_is_better, kind, per_workload, layer }
}

use Kind::{EndToEnd, Exact, Measured};

/// Every metric, end-to-end first, then layer by layer.
#[rustfmt::skip]
pub const DEFS: &[Def] = &[
    def("setup_s", "s", true, EndToEnd, true, "harness"),
    def("wall_s", "s", true, EndToEnd, true, "harness"),
    def("cpu_s", "s", true, EndToEnd, true, "harness"),
    def("peak_heap_mib", "MiB", true, EndToEnd, true, "harness"),
    def("failed_share", "ratio", true, EndToEnd, true, "harness"),
    // netsim::event
    def("netsim.event.push_pop_ns_occ128", "ns", true, Measured, false, "netsim::event"),
    def("netsim.event.push_pop_ns_occ4096", "ns", true, Measured, false, "netsim::event"),
    // netsim::net
    def("netsim.net.transit_ns_n30", "ns", true, Measured, false, "netsim::net"),
    def("netsim.net.transit_ns_n120", "ns", true, Measured, false, "netsim::net"),
    def("netsim.net.host_up_ns", "ns", true, Measured, false, "netsim::net"),
    def("netsim.net.delivered_share", "ratio", false, Exact, true, "netsim::net"),
    // netsim::topology
    def("netsim.topology.build_us_n30", "us", true, Measured, false, "netsim::topology"),
    def("netsim.topology.build_us_n120", "us", true, Measured, false, "netsim::topology"),
    def("netsim.topology.clone_us_n30", "us", true, Measured, false, "netsim::topology"),
    def("netsim.topology.clone_us_n120", "us", true, Measured, false, "netsim::topology"),
    // overlay::node
    def("overlay.node.packet_ns_n17_full", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.packet_ns_n30_full", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.packet_ns_n120_full", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.packet_ns_n120_delta", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.entries_per_packet_n17_full", "count", true, Exact, false, "overlay::node"),
    def("overlay.node.entries_per_packet_n30_full", "count", true, Exact, false, "overlay::node"),
    def("overlay.node.entries_per_packet_n120_full", "count", true, Exact, false, "overlay::node"),
    def("overlay.node.entries_per_packet_n120_delta", "count", true, Exact, false, "overlay::node"),
    def("overlay.node.poll_at_ns_n30", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.poll_at_ns_n120", "ns", true, Measured, false, "overlay::node"),
    def("overlay.node.new_us_n30", "us", true, Measured, false, "overlay::node"),
    def("overlay.node.new_us_n120", "us", true, Measured, false, "overlay::node"),
    // overlay::table
    def("overlay.table.route_minloss_ns_n17", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.route_minloss_ns_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.route_minloss_ns_n120", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.route_minlat_ns_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.route_random_ns_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.route_avoiding_ns_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.ingest_ns_per_entry_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.ingest_ns_per_entry_n120", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.snapshot_rebuild_ns_n30", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.snapshot_rebuild_ns_n120", "ns", true, Measured, false, "overlay::table"),
    def("overlay.table.bytes_per_host_n120", "B", true, Exact, false, "overlay::table"),
    // overlay::dissem
    def("overlay.dissem.probe_send_ns_full_n120", "ns", true, Measured, false, "overlay::dissem"),
    def("overlay.dissem.probe_send_ns_delta_n120", "ns", true, Measured, false, "overlay::dissem"),
    def("overlay.dissem.lsa_bytes_per_sim_s", "B/s", true, Exact, true, "overlay::dissem"),
    def("overlay.dissem.lsa_entries_per_probe", "count", true, Exact, true, "overlay::dissem"),
    // trace::collect
    def("trace.collect.leg_ns", "ns", true, Measured, false, "trace::collect"),
    def("trace.collect.peak_pending", "count", true, Exact, true, "trace::collect"),
    def("trace.collect.resolved", "count", false, Exact, true, "trace::collect"),
    def("trace.collect.discarded_share", "ratio", true, Exact, true, "trace::collect"),
    // analysis
    def("analysis.loss.outcome_ns_n30m8", "ns", true, Measured, false, "analysis::loss"),
    def("analysis.loss.outcome_ns_n17m12", "ns", true, Measured, false, "analysis::loss"),
    def("analysis.windows.outcome_ns_n30m8", "ns", true, Measured, false, "analysis::windows"),
    def("analysis.windows.outcome_ns_n17m12", "ns", true, Measured, false, "analysis::windows"),
    def("analysis.loss.merge_us", "us", true, Measured, false, "analysis::loss"),
    def("analysis.windows.merge_us", "us", true, Measured, false, "analysis::windows"),
    def("analysis.digest_us", "us", true, Measured, false, "analysis"),
    // core::experiment
    def("core.experiment.sim_rate", "sim_s/s", false, Measured, true, "core::experiment"),
    def("core.experiment.events_per_s", "1/s", false, Measured, true, "core::experiment"),
    def("core.experiment.events", "count", true, Exact, true, "core::experiment"),
    def("core.experiment.measure_legs", "count", false, Exact, true, "core::experiment"),
    def("core.experiment.overlay_probes", "count", true, Exact, true, "core::experiment"),
    def("core.experiment.slice_run_ms", "ms", true, Measured, false, "core::experiment"),
    def("core.experiment.slice_fixed_ms", "ms", true, Measured, false, "core::experiment"),
    // core::shard
    def("core.shard.plan_us", "us", true, Measured, false, "core::shard"),
    def("core.shard.parallel_efficiency", "ratio", false, Measured, false, "core::shard"),
    // core::report
    def("core.report.merge_us_per_slice", "us", true, Measured, false, "core::report"),
    def("core.report.render_us", "us", true, Measured, false, "core::report"),
    // serde
    def("serde.result_bytes", "B", true, Exact, false, "serde"),
    def("serde.encode_ms", "ms", true, Measured, false, "serde"),
    def("serde.decode_ms", "ms", true, Measured, false, "serde"),
    def("serde.encode_ns_per_byte", "ns/B", true, Measured, false, "serde"),
    def("serde.decode_ns_per_byte", "ns/B", true, Measured, false, "serde"),
    // core::distrib
    def("core.distrib.frame_encode_ms", "ms", true, Measured, false, "core::distrib"),
    def("core.distrib.frame_decode_ms", "ms", true, Measured, false, "core::distrib"),
    def("core.distrib.lease_rtt_us", "us", true, Measured, false, "core::distrib"),
    def("core.distrib.result_send_ms", "ms", true, Measured, false, "core::distrib"),
    def("core.distrib.connections", "count", true, Exact, false, "core::distrib"),
    def("core.distrib.releases", "count", true, Exact, false, "core::distrib"),
    def("core.distrib.duplicates", "count", true, Exact, false, "core::distrib"),
    def("core.distrib.peak_buffered", "count", true, Measured, false, "core::distrib"),
    def("core.distrib.wire_overhead_s", "s", true, Measured, false, "core::distrib"),
    // process-wide allocator
    def("alloc.count_per_event", "count", true, Measured, true, "alloc"),
    def("alloc.bytes_per_event", "B", true, Measured, true, "alloc"),
    def("alloc.count_total", "count", true, Measured, true, "alloc"),
    // cost model
    def("model.share.netsim.event", "ratio", true, Measured, true, "model"),
    def("model.share.netsim.net", "ratio", true, Measured, true, "model"),
    def("model.share.overlay.node", "ratio", true, Measured, true, "model"),
    def("model.share.trace.collect", "ratio", true, Measured, true, "model"),
    def("model.share.analysis", "ratio", true, Measured, true, "model"),
    def("model.coverage", "ratio", false, Measured, true, "model"),
    // executor trace
    def("trace.overhead_share", "ratio", true, Measured, false, "harness"),
];

/// Looks a definition up by name.
pub fn def_of(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// `failed_share` is reported through `failed`/`attempted` in driver
/// mode and is absent from `BENCHMARK.json`, whose end-to-end metrics
/// must never read 0.
pub const FAILED_SHARE: &str = "failed_share";

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Registry name.
    pub name: String,
    /// The workload it belongs to; `None` for once-per-run metrics.
    pub workload: Option<String>,
    /// Unit (copied from the registry so result files stand alone).
    pub unit: String,
    /// Layer (ditto).
    pub layer: String,
    /// The reported value (lower quartile for sampled timings).
    pub value: f64,
    /// Fastest sample, for sampled timings.
    pub min: Option<f64>,
    /// Lower-quartile sample.
    pub p25: Option<f64>,
    /// Median sample.
    pub median: Option<f64>,
    /// Upper-quartile sample.
    pub p75: Option<f64>,
    /// Sample count.
    pub samples: Option<u64>,
}

/// The records of one run, in emission order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Every value recorded so far.
    pub records: Vec<Record>,
}

impl Metrics {
    fn push(&mut self, name: &str, workload: Option<&str>, value: f64, s: Option<Summary>) {
        let d = def_of(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        assert_eq!(d.per_workload, workload.is_some(), "`{name}`: wrong scope");
        self.records.push(Record {
            name: name.to_string(),
            workload: workload.map(str::to_string),
            unit: d.unit.to_string(),
            layer: d.layer.to_string(),
            value,
            min: s.map(|s| s.min),
            p25: s.map(|s| s.p25),
            median: s.map(|s| s.median),
            p75: s.map(|s| s.p75),
            samples: s.map(|s| s.samples as u64),
        });
    }

    /// Records a single value.
    pub fn put(&mut self, name: &str, workload: Option<&str>, value: f64) {
        self.push(name, workload, value, None);
    }

    /// Records a sampled timing: the lower quartile, scaled by `scale`
    /// (unit conversion), with the other order statistics beside it.
    pub fn put_sampled(&mut self, name: &str, workload: Option<&str>, s: Summary, scale: f64) {
        let scaled = s.scaled(scale);
        self.push(name, workload, scaled.p25, Some(scaled));
    }

    /// Records a sampled timing by its *fastest* sample. For `setup_s`
    /// only: a set-up is 0.2–2 ms of mostly fresh allocations, so its
    /// samples scatter with page-fault luck rather than with one-sided
    /// load, and the minimum is the one statistic that stays put (it
    /// moved 2x less than quartile or median between quiet and loaded
    /// phases of the reference box).
    pub fn put_fastest(&mut self, name: &str, workload: Option<&str>, s: Summary) {
        self.push(name, workload, s.min, Some(s));
    }

    /// The value recorded for `name` on `workload`.
    pub fn get(&self, name: &str, workload: Option<&str>) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.name == name && r.workload.as_deref() == workload)
            .map(|r| r.value)
    }
}

/// Fixed-width human-readable line for one record.
pub fn render_record(r: &Record) -> String {
    let head = format!("{:<18} {:<44} {:>16} {:<8}", r.layer, r.name, fmt_value(r.value), r.unit);
    match (r.min, r.p25, r.median, r.p75, r.samples) {
        (Some(min), Some(p25), Some(median), Some(p75), Some(n)) => format!(
            "{head} min {} p25 {} median {} p75 {} n={n}",
            fmt_value(min),
            fmt_value(p25),
            fmt_value(median),
            fmt_value(p75)
        ),
        _ => head,
    }
}

/// Whole numbers in full; otherwise six significant digits, in plain
/// notation for everyday magnitudes.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if (1e-3..1e9).contains(&v.abs()) {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 8) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_charset() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(d.name.len() <= 64 && !d.name.is_empty(), "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric(), "{}", d.name);
            assert!(
                d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit `{}`",
                d.name,
                d.unit
            );
            assert!(DEFS[..i].iter().all(|e| e.name != d.name), "duplicate {}", d.name);
        }
    }

    #[test]
    fn values_format_with_six_significant_digits() {
        assert_eq!(fmt_value(2.2034567), "2.20346");
        assert_eq!(fmt_value(1234.5678), "1234.57");
        assert_eq!(fmt_value(438348.0), "438348");
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(0.012345678), "0.0123457");
        assert_eq!(fmt_value(1.5e-7), "1.50000e-7");
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_names_are_refused() {
        Metrics::default().put("no.such.metric", None, 1.0);
    }
}
