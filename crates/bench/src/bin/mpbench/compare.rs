//! `mpbench --compare A.json B.json`: B against A, metric by metric and
//! workload by workload — end-to-end metrics against their bounds in
//! `BENCHMARK.json`, exact counters for equality, everything else for
//! information. The tool for the repeatability criterion (two runs of
//! one commit) and for every later before/after.

use crate::metrics::{def_of, fmt_value, Kind, Record};
use serde::{Deserialize, Serialize};

/// `result.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Workload seed.
    pub seed: u64,
    /// `std::thread::available_parallelism` of the box that ran it.
    pub nproc: u64,
    /// Compute threads of the parallel workloads.
    pub threads: u64,
    /// Timed repetitions per workload.
    pub reps: u64,
    /// Checks attempted (repetitions and cross-checks).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
    /// Every metric.
    pub records: Vec<Record>,
}

/// The end-to-end bounds listed in `BENCHMARK.json`, by metric name.
pub fn bounds(benchmark_json: &str) -> Vec<(String, f64)> {
    let v = serde_json::parse(benchmark_json).expect("BENCHMARK.json is valid JSON");
    let Ok(serde::Value::Seq(items)) = v.field("end_to_end") else {
        panic!("BENCHMARK.json has no `end_to_end` list");
    };
    let entry = |m: &serde::Value| {
        Some((
            String::from_value(m.field("name").ok()?).ok()?,
            f64::from_value(m.field("bound").ok()?).ok()?,
        ))
    };
    items
        .iter()
        .map(|m| entry(m).expect("every end-to-end metric has a name and a bound"))
        .collect()
}

/// One compared pair's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its rule.
    Ok,
    /// Not gated; shown for information.
    Info,
    /// Worse than A by more than the bound.
    Regressed,
    /// An exact counter changed.
    Changed,
    /// Present in A, absent from B.
    Missing,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Judges one record of A against its counterpart in B.
pub fn judge(bounds: &[(String, f64)], a: &Record, b: Option<&Record>) -> Verdict {
    let (Some(b), Some(d)) = (b, def_of(&a.name)) else {
        return Verdict::Missing;
    };
    match d.kind {
        Kind::Exact if a.value == b.value => Verdict::Ok,
        Kind::Exact => Verdict::Changed,
        Kind::EndToEnd => {
            // A metric without a listed bound may not worsen at all:
            // that is `failed_share`, which BENCHMARK.json cannot list
            // because its end-to-end metrics must never read 0.
            let bound = bounds.iter().find(|(n, _)| *n == a.name).map_or(0.0, |(_, b)| *b);
            if worsening(a.value, b.value, d.lower_is_better) > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Kind::Measured => Verdict::Info,
    }
}

/// Prints the comparison table; returns how many pairs failed.
pub fn compare(benchmark_json: &str, a: &ResultFile, b: &ResultFile) -> usize {
    let bounds = bounds(benchmark_json);
    if a.seed != b.seed {
        println!(
            "note: seeds differ ({} vs {}): exact counters are expected to differ",
            a.seed, b.seed
        );
    }
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    let mut bad = 0;
    for ra in &a.records {
        let rb = b.records.iter().find(|r| r.name == ra.name && r.workload == ra.workload);
        let verdict = judge(&bounds, ra, rb);
        let lower = def_of(&ra.name).is_none_or(|d| d.lower_is_better);
        let (bv, worse) = match rb {
            Some(rb) => (
                fmt_value(rb.value),
                format!("{:+.2}%", 100.0 * worsening(ra.value, rb.value, lower)),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Info => "",
            Verdict::Regressed => "REGRESSED beyond bound",
            Verdict::Changed => "CHANGED (exact counter)",
            Verdict::Missing => "MISSING",
        };
        if !matches!(verdict, Verdict::Ok | Verdict::Info) {
            bad += 1;
        }
        println!(
            "{:<14} {:<44} {:>14} {:>14} {:>9}  {word}",
            ra.workload.as_deref().unwrap_or("-"),
            ra.name,
            fmt_value(ra.value),
            bv,
            worse
        );
    }
    println!(
        "{bad} of {} pairs outside their rule (end-to-end: worse than A by more than the bound \
         in BENCHMARK.json; exact counters: any difference)",
        a.records.len()
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str =
        r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#;

    fn rec(name: &str, value: f64) -> Record {
        Record {
            name: name.into(),
            workload: def_of(name).unwrap().per_workload.then(|| "campaign30".to_string()),
            unit: "x".into(),
            layer: "x".into(),
            value,
            min: None,
            p25: None,
            median: None,
            p75: None,
            samples: None,
        }
    }

    #[test]
    fn worsening_is_direction_aware() {
        assert!((worsening(2.0, 2.2, true) - 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 1.8, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
        assert_eq!(worsening(0.0, 0.5, true), f64::INFINITY);
    }

    #[test]
    fn end_to_end_metrics_are_held_to_their_bounds() {
        let bounds = bounds(BENCH);
        assert_eq!(bounds, [("wall_s".to_string(), 0.1)]);
        let a = rec("wall_s", 2.0);
        assert_eq!(judge(&bounds, &a, Some(&rec("wall_s", 2.19))), Verdict::Ok);
        assert_eq!(judge(&bounds, &a, Some(&rec("wall_s", 2.21))), Verdict::Regressed);
        assert_eq!(judge(&bounds, &a, Some(&rec("wall_s", 1.0))), Verdict::Ok, "better is fine");
        assert_eq!(judge(&bounds, &a, None), Verdict::Missing);
        let f = rec("failed_share", 0.0);
        assert_eq!(judge(&bounds, &f, Some(&rec("failed_share", 0.0))), Verdict::Ok);
        assert_eq!(judge(&bounds, &f, Some(&rec("failed_share", 0.1))), Verdict::Regressed);
    }

    #[test]
    fn exact_counters_must_match_and_timings_only_inform() {
        let bounds = bounds(BENCH);
        let a = rec("core.experiment.events", 1000.0);
        assert_eq!(judge(&bounds, &a, Some(&rec("core.experiment.events", 1000.0))), Verdict::Ok);
        assert_eq!(
            judge(&bounds, &a, Some(&rec("core.experiment.events", 1001.0))),
            Verdict::Changed
        );
        let t = rec("netsim.net.transit_ns_n30", 265.0);
        assert_eq!(
            judge(&bounds, &t, Some(&rec("netsim.net.transit_ns_n30", 900.0))),
            Verdict::Info
        );
    }

    #[test]
    fn result_files_round_trip() {
        let f = ResultFile {
            seed: 1,
            nproc: 2,
            threads: 2,
            reps: 9,
            attempted: 60,
            failed: 0,
            failures: vec![],
            records: vec![rec("wall_s", 2.25), rec("serde.result_bytes", 1_770_000.0)],
        };
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<ResultFile>(&json).unwrap(), f);
        let a = compare(BENCH, &f, &f);
        assert_eq!(a, 0);
    }
}
