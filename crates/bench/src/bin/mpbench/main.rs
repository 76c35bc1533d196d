//! `mpbench` — the repo's benchmark: six named closed-loop workloads,
//! end-to-end and per-layer metrics, an executor trace and an outside-in
//! cost model for the campaign pipeline. See `README.md` beside this
//! file for every workload, metric and prediction.
//!
//! ```text
//! mpbench [--seed N] [--out DIR]        all six workloads, 9 interleaved
//!                                       repetitions each, every metric;
//!                                       writes result.json + trace.json
//! mpbench --workload W --seed N --seconds S --trace 0|1
//!                                       one workload for the benchmark
//!                                       driver; last stdout line is JSON
//! mpbench --compare A.json B.json       B against A, per metric x workload
//! ```
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; nothing outside this directory knows the benchmark
//! exists.

mod alloc;
mod compare;
mod exectrace;
mod layers;
mod metrics;
mod model;
mod stats;
mod verify;
mod workloads;

use compare::ResultFile;
use exectrace::{layer_self_ms, Span, TraceFile};
use metrics::{def_of, render_record, Kind, Metrics, FAILED_SHARE};
use model::{JobConsts, UnitCosts};
use stats::summarize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use verify::{hex, Checker};
use workloads::{rep, workload, Exec, RunOutput, Workload, THREADS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's contract with its driver: command, workloads,
/// end-to-end metrics with bounds, per-layer metrics.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Timed repetitions per workload when all six run together.
const FULL_REPS: usize = 9;
/// Fewest timed repetitions a reported quartile may rest on.
const MIN_REPS: usize = 5;

/// How long the timed repetitions go on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reps {
    /// This many per workload.
    Fixed(usize),
    /// Until this many seconds have passed (and at least [`MIN_REPS`]).
    Seconds(f64),
}

/// What one invocation measures.
struct Plan {
    seed: u64,
    /// Divides model time and probe iterations (1 outside the self-test).
    scale: u64,
    /// Workloads whose metrics are reported.
    primary: Vec<&'static Workload>,
    /// Workloads run once only because a cross-workload metric needs
    /// their time (`core.distrib.wire_overhead_s`, …).
    support: Vec<&'static Workload>,
    reps: Reps,
    /// Run the layer probes, the executor trace and the cost model.
    layers: bool,
}

impl Plan {
    fn full(seed: u64) -> Plan {
        Plan {
            seed,
            scale: 1,
            primary: WORKLOADS.iter().collect(),
            support: Vec::new(),
            reps: Reps::Fixed(FULL_REPS),
            layers: true,
        }
    }

    /// One workload, as the benchmark driver asks for it: `--trace 0`
    /// measures end to end for `seconds`; `--trace 1` makes the separate
    /// per-layer pass.
    fn driver(w: &'static Workload, seed: u64, seconds: f64, trace: bool) -> Plan {
        let support = if trace {
            ["campaign30", "shards2", "distrib2"]
                .iter()
                .filter(|n| **n != w.name)
                .map(|n| workload(n).expect("executor workloads exist"))
                .collect()
        } else {
            Vec::new()
        };
        let reps = if trace { Reps::Fixed(1) } else { Reps::Seconds(seconds) };
        Plan { seed, scale: 1, primary: vec![w], support, reps, layers: trace }
    }
}

/// One workload's repetitions so far.
struct Bench {
    w: &'static Workload,
    checker: Checker,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    /// Output of the latest repetition that passed verification.
    last: Option<RunOutput>,
    alloc: Option<alloc::AllocStats>,
}

impl Bench {
    fn new(w: &'static Workload, plan: &Plan) -> Bench {
        Bench {
            w,
            checker: Checker::new(w, plan.seed, plan.scale),
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            last: None,
            alloc: None,
        }
    }

    fn timed_rep(&mut self, plan: &Plan) {
        let r = rep(self.w, plan.seed, plan.scale);
        if self.checker.observe(&r.out) {
            self.setup_s.extend(r.setup_s);
            self.wall_s.push(r.wall_s);
            self.cpu_s.push(r.cpu_s);
            self.last = r.out.ok();
        }
    }

    /// The one repetition with the allocator counting; never timed.
    fn counted_rep(&mut self, plan: &Plan) {
        let (r, stats) = alloc::counted(|| rep(self.w, plan.seed, plan.scale));
        if self.checker.observe(&r.out) {
            self.alloc = Some(stats);
        }
    }

    fn wall(&self) -> Option<f64> {
        summarize(&self.wall_s).map(|s| s.p25)
    }

    fn end_to_end(&self, m: &mut Metrics) {
        let name = Some(self.w.name);
        if let Some(s) = summarize(&self.setup_s) {
            m.put_fastest("setup_s", name, s);
        }
        for (metric, samples) in [("wall_s", &self.wall_s), ("cpu_s", &self.cpu_s)] {
            if let Some(s) = summarize(samples) {
                m.put_sampled(metric, name, s, 1.0);
            }
        }
        if let Some(a) = self.alloc {
            m.put("peak_heap_mib", name, a.peak_live as f64 / (1 << 20) as f64);
        }
        let share = self.checker.failed as f64 / self.checker.attempted.max(1) as f64;
        m.put(FAILED_SHARE, name, share);
    }
}

/// Everything one invocation produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `(workload, fingerprint)` of every primary workload.
    fingerprints: Vec<(&'static str, u64)>,
    trace: Option<TraceFile>,
    reps: usize,
}

fn run(plan: &Plan) -> Outcome {
    let mut benches: Vec<Bench> =
        plan.primary.iter().chain(&plan.support).map(|w| Bench::new(w, plan)).collect();
    let primaries = plan.primary.len();

    // Timed repetitions, interleaved round-robin across workloads so
    // machine drift hits all alike; allocator counting is off.
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        let done = match plan.reps {
            Reps::Fixed(n) => rounds >= n,
            Reps::Seconds(s) => rounds >= MIN_REPS && t0.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        // Support workloads lend one time to a cross-workload metric.
        let active = if rounds == 0 { benches.len() } else { primaries };
        for b in &mut benches[..active] {
            b.timed_rep(plan);
        }
        rounds += 1;
    }
    for b in &mut benches[..primaries] {
        b.counted_rep(plan);
    }

    // Cross-executor: the sliced workloads must reproduce a sequential
    // `shards = 1` run of the same job, bit for bit.
    if let Some(sliced) = plan.primary.iter().find(|w| w.exec != Exec::Sequential) {
        let twin = Workload { exec: Exec::Sequential, ..**sliced };
        let fp = rep(&twin, plan.seed, plan.scale).out.map(|o| o.fingerprint);
        for b in benches[..primaries].iter_mut().filter(|b| b.w.exec != Exec::Sequential) {
            b.checker.cross_check("the sequential shards=1 run", fp.clone());
        }
    }

    let mut metrics = Metrics::default();
    let mut trace = None;
    let mut failures = Vec::new();
    if plan.layers {
        match per_layer(plan, &mut benches, &mut metrics) {
            Ok(t) => trace = Some(t),
            Err(e) => failures.push(format!("per-layer pass: {e}")),
        }
    }
    let mut e2e = Metrics::default();
    for b in &benches[..primaries] {
        b.end_to_end(&mut e2e);
    }
    e2e.records.append(&mut metrics.records);

    let (mut attempted, mut failed) = (failures.len() as u64, failures.len() as u64);
    for b in &mut benches {
        attempted += b.checker.attempted;
        failed += b.checker.failed;
        failures.append(&mut b.checker.failures);
    }
    let fingerprints = benches[..primaries]
        .iter()
        .filter_map(|b| b.checker.fingerprint().map(|fp| (b.w.name, fp)))
        .collect();
    Outcome { metrics: e2e, attempted, failed, failures, fingerprints, trace, reps: rounds }
}

/// Durations, in seconds, of the spans called `name`.
fn span_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e9).collect()
}

/// The per-layer pass: executor trace, hand-driven worker session,
/// layer probes, then per-workload counters, allocations and the cost
/// model for every primary workload.
fn per_layer(plan: &Plan, benches: &mut [Bench], m: &mut Metrics) -> Result<TraceFile, String> {
    let job =
        |name: &str| workload(name).expect("named workloads exist").job(plan.seed, plan.scale);
    let (campaign, wide) = (job("campaign30")?, job("roundtrip17")?);
    let (mesh, mesh_delta, sliced) = (job("mesh120")?, job("mesh120_delta")?, job("shards2")?);

    // The executor job by hand, one span per call; it must end on the
    // sliced workloads' fingerprint, and so must a hand-driven worker
    // delivering the same frames to a real coordinator.
    let traced = exectrace::replay(&sliced)?;
    let session = exectrace::hand_session(&sliced, &traced.frames)?;
    for b in benches.iter_mut().filter(|b| b.w.exec != Exec::Sequential) {
        b.checker.cross_check("the executor trace", Ok(traced.fingerprint));
        b.checker.cross_check("the hand-driven worker session", Ok(session.fingerprint));
    }
    let layer_ms = layer_self_ms(&traced.spans);
    let root_ms = traced.spans.first().map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6);
    let covered: f64 = layer_ms.values().sum();
    if (covered - root_ms).abs() > 0.02 * root_ms {
        return Err(format!(
            "layer self-times sum to {covered:.3} ms, the trace took {root_ms:.3} ms"
        ));
    }

    let inputs = layers::Inputs {
        campaign: &campaign,
        wide: &wide,
        mesh: &mesh,
        mesh_delta: &mesh_delta,
        sliced: &sliced,
        slice_frame: &traced.frames[0],
    };
    layers::probe_all(m, &inputs, plan.scale)?;

    let wall_of = |name: &str| {
        benches
            .iter()
            .find(|b| b.w.name == name)
            .and_then(Bench::wall)
            .ok_or(format!("no passing repetition of {name}"))
    };
    let (campaign_s, shards_s, distrib_s) =
        (wall_of("campaign30")?, wall_of("shards2")?, wall_of("distrib2")?);
    let runs = span_s(&traced.spans, "run_slice_index");
    let run = summarize(&runs).ok_or("the trace ran no slice")?;
    m.put_sampled("core.experiment.slice_run_ms", None, run, 1e3);
    let fixed_s = run.p25 - campaign_s / runs.len() as f64;
    m.put("core.experiment.slice_fixed_ms", None, fixed_s * 1e3);
    let efficiency = runs.iter().sum::<f64>() / (THREADS as f64 * shards_s);
    m.put("core.shard.parallel_efficiency", None, efficiency);
    let merge =
        summarize(&span_s(&traced.spans, "merge_outputs")).ok_or("the trace merged nothing")?;
    m.put_sampled("core.report.merge_us_per_slice", None, merge, 1e6);
    m.put_sampled("core.distrib.lease_rtt_us", None, session.lease_rtt_s, 1e6);
    m.put_sampled("core.distrib.result_send_ms", None, session.result_send_s, 1e3);
    m.put("core.distrib.wire_overhead_s", None, distrib_s - shards_s);
    let serve = benches
        .iter()
        .find_map(|b| b.last.as_ref().and_then(|o| o.serve))
        .ok_or("no passing repetition of distrib2")?;
    m.put("core.distrib.connections", None, serve.connections as f64);
    m.put("core.distrib.releases", None, serve.releases as f64);
    m.put("core.distrib.duplicates", None, serve.duplicates as f64);
    m.put("core.distrib.peak_buffered", None, serve.peak_buffered as f64);
    let tracing_s = traced.spans.len() as f64 * exectrace::span_cost_s();
    m.put("trace.overhead_share", None, tracing_s / traced.wall_s);

    for b in benches.iter().take(plan.primary.len()) {
        per_workload(b, &b.w.job(plan.seed, plan.scale)?, m)?;
    }
    Ok(TraceFile {
        fingerprint: hex(traced.fingerprint),
        wall_ms: traced.wall_s * 1e3,
        layer_self_ms: layer_ms.into_iter().collect(),
        spans: traced.spans,
    })
}

/// Counters, rates, allocations and model shares of one workload.
fn per_workload(b: &Bench, job: &mpath_core::CampaignJob, m: &mut Metrics) -> Result<(), String> {
    let name = Some(b.w.name);
    let missing = || format!("no passing repetition of {}", b.w.name);
    let c = b.last.as_ref().ok_or_else(missing)?.counters;
    let wall = b.wall().ok_or_else(missing)?;
    let cpu = summarize(&b.cpu_s).ok_or_else(missing)?.p25;
    let events = c.events() as f64;
    m.put("netsim.net.delivered_share", name, c.delivered as f64 / c.sent as f64);
    m.put("overlay.dissem.lsa_bytes_per_sim_s", name, c.lsa_bytes as f64 / c.sim_s);
    m.put(
        "overlay.dissem.lsa_entries_per_probe",
        name,
        c.lsa_entries as f64 / c.overlay_probes as f64,
    );
    m.put("trace.collect.peak_pending", name, c.peak_pending as f64);
    m.put("trace.collect.resolved", name, c.resolved as f64);
    m.put("trace.collect.discarded_share", name, c.discarded as f64 / c.resolved as f64);
    m.put("core.experiment.sim_rate", name, c.sim_s / wall);
    m.put("core.experiment.events_per_s", name, events / wall);
    m.put("core.experiment.events", name, events);
    m.put("core.experiment.measure_legs", name, c.measure_legs as f64);
    m.put("core.experiment.overlay_probes", name, c.overlay_probes as f64);
    let a = b.alloc.ok_or_else(missing)?;
    m.put("alloc.count_per_event", name, a.count as f64 / events);
    m.put("alloc.bytes_per_event", name, a.bytes as f64 / events);
    m.put("alloc.count_total", name, a.count as f64);

    // The workload's operating point: host count picks the probe sizes.
    let probe = |metric: String| m.get(&metric, None).ok_or(format!("{metric} was not probed"));
    let (occ, net, node, acc) = match c.n {
        17 => ("occ128", "n30", "n17_full", "n17m12"),
        30 => ("occ128", "n30", "n30_full", "n30m8"),
        _ if b.w.delta => ("occ4096", "n120", "n120_delta", "n30m8"),
        _ => ("occ4096", "n120", "n120_full", "n30m8"),
    };
    let unit = UnitCosts {
        push_pop_ns: probe(format!("netsim.event.push_pop_ns_{occ}"))?,
        transit_ns: probe(format!("netsim.net.transit_ns_{net}"))?,
        host_up_ns: probe("netsim.net.host_up_ns".to_string())?,
        node_packet_ns: probe(format!("overlay.node.packet_ns_{node}"))?,
        leg_ns: probe("trace.collect.leg_ns".to_string())?,
        loss_outcome_ns: probe(format!("analysis.loss.outcome_ns_{acc}"))?,
        window_outcome_ns: probe(format!("analysis.windows.outcome_ns_{acc}"))?,
    };
    let set = job.spec.methods();
    let (lo, hi) = job.spec.calibration.wait_range_s;
    let consts = JobConsts {
        round_trip: job.spec.round_trip,
        feeds_per_outcome: 1.0 + set.views.len() as f64 / set.methods.len() as f64,
        mean_wait_s: (lo + hi) / 2.0,
    };
    let s = model::shares(&unit, &model::ops(&c, &consts), cpu);
    m.put("model.share.netsim.event", name, s.event);
    m.put("model.share.netsim.net", name, s.net);
    m.put("model.share.overlay.node", name, s.node);
    m.put("model.share.trace.collect", name, s.collect);
    m.put("model.share.analysis", name, s.analysis);
    m.put("model.coverage", name, s.coverage());
    Ok(())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn print_outcome(plan: &Plan, o: &Outcome) {
    println!(
        "mpbench: seed {}, nproc {}, {THREADS} compute threads where parallel, {} timed \
         repetition(s) per workload + 1 counted; timings report the lower quartile, setup_s its fastest sample (loopback \
         only; host time unless a unit says sim)",
        plan.seed,
        nproc(),
        o.reps
    );
    for r in &o.metrics.records {
        println!("{:<14} {}", r.workload.as_deref().unwrap_or("-"), render_record(r));
    }
    for (name, fp) in &o.fingerprints {
        println!("{name:<14} fingerprint {}", hex(*fp));
    }
    println!("ops_attempted {} ops_failed {}", o.attempted, o.failed);
    for f in &o.failures {
        println!("FAILED {f}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end without `--trace`, per-layer with it).
fn driver_line(o: &Outcome, w: &Workload, trace: bool) -> String {
    use serde::{Serialize, Value};
    let metrics = o
        .metrics
        .records
        .iter()
        .filter(|r| r.name != FAILED_SHARE && r.workload.as_deref().is_none_or(|n| n == w.name))
        .filter(|r| {
            let end_to_end = def_of(&r.name).is_some_and(|d| d.kind == Kind::EndToEnd);
            end_to_end != trace
        })
        .map(|r| {
            let entry = vec![
                ("value".to_string(), r.value.to_value()),
                ("unit".to_string(), r.unit.to_value()),
            ];
            (r.name.clone(), Value::Map(entry))
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(o.failed == 0)),
        ("attempted".to_string(), o.attempted.to_value()),
        ("failed".to_string(), o.failed.to_value()),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("values always serialize")
}

fn write_json<T: serde::Serialize>(
    dir: &std::path::Path,
    file: &str,
    value: &T,
) -> Result<(), String> {
    let path = dir.join(file);
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

const USAGE: &str = "usage: mpbench [--seed N] [--out DIR]
       mpbench --workload NAME --seed N --seconds S --trace 0|1
       mpbench --compare A.json B.json";

enum Mode {
    Full { out: PathBuf },
    Driver { w: &'static Workload, seconds: f64, trace: bool },
    Compare { a: String, b: String },
}

fn parse_args(argv: &[String]) -> Result<(Mode, u64), String> {
    let (mut seed, mut out) = (verify::PINNED_SEED, PathBuf::from("target/mpbench"));
    let (mut w, mut seconds, mut trace, mut cmp) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                w = Some(workload(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} is outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            "--compare" => cmp = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = match (cmp, w) {
        (Some((a, b)), _) => Mode::Compare { a, b },
        (None, Some(w)) => Mode::Driver {
            w,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            trace: trace.ok_or("--workload needs --trace")?,
        },
        (None, None) => Mode::Full { out },
    };
    Ok((mode, seed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, seed) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("mpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        Mode::Compare { a, b } => match (read_result(&a), read_result(&b)) {
            (Ok(a), Ok(b)) => compare::compare(BENCHMARK_JSON, &a, &b) == 0,
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("mpbench: {e}");
                return ExitCode::from(2);
            }
        },
        Mode::Driver { w, seconds, trace } => {
            let plan = Plan::driver(w, seed, seconds, trace);
            let o = run(&plan);
            print_outcome(&plan, &o);
            println!("{}", driver_line(&o, w, trace));
            o.failed == 0
        }
        Mode::Full { out } => {
            let plan = Plan::full(seed);
            let o = run(&plan);
            print_outcome(&plan, &o);
            let Outcome { metrics, attempted, failed, failures, trace, reps, .. } = o;
            let result = ResultFile {
                seed,
                nproc: nproc(),
                threads: THREADS as u64,
                reps: reps as u64,
                attempted,
                failed,
                failures,
                records: metrics.records,
            };
            let written = std::fs::create_dir_all(&out)
                .map_err(|e| format!("{}: {e}", out.display()))
                .and_then(|()| write_json(&out, "result.json", &result))
                .and_then(|()| trace.map_or(Ok(()), |t| write_json(&out, "trace.json", &t)));
            match written {
                Ok(()) => println!("wrote {}/result.json and trace.json", out.display()),
                Err(e) => {
                    eprintln!("mpbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            failed == 0
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::DEFS;
    use serde::{Deserialize, Value};
    use std::collections::BTreeSet;

    fn names(list: &Value) -> Vec<String> {
        let Value::Seq(items) = list else { panic!("expected a list") };
        items.iter().map(|m| String::from_value(m.field("name").unwrap()).unwrap()).collect()
    }

    fn registry(end_to_end: bool) -> Vec<&'static str> {
        DEFS.iter()
            .filter(|d| (d.kind == Kind::EndToEnd) == end_to_end && d.name != FAILED_SHARE)
            .map(|d| d.name)
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let b = serde_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert_eq!(names(b.field("end_to_end").unwrap()), registry(true));
        assert_eq!(names(b.field("per_layer").unwrap()), registry(false));
        assert_eq!(
            names(b.field("workloads").unwrap()),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for list in ["end_to_end", "per_layer"] {
            let Value::Seq(items) = b.field(list).unwrap() else { panic!("{list} is a list") };
            for m in items {
                let name = String::from_value(m.field("name").unwrap()).unwrap();
                let d = def_of(&name).unwrap();
                assert_eq!(String::from_value(m.field("unit").unwrap()).unwrap(), d.unit, "{name}");
                let better = String::from_value(m.field("better").unwrap()).unwrap();
                assert_eq!(better == "lower", d.lower_is_better, "{name}");
                assert_eq!(m.field("bound").is_ok(), list == "end_to_end", "{name}");
            }
        }
        let bounds = compare::bounds(BENCHMARK_JSON);
        let bound = |n: &str| bounds.iter().find(|(b, _)| b == n).unwrap().1;
        assert!(registry(true).iter().all(|n| bound(n) > 0.0 && bound(n) <= 0.25));
        assert!(
            registry(true).iter().all(|n| bound("setup_s") >= bound(n)),
            "set-up has the largest bound"
        );
        let paths = Vec::<String>::from_value(b.field("paths").unwrap()).unwrap();
        assert_eq!(paths, ["crates/bench/src/bin/mpbench"]);
    }

    /// The result line's metric names for `w`, after checking its shape.
    fn line_names(o: &Outcome, w: &Workload, trace: bool) -> Vec<String> {
        let v = serde_json::parse(&driver_line(o, w, trace)).expect("the result line is JSON");
        let Value::Map(keys) = &v else { panic!("the result line is an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.field("correct").unwrap(), &Value::Bool(true));
        assert!(u64::from_value(v.field("attempted").unwrap()).unwrap() >= 1);
        let Value::Map(metrics) = v.field("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        for (name, m) in metrics {
            assert!(f64::from_value(m.field("value").unwrap()).unwrap().is_finite(), "{name}");
            assert_eq!(
                String::from_value(m.field("unit").unwrap()).unwrap(),
                def_of(name).unwrap().unit
            );
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    /// All six workloads at 1/50 scale: every registered metric is
    /// printed (and nothing else), every check passes, and the result
    /// lines have the driver's schema — so the benchmark cannot rot.
    #[test]
    fn scaled_pass_covers_every_workload_and_metric() {
        let plan = Plan { scale: 50, reps: Reps::Fixed(1), ..Plan::full(7) };
        let o = run(&plan);
        assert_eq!((o.failed, &o.failures), (0, &Vec::new()));
        assert!(o.attempted >= 6 * 2 + 2 + 4, "reps, sequential twin and trace cross-checks");
        assert_eq!(o.fingerprints.len(), WORKLOADS.len());
        let fp = |n: &str| o.fingerprints.iter().find(|(w, _)| *w == n).unwrap().1;
        assert_eq!(fp("shards2"), fp("distrib2"), "one job, one fingerprint");
        assert_ne!(fp("mesh120"), fp("mesh120_delta"));

        let printed: BTreeSet<(String, Option<String>)> =
            o.metrics.records.iter().map(|r| (r.name.clone(), r.workload.clone())).collect();
        assert_eq!(printed.len(), o.metrics.records.len(), "no metric is printed twice");
        let mut expected = BTreeSet::new();
        for d in DEFS {
            if d.per_workload {
                expected.extend(
                    WORKLOADS.iter().map(|w| (d.name.to_string(), Some(w.name.to_string()))),
                );
            } else {
                expected.insert((d.name.to_string(), None));
            }
        }
        assert_eq!(printed, expected);
        assert!(o.metrics.records.iter().all(|r| r.value.is_finite()), "every value is a number");

        for w in &WORKLOADS {
            assert_eq!(line_names(&o, w, false), registry(true), "{} --trace 0", w.name);
            let traced: BTreeSet<String> = line_names(&o, w, true).into_iter().collect();
            assert_eq!(
                traced,
                registry(false).iter().map(|n| n.to_string()).collect(),
                "{} --trace 1",
                w.name
            );
        }

        let t = o.trace.expect("the per-layer pass leaves a trace");
        assert_eq!(t.fingerprint, hex(fp("shards2")), "the trace ends on the shards2 fingerprint");
        let covered: f64 = t.layer_self_ms.iter().map(|(_, ms)| ms).sum();
        let root = &t.spans[0];
        let root_ms = (root.end_ns - root.start_ns) as f64 / 1e6;
        assert!((covered - root_ms).abs() <= 0.02 * root_ms, "{covered} vs {root_ms}");
        assert_eq!(
            t.spans.iter().filter(|s| s.name == "run_slice_index").count(),
            workloads::SLICES
        );
        assert!(serde_json::to_string(&t).unwrap().contains("\"core::experiment\""));
    }

    #[test]
    fn driver_plans_measure_one_workload() {
        let w = workload("mesh120").unwrap();
        let e2e = Plan::driver(w, 3, 12.0, false);
        assert_eq!((e2e.primary.len(), e2e.support.len(), e2e.layers), (1, 0, false));
        assert_eq!(e2e.reps, Reps::Seconds(12.0));
        let traced = Plan::driver(workload("shards2").unwrap(), 3, 12.0, true);
        let support: Vec<_> = traced.support.iter().map(|w| w.name).collect();
        assert_eq!(support, ["campaign30", "distrib2"], "the executor trio minus the primary");
        assert!(traced.layers && traced.reps == Reps::Fixed(1));
    }

    #[test]
    fn arguments_select_the_mode() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(matches!(parse_args(&[]), Ok((Mode::Full { .. }, 1))));
        assert!(matches!(parse_args(&args("--seed 7 --out /tmp/x")), Ok((Mode::Full { .. }, 7))));
        let driver = parse_args(&args("--workload distrib2 --seed 4 --seconds 12 --trace 1"));
        assert!(matches!(driver, Ok((Mode::Driver { trace: true, .. }, 4))));
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok((Mode::Compare { .. }, _))
        ));
        for bad in [
            "--workload nope --seconds 1 --trace 0",
            "--workload mesh120 --trace 0",
            "--trace 2",
            "--seconds 0",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
