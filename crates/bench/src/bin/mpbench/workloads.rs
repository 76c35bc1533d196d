//! The six workloads: what each one runs, how one repetition is set up,
//! executed and reduced to the counters the rest of the benchmark reads.
//!
//! Every workload is a closed-loop batch: one repetition builds a
//! [`CampaignJob`] from the seed, runs it to a merged, fingerprinted and
//! rendered report, and only then does the next repetition start.

use crate::stats::timed;
use analysis::{render_table5, render_table7, scenario_stamp, Table5Row, Table7Row};
use mpath_core::{
    run_experiment, run_worker, serve_campaign, CampaignJob, DisseminationSpec, ExperimentConfig,
    ExperimentOutput, ScenarioRegistry, ServeOptions, ServeReport, WorkerOptions,
};
use netsim::{SimDuration, Topology};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Compute threads wherever a workload is parallel — fixed, so numbers
/// from boxes with different core counts stay comparable (`nproc` is
/// recorded in the output header).
pub const THREADS: usize = 2;

/// How a workload's slice plan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// One thread (`shards = 1`).
    Sequential,
    /// `run_experiment` on [`THREADS`] shard threads.
    Shards,
    /// `serve_campaign` + one `run_worker { jobs: THREADS }` over one
    /// loopback TCP connection, all in this process.
    Distrib,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Built-in scenario it runs.
    pub scenario: &'static str,
    /// Simulated (model-time) seconds per repetition.
    pub sim_secs: u64,
    /// Slice width in simulated seconds; `0` keeps the scenario's own
    /// 6-hour width, which makes every workload here one slice.
    pub slice_secs: u64,
    /// Switch link-state dissemination to `Delta { max_age_probes: 16 }`.
    pub delta: bool,
    /// Executor.
    pub exec: Exec,
}

/// Slices in the `shards2`/`distrib2` plan (2 h in 5-minute slices).
pub const SLICES: usize = 24;

/// The workloads, in reporting order. `mesh120*` run 108 simulated
/// seconds (7.2 probe rounds), not 144: the driver's time budget caps a
/// repetition at about 3 s.
pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "campaign30",
        scenario: "ron2003",
        sim_secs: 7200,
        slice_secs: 0,
        delta: false,
        exec: Exec::Sequential,
    },
    Workload {
        name: "roundtrip17",
        scenario: "ron-wide",
        sim_secs: 21_600,
        slice_secs: 0,
        delta: false,
        exec: Exec::Sequential,
    },
    Workload {
        name: "mesh120",
        scenario: "sparse-mesh",
        sim_secs: 108,
        slice_secs: 0,
        delta: false,
        exec: Exec::Sequential,
    },
    Workload {
        name: "mesh120_delta",
        scenario: "sparse-mesh",
        sim_secs: 108,
        slice_secs: 0,
        delta: true,
        exec: Exec::Sequential,
    },
    Workload {
        name: "shards2",
        scenario: "ron2003",
        sim_secs: 7200,
        slice_secs: 300,
        delta: false,
        exec: Exec::Shards,
    },
    Workload {
        name: "distrib2",
        scenario: "ron2003",
        sim_secs: 7200,
        slice_secs: 300,
        delta: false,
        exec: Exec::Distrib,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The job this workload runs at `seed`, with model time divided by
    /// `scale` (1 everywhere except the scaled-down self-test).
    pub fn job(&self, seed: u64, scale: u64) -> Result<CampaignJob, String> {
        let mut spec = ScenarioRegistry::builtin()
            .get(self.scenario)
            .ok_or_else(|| format!("builtin scenario `{}` missing", self.scenario))?
            .clone();
        if self.delta {
            spec.dissemination = DisseminationSpec::Delta { max_age_probes: 16 };
        }
        let mut job = CampaignJob::new(spec, seed, SimDuration::from_secs(self.sim_secs / scale));
        job.slice_width_us = SimDuration::from_secs(self.slice_secs / scale).as_micros();
        job.validate()?;
        Ok(job)
    }
}

/// Everything a repetition needs before its run call.
pub struct Prepared {
    job: CampaignJob,
    topo: Topology,
    cfg: ExperimentConfig,
    slices: usize,
    listener: Option<TcpListener>,
}

/// Set-up: registry lookup, validation, topology build, config and
/// plan; for `distrib2` also the loopback bind. (`run_worker` connects
/// and shakes hands inside its own call, so that part of the wire is
/// counted in `wall_s`, not here.)
pub fn prepare(w: &Workload, seed: u64, scale: u64) -> Result<Prepared, String> {
    let job = w.job(seed, scale)?;
    let topo = job.spec.topology(job.seed);
    let mut cfg = job.config();
    cfg.shards = if w.exec == Exec::Sequential { 1 } else { THREADS };
    let slices = job.plan().len();
    let listener = match w.exec {
        Exec::Distrib => {
            Some(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("loopback bind: {e}"))?)
        }
        _ => None,
    };
    Ok(Prepared { job, topo, cfg, slices, listener })
}

/// The coordinator's view of a `distrib2` repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounters {
    /// Slices in the served plan.
    pub slices: usize,
    /// Worker connections accepted.
    pub connections: u64,
    /// Leases re-issued.
    pub releases: u64,
    /// Duplicate results ignored.
    pub duplicates: u64,
    /// High-water mark of out-of-order results held back.
    pub peak_buffered: usize,
    /// Slices the worker reports having run.
    pub worker_slices: u64,
}

/// The deterministic counters of one finished run. This is the single
/// place that reads [`ExperimentOutput`]'s fields, so a reshaped output
/// type is a one-function fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Hosts.
    pub n: usize,
    /// Simulated seconds the output covers.
    pub sim_s: f64,
    /// Packets offered to the underlay.
    pub sent: u64,
    /// Packets the underlay delivered.
    pub delivered: u64,
    /// Dissemination payload bytes offered.
    pub lsa_bytes: u64,
    /// Dissemination metric entries offered.
    pub lsa_entries: u64,
    /// Overlay probe requests sent.
    pub overlay_probes: u64,
    /// Measurement legs sent.
    pub measure_legs: u64,
    /// Σ over route tags of legs sent (must equal `measure_legs`).
    pub route_legs: u64,
    /// Σ over route tags of legs that used an intermediate.
    pub via_legs: u64,
    /// Probe pairs the collector resolved.
    pub resolved: u64,
    /// Pairs discarded by the host-failure filter.
    pub discarded: u64,
    /// Collector high-water mark of open pairs.
    pub peak_pending: u64,
    /// Malformed sends + receives (structurally zero in simulation).
    pub malformed: u64,
    /// Rows in the summary table (methods + inferred views).
    pub rows: usize,
}

impl Counters {
    /// Reads the counters off a finished output.
    pub fn of(out: &ExperimentOutput) -> Counters {
        Counters {
            n: out.n,
            sim_s: out.duration.as_secs_f64(),
            sent: out.net.sent,
            delivered: out.net.delivered,
            lsa_bytes: out.net.lsa_bytes,
            lsa_entries: out.net.lsa_entries,
            overlay_probes: out.overlay_probes,
            measure_legs: out.measure_legs,
            route_legs: out.route_usage.iter().map(|u| u.0).sum(),
            via_legs: out.route_usage.iter().map(|u| u.1).sum(),
            resolved: out.collector.resolved,
            discarded: out.collector.discarded,
            peak_pending: out.collector.peak_pending,
            malformed: out.collector.malformed_receives + out.collector.malformed_sends,
            rows: out.names.len(),
        }
    }

    /// Discrete events, by the `--scale-sweep` definition: one per
    /// underlay send plus one per delivery.
    pub fn events(&self) -> u64 {
        self.sent + self.delivered
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Fingerprint of the merged output.
    pub fingerprint: u64,
    /// The rendered summary table.
    pub table: String,
    /// Work counters.
    pub counters: Counters,
    /// Slices in the plan set-up computed.
    pub planned_slices: usize,
    /// Coordinator counters (`distrib2` only).
    pub serve: Option<ServeCounters>,
}

/// The stamped summary table `repro --scenario` prints: every measured
/// method in registry order, Table 7 layout for round-trip scenarios.
pub fn render_summary(out: &ExperimentOutput, round_trip: bool) -> String {
    let stamp = scenario_stamp(&out.scenario, out.spec_digest);
    let summary = |name: &String| out.summary(name).expect("every named method has a summary");
    if round_trip {
        let rows: Vec<Table7Row> =
            out.names.iter().map(|n| Table7Row { name: n.clone(), summary: summary(n) }).collect();
        format!("{stamp}\n{}", render_table7(&rows))
    } else {
        let rows: Vec<Table5Row> =
            out.names.iter().map(|n| Table5Row { name: n.clone(), summary: summary(n) }).collect();
        render_table5(&stamp, &rows)
    }
}

fn serve_over_loopback(
    listener: TcpListener,
    job: CampaignJob,
) -> Result<(ServeReport, u64), String> {
    let addr = listener.local_addr().map_err(|e| format!("loopback address: {e}"))?;
    let coordinator =
        std::thread::spawn(move || serve_campaign(listener, job, ServeOptions::default()));
    let worker = std::thread::spawn(move || {
        run_worker(addr, WorkerOptions { jobs: THREADS, ..WorkerOptions::default() })
    });
    // The worker returns once the coordinator said `Done` (or vanished),
    // so the coordinator is joinable right after it. A failed worker
    // leaves the coordinator waiting for slices nobody will deliver; it
    // is then left detached (idle in `accept`) rather than joined, and
    // the repetition counts as failed.
    let worker_report = match worker.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("worker failed: {e}")),
        Err(_) => return Err("worker panicked".to_string()),
    };
    match coordinator.join() {
        Ok(Ok(report)) => Ok((report, worker_report.slices_run)),
        Ok(Err(e)) => Err(format!("coordinator failed: {e}")),
        Err(_) => Err("coordinator panicked".to_string()),
    }
}

/// The run call: executes the prepared job through to a merged output,
/// its fingerprint and the rendered summary table.
pub fn execute(w: &Workload, p: Prepared) -> Result<RunOutput, String> {
    let round_trip = p.job.spec.round_trip;
    let (out, serve) = match w.exec {
        Exec::Sequential | Exec::Shards => (run_experiment(p.topo, p.cfg), None),
        Exec::Distrib => {
            let listener = p.listener.expect("prepare binds for distrib workloads");
            let (report, worker_slices) = serve_over_loopback(listener, p.job)?;
            let counters = ServeCounters {
                slices: report.slices,
                connections: report.connections,
                releases: report.releases,
                duplicates: report.duplicates,
                peak_buffered: report.peak_buffered,
                worker_slices,
            };
            (report.output, Some(counters))
        }
    };
    Ok(RunOutput {
        fingerprint: out.fingerprint(),
        table: render_summary(&out, round_trip),
        counters: Counters::of(&out),
        planned_slices: p.slices,
        serve,
    })
}

/// Set-ups timed per repetition (the last one is the one that runs).
/// A set-up takes 0.1–1 ms, so one sample per repetition would leave
/// `setup_s` at the mercy of a single cold cache line.
pub const SETUPS_PER_REP: usize = 5;

/// One repetition's timings and result. A set-up error, run error or
/// panic anywhere inside is a *failed repetition* (`out` is `Err`), not
/// a crash of the benchmark.
pub struct Rep {
    /// Workload start → entry of the run call, once per set-up.
    pub setup_s: Vec<f64>,
    /// The run call, wall clock.
    pub wall_s: f64,
    /// The run call, user + system CPU over all threads.
    pub cpu_s: f64,
    /// The result, or why the repetition failed.
    pub out: Result<RunOutput, String>,
}

/// Runs one repetition of `w`.
pub fn rep(w: &Workload, seed: u64, scale: u64) -> Rep {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REP);
    let mut prepared = Err("no set-up ran".to_string());
    for _ in 0..SETUPS_PER_REP {
        let t0 = Instant::now();
        prepared = catch_unwind(|| prepare(w, seed, scale))
            .unwrap_or_else(|_| Err("set-up panicked".to_string()));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => return Rep { setup_s, wall_s: 0.0, cpu_s: 0.0, out: Err(e) },
    };
    let (out, wall_s, cpu_s) = timed(|| {
        catch_unwind(AssertUnwindSafe(|| execute(w, prepared)))
            .unwrap_or_else(|_| Err("run panicked".to_string()))
    });
    Rep { setup_s, wall_s, cpu_s, out }
}
