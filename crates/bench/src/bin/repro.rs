//! `repro` — regenerate every table and figure of the paper, and run
//! declarative scenarios from the open registry.
//!
//! ```text
//! repro [ARTIFACT] [--days F] [--seed N] [--shards N] [--out DIR]
//! repro --list-scenarios
//! repro --scenario NAME[,NAME...] [--days F] [--seed N] [--shards N]
//! repro --scenario-file PATH      [--days F] [--seed N] [--shards N]
//! repro --dump-scenario NAME
//! repro --matrix NAME[,NAME...] --seeds N [--days F] [--seed N] [--shards N]
//! repro --serve ADDR --scenario NAME [--days F] [--seed N] [--slice-mins F] [--lease-secs N]
//! repro --serve ADDR --scenario-file PATH [--days F] [--seed N] [--slice-mins F] [--lease-secs N]
//! repro --worker ADDR [--jobs N]
//! repro --scale-sweep [--max-hosts N] [--mesh-k K] [--sweep-secs F] [--dissem MODE] [--seed N]
//!
//! ARTIFACT: all | headline | table5 | table6 | table7
//!         | fig2 | fig3 | fig4 | fig5 | fig6 | fec
//! --days F    simulated days per dataset (default 1.0; paper scale: 14).
//!             In scenario mode: scales the run; without it the spec's
//!             full campaign length (`days` in the file) runs.
//! --seed N    master seed (default 2003)
//! --shards N  worker threads for the sliced campaign (default: the
//!             MPATH_SHARDS environment variable, else 1). Results are
//!             byte-identical for every value — only wall-clock changes.
//! --out DIR   directory for figure CSVs (default target/repro_out;
//!             ARTIFACT runs only)
//!
//! --list-scenarios   print the registry catalog and exit
//! --scenario NAMES   run the named scenario(s) (comma-separated sweep)
//! --scenario-file P  load a JSON ScenarioSpec from P and run it
//! --dump-scenario N  print the named scenario's JSON spec to stdout
//!                    (edit it, then feed it back via --scenario-file)
//! --matrix NAMES     run a scenarios x seeds sweep: every named
//!                    scenario under every seed, one comparative report
//!                    (per-cell fingerprints, per-method deltas vs. the
//!                    direct row, best-of-first-j loss for j=1..k)
//! --seeds N          seed count for --matrix (cells use seeds
//!                    --seed, --seed+1, ..., --seed+N-1; default 3)
//!
//! --serve ADDR       run one scenario as a distributed campaign:
//!                    listen on ADDR, lease slices to workers, merge in
//!                    slice order. The printed report and fingerprint
//!                    are byte-identical to a local run of the same
//!                    scenario (any --shards value)
//! --worker ADDR      join the coordinator at ADDR, simulate leased
//!                    slices until the campaign is done
//! --jobs N           slices this worker leases and simulates
//!                    concurrently (default 1; worker mode only).
//!                    Results are byte-identical for every value
//! --lease-secs N     coordinator lease timeout in seconds (default
//!                    30; serve mode only, must be at least 1): a
//!                    lease not refreshed by heartbeat or result
//!                    within this span is re-issued to the next
//!                    asking worker
//!
//! --scale-sweep      grow a synthetic sparse-mesh topology from 30
//!                    hosts (doubling) up to --max-hosts and report,
//!                    at each step, simulated events/sec, bytes per
//!                    recorded outcome and the collector's peak open
//!                    pair count — the "find the knee" tool for
//!                    scaling the testbed beyond the paper's 30 hosts
//! --max-hosts N      largest mesh in the sweep (default 3000)
//! --mesh-k K         probe-mesh degree for the sweep (default 6;
//!                    bumped by one at any size where hosts x K is
//!                    odd, since a k-regular graph needs an even
//!                    product)
//! --sweep-secs F     simulated seconds per sweep step (default 10)
//! --dissem MODE      link-state dissemination for the sweep: full
//!                    (snapshot on every probe, the default) or delta
//!                    (sequence-numbered delta LSAs, full refresh
//!                    every 4 probes: 4 x 15 s x 1.2 jitter = 72 s,
//!                    inside the 90 s after which a node stops
//!                    trusting an entry — at 16, half of all route
//!                    look-ups met an expired one) — the `lsa_B/s`
//!                    column shows what each mode pays in
//!                    dissemination bytes per simulated second
//! --slice-mins F     override the scenario's slice width (minutes).
//!                    Applies to --serve and plain --scenario runs
//!                    alike; both sides of a fingerprint comparison
//!                    must use the same value, since the slice plan
//!                    shapes the RNG universes
//! ```
//!
//! Output shows measured values next to the published ones. Absolute
//! agreement is not the goal (the substrate is a calibrated simulator,
//! not the 2003 Internet); the orderings and magnitudes are.

use analysis::{render_table5, render_table6, render_table7, scenario_stamp, Table5Row, Table7Row};
use mpath_bench::paper;
use mpath_bench::{fec_sweep, FecSweepConfig};
use mpath_core::model::DesignModel;
use mpath_core::{
    report, serve_campaign, CampaignJob, ExperimentOutput, ScenarioRegistry, ScenarioSpec,
    ServeOptions, WorkerOptions,
};
use netsim::SimDuration;
use std::fs;
use std::path::PathBuf;

struct Args {
    artifact: String,
    artifact_explicit: bool,
    days: Option<f64>,
    seed: u64,
    shards: usize,
    out: PathBuf,
    list_scenarios: bool,
    scenarios: Vec<String>,
    scenario_file: Option<PathBuf>,
    dump_scenario: Option<String>,
    matrix: Vec<String>,
    seeds: usize,
    serve: Option<String>,
    worker: Option<String>,
    jobs: usize,
    lease_secs: Option<u64>,
    slice_mins: Option<f64>,
    scale_sweep: bool,
    max_hosts: usize,
    mesh_k: usize,
    sweep_secs: f64,
    dissem: overlay::DisseminationMode,
}

/// The value of a flag, or a usage error (never an index panic).
fn value_of<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match argv.get(*i) {
        Some(v) => v.as_str(),
        None => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// The value of a numeric flag, or a usage error naming the flag and
/// what it `takes` ("a number", "an integer").
fn number_of<T: std::str::FromStr>(argv: &[String], i: &mut usize, flag: &str, takes: &str) -> T {
    let v = value_of(argv, i, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {takes}, got `{v}`");
        std::process::exit(2);
    })
}

/// The comma-separated names a flag carries, blanks dropped.
fn names_of<'a>(argv: &'a [String], i: &mut usize, flag: &str) -> impl Iterator<Item = String> + 'a {
    value_of(argv, i, flag).split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty())
}

fn parse_args() -> Args {
    let mut args = Args {
        artifact: "all".to_string(),
        artifact_explicit: false,
        days: None,
        seed: 2003,
        shards: 0, // auto: MPATH_SHARDS or 1
        out: PathBuf::from("target/repro_out"),
        list_scenarios: false,
        scenarios: Vec::new(),
        scenario_file: None,
        dump_scenario: None,
        matrix: Vec::new(),
        seeds: 3,
        serve: None,
        worker: None,
        jobs: 1,
        lease_secs: None,
        slice_mins: None,
        scale_sweep: false,
        max_hosts: 3000,
        mesh_k: 6,
        sweep_secs: 10.0,
        dissem: overlay::DisseminationMode::FullSnapshot,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut saw_scenario_flag = false;
    let mut saw_jobs_flag = false;
    let mut saw_matrix_flag = false;
    let mut saw_seeds_flag = false;
    let mut saw_sweep_knob = false;
    let mut saw_seed_flag = false;
    let mut saw_shards_flag = false;
    let mut saw_out_flag = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--days" => {
                args.days = Some(number_of(&argv, &mut i, "--days", "a number"));
            }
            "--seed" => {
                saw_seed_flag = true;
                args.seed = number_of(&argv, &mut i, "--seed", "an integer");
            }
            "--shards" => {
                saw_shards_flag = true;
                args.shards = number_of(&argv, &mut i, "--shards", "an integer");
            }
            "--out" => {
                saw_out_flag = true;
                args.out = PathBuf::from(value_of(&argv, &mut i, "--out"));
            }
            "--list-scenarios" => args.list_scenarios = true,
            "--scenario" => {
                saw_scenario_flag = true;
                args.scenarios.extend(names_of(&argv, &mut i, "--scenario"));
            }
            "--scenario-file" => {
                args.scenario_file = Some(PathBuf::from(value_of(&argv, &mut i, "--scenario-file")));
            }
            "--dump-scenario" => {
                args.dump_scenario = Some(value_of(&argv, &mut i, "--dump-scenario").to_string());
            }
            "--matrix" => {
                saw_matrix_flag = true;
                args.matrix.extend(names_of(&argv, &mut i, "--matrix"));
            }
            "--seeds" => {
                saw_seeds_flag = true;
                args.seeds = number_of(&argv, &mut i, "--seeds", "an integer");
            }
            "--serve" => {
                args.serve = Some(value_of(&argv, &mut i, "--serve").to_string());
            }
            "--worker" => {
                args.worker = Some(value_of(&argv, &mut i, "--worker").to_string());
            }
            "--jobs" => {
                saw_jobs_flag = true;
                args.jobs = number_of(&argv, &mut i, "--jobs", "an integer");
            }
            "--lease-secs" => {
                args.lease_secs = Some(number_of(&argv, &mut i, "--lease-secs", "an integer"));
            }
            "--slice-mins" => {
                args.slice_mins = Some(number_of(&argv, &mut i, "--slice-mins", "a number"));
            }
            "--scale-sweep" => args.scale_sweep = true,
            "--max-hosts" => {
                saw_sweep_knob = true;
                args.max_hosts = number_of(&argv, &mut i, "--max-hosts", "an integer");
            }
            "--mesh-k" => {
                saw_sweep_knob = true;
                args.mesh_k = number_of(&argv, &mut i, "--mesh-k", "an integer");
            }
            "--sweep-secs" => {
                saw_sweep_knob = true;
                args.sweep_secs = number_of(&argv, &mut i, "--sweep-secs", "a number");
            }
            "--dissem" => {
                saw_sweep_knob = true;
                args.dissem = match value_of(&argv, &mut i, "--dissem") {
                    "full" => overlay::DisseminationMode::FullSnapshot,
                    "delta" => overlay::DisseminationMode::Delta { max_age_probes: 4 },
                    other => {
                        eprintln!("--dissem takes full or delta, got `{other}`");
                        std::process::exit(2);
                    }
                };
            }
            a if !a.starts_with('-') => {
                args.artifact = a.to_string();
                args.artifact_explicit = true;
            }
            a => {
                eprintln!("unknown flag {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if saw_scenario_flag && args.scenarios.is_empty() {
        // `--scenario ,` must not silently fall through to the full
        // artifact pipeline.
        eprintln!("--scenario requires at least one scenario name");
        std::process::exit(2);
    }
    if saw_matrix_flag && args.matrix.is_empty() {
        eprintln!("--matrix requires at least one scenario name");
        std::process::exit(2);
    }
    if args.seeds == 0 || args.seeds > 1_000 {
        eprintln!("--seeds must be in 1..=1000, got {}", args.seeds);
        std::process::exit(2);
    }
    if saw_seeds_flag && args.matrix.is_empty() {
        // Every other mode runs exactly one seed; silently ignoring
        // --seeds would let the user believe they swept N of them.
        eprintln!("--seeds only applies to --matrix");
        std::process::exit(2);
    }
    if !args.matrix.is_empty() && args.seed.checked_add(args.seeds as u64 - 1).is_none() {
        // Cells run seeds --seed .. --seed + N - 1; a wrapped seed would
        // label a cell with a seed the user never asked for.
        eprintln!(
            "--seed {} leaves no room for --seeds {} (cells count up from --seed)",
            args.seed, args.seeds
        );
        std::process::exit(2);
    }
    if saw_sweep_knob && !args.scale_sweep {
        // Same policy as --seeds: a knob that silently does nothing
        // would let the user believe it took effect.
        eprintln!("--max-hosts, --mesh-k, --sweep-secs and --dissem only apply to --scale-sweep");
        std::process::exit(2);
    }
    if args.scale_sweep {
        if args.days.is_some() || saw_shards_flag {
            eprintln!(
                "--days and --shards do not apply to --scale-sweep (it takes --sweep-secs and \
                 runs each step on one thread)"
            );
            std::process::exit(2);
        }
        if args.max_hosts < 30 || args.max_hosts > netsim::MAX_HOSTS {
            eprintln!("--max-hosts must be in 30..={}, got {}", netsim::MAX_HOSTS, args.max_hosts);
            std::process::exit(2);
        }
        if args.mesh_k == 0 || args.mesh_k >= 30 {
            // The sweep starts at 30 hosts, and a k-regular graph needs
            // k < hosts at every step.
            eprintln!("--mesh-k must be in 1..30 (the sweep's smallest mesh), got {}", args.mesh_k);
            std::process::exit(2);
        }
        if !(args.sweep_secs.is_finite() && (1.0..=3_600.0).contains(&args.sweep_secs)) {
            eprintln!("--sweep-secs must be in 1..=3600, got {}", args.sweep_secs);
            std::process::exit(2);
        }
    }
    if let Some(mins) = args.slice_mins {
        if !(mins.is_finite() && mins > 0.0) {
            eprintln!("--slice-mins must be a positive number, got {mins}");
            std::process::exit(2);
        }
        if args.serve.is_none() && args.scenarios.is_empty() && args.scenario_file.is_none() {
            // The override shapes the slice plan; outside scenario or
            // serve mode it would be silently ignored.
            eprintln!("--slice-mins only applies to --serve, --scenario, or --scenario-file");
            std::process::exit(2);
        }
    }
    if args.worker.is_some()
        && (!args.scenarios.is_empty()
            || args.scenario_file.is_some()
            || args.days.is_some()
            || args.slice_mins.is_some()
            || saw_seed_flag
            || saw_shards_flag)
    {
        // A worker takes the whole campaign definition from the
        // coordinator's Job message; local overrides would be ignored.
        eprintln!(
            "--worker takes the campaign from the coordinator; drop the scenario flags, \
             --seed and --shards (a worker's width is --jobs)"
        );
        std::process::exit(2);
    }
    if saw_jobs_flag {
        if args.worker.is_none() {
            // The flag is per-worker thread-pool width; everywhere else
            // it would be silently ignored (local runs shard with
            // --shards).
            eprintln!("--jobs only applies to --worker (local runs take --shards)");
            std::process::exit(2);
        }
        if args.jobs == 0 || args.jobs > 512 {
            eprintln!("--jobs must be in 1..=512, got {}", args.jobs);
            std::process::exit(2);
        }
    }
    if let Some(secs) = args.lease_secs {
        if args.serve.is_none() {
            eprintln!("--lease-secs only applies to --serve");
            std::process::exit(2);
        }
        if secs == 0 {
            // A zero timeout would re-lease every slice on every Ready,
            // thrashing the campaign forever.
            eprintln!("--lease-secs must be at least 1, got 0");
            std::process::exit(2);
        }
    }
    if args.serve.is_some() {
        let sources = usize::from(!args.scenarios.is_empty()) + usize::from(args.scenario_file.is_some());
        if sources != 1 || args.scenarios.len() > 1 {
            eprintln!("--serve needs exactly one campaign: --scenario NAME or --scenario-file PATH");
            std::process::exit(2);
        }
    }
    // Exactly one mode: a fixed precedence order would silently drop
    // half of a conflicting request. (`--serve` is the mode; its
    // scenario source rides along and is checked above.)
    let serving = args.serve.is_some();
    let modes = [
        args.artifact_explicit,
        args.list_scenarios,
        !serving && !args.scenarios.is_empty(),
        !serving && args.scenario_file.is_some(),
        args.dump_scenario.is_some(),
        !args.matrix.is_empty(),
        serving,
        args.worker.is_some(),
        args.scale_sweep,
    ];
    if modes.iter().filter(|m| **m).count() > 1 {
        eprintln!(
            "pick one mode: ARTIFACT, --list-scenarios, --scenario, --scenario-file, \
             --dump-scenario, --matrix, --serve, --worker, or --scale-sweep"
        );
        std::process::exit(2);
    }
    if saw_out_flag && modes[1..].contains(&true) {
        // Every mode but ARTIFACT (`modes[0]`) prints and writes no
        // file; there --out would be silently ignored.
        eprintln!("--out only applies to ARTIFACT runs (it is where the figure CSVs go)");
        std::process::exit(2);
    }
    args
}

// ------------------------------------------------------------ scenarios

fn do_list_scenarios(registry: &ScenarioRegistry) {
    println!("{} registered scenarios:\n", registry.len());
    println!("{:<20} {:>5} {:>6} {:>8} {:>5}  summary", "name", "hosts", "days", "methods", "rt");
    for spec in registry.iter() {
        println!(
            "{:<20} {:>5} {:>6.1} {:>8} {:>5}  {}",
            spec.name,
            spec.topology.hosts(),
            spec.days,
            spec.methods().total(),
            if spec.round_trip { "yes" } else { "no" },
            spec.summary
        );
    }
    println!("\nrun one with:  repro --scenario NAME [--days F] [--seed N] [--shards N]");
    println!("write your own: repro --dump-scenario NAME > my.json && repro --scenario-file my.json");
}

fn do_dump_scenario(registry: &ScenarioRegistry, name: &str) {
    let Some(spec) = registry.get(name) else {
        eprintln!("unknown scenario `{name}`; try --list-scenarios");
        std::process::exit(2);
    };
    println!("{}", serde_json::to_string(spec).expect("specs always serialize"));
}

fn load_scenario_file(path: &PathBuf) -> ScenarioSpec {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    let spec = match serde_json::from_str::<ScenarioSpec>(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{} is not a valid scenario spec: {e}", path.display());
            std::process::exit(2);
        }
    };
    if let Err(e) = spec.validate() {
        eprintln!("{} is not a valid scenario spec: {e}", path.display());
        std::process::exit(2);
    }
    spec
}

/// Rejects a `--days` override that outlives the scenario's scripted
/// schedules. Checked *before* any scenario in a sweep runs, so a bad
/// override cannot abort a half-finished sweep.
fn check_days_within_horizon(spec: &ScenarioSpec, args: &Args) {
    if let Some(d) = args.days {
        if d.is_nan() || d <= 0.0 {
            // A non-positive (or NaN) override would clamp to a
            // zero-length campaign and print an empty stamped report.
            eprintln!("--days must be positive, got {d}");
            std::process::exit(2);
        }
        if d > spec.horizon_days {
            // The impairment and weather schedules only cover the
            // horizon; running past it would dilute the scenario while
            // still stamping its name on the report.
            eprintln!(
                "--days {d} exceeds scenario `{}`'s horizon of {} day(s); raise `days` and \
                 `horizon_days` in a scenario file instead",
                spec.name, spec.horizon_days
            );
            std::process::exit(2);
        }
    }
}

/// Runs one scenario and prints its stamped summary table, counters and
/// fingerprint. The fingerprint line is the byte-identity witness: it is
/// invariant under `--shards`.
///
/// Unlike the artifact pipeline (fixed paper row order via
/// `report::table5`/`table7`), scenario mode lists *every* measured
/// method in registry order — a custom spec may carry any method set,
/// and the paper renderers would silently drop the rows they don't
/// know.
/// The campaign a scenario run (local or distributed) pins down:
/// `--days` scales the run; without it the spec's own campaign length
/// runs in full. `--slice-mins` overrides the slice width on *both*
/// paths, so a distributed run and its local fingerprint witness share
/// one slice plan.
fn campaign_job(spec: &ScenarioSpec, args: &Args) -> CampaignJob {
    let duration = args
        .days
        .map(|d| SimDuration::from_secs_f64(d * 86_400.0))
        .unwrap_or_else(|| spec.paper_duration());
    let mut job = CampaignJob::new(spec.clone(), args.seed, duration);
    if let Some(mins) = args.slice_mins {
        job.slice_width_us = SimDuration::from_secs_f64(mins * 60.0).as_micros();
    }
    job
}

/// Runs the campaign as the distributed coordinator and returns the
/// merged output (byte-identical to the local path below).
fn serve_campaign_mode(addr: &str, job: CampaignJob, args: &Args) -> ExperimentOutput {
    let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        std::process::exit(2);
    });
    let local = listener.local_addr().expect("bound listener has an address");
    eprintln!(
        "[repro] coordinator on {local}: {} slice(s); join with  repro --worker {local}",
        job.plan().len()
    );
    let mut opts = ServeOptions::default();
    if let Some(secs) = args.lease_secs {
        opts.lease_timeout = std::time::Duration::from_secs(secs);
    }
    match serve_campaign(listener, job, opts) {
        Ok(report) => {
            eprintln!(
                "[repro] campaign served: {} slice(s) over {} connection(s), {} re-lease(s), \
                 {} duplicate(s) ignored",
                report.slices, report.connections, report.releases, report.duplicates
            );
            report.output
        }
        Err(e) => {
            eprintln!("coordinator failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_scenario(spec: &ScenarioSpec, args: &Args) {
    // The caller has already checked `--days` against the spec horizon
    // (see `check_days_within_horizon`).
    let job = campaign_job(spec, args);
    let out = if let Some(addr) = &args.serve {
        serve_campaign_mode(addr, job, args)
    } else {
        eprintln!("[repro] running scenario `{}` for {} simulated...", spec.name, job.duration());
        let mut cfg = job.config();
        cfg.shards = args.shards;
        mpath_core::run_experiment(job.spec.topology(job.seed), cfg)
    };
    let stamp = scenario_stamp(&out.scenario, out.spec_digest);
    if spec.round_trip {
        // Round-trip scenarios measure RTTs; use the Table 7 layout so
        // the latency column is labelled correctly.
        let rows: Vec<Table7Row> = out
            .names
            .iter()
            .map(|name| Table7Row {
                name: name.clone(),
                summary: out.summary(name).expect("every named method has a summary"),
            })
            .collect();
        println!("{stamp}\n{}", render_table7(&rows));
    } else {
        let rows: Vec<Table5Row> = out
            .names
            .iter()
            .map(|name| Table5Row {
                name: name.clone(),
                summary: out.summary(name).expect("every named method has a summary"),
            })
            .collect();
        println!("{}", render_table5(&stamp, &rows));
    }
    // A set with 3- or 4-redundant probes carries more than the pair
    // columns: print the best-of-first-j loss curve (j = 1..k) — the
    // marginal value of each extra copy.
    let depth = out.loss.depth();
    if depth > 2 {
        let mut header = format!("{:<16}", "best-of-first-j");
        for j in 1..=depth {
            header.push_str(&format!(" {:>7}", format!("L({j})")));
        }
        println!("{header}");
        for (idx, name) in out.names.iter().enumerate() {
            let mut row = format!("{name:<16}");
            let curve = out.loss.best_of_first_pct(idx as u8);
            for j in 1..=depth {
                let v = mpath_core::matrix::fmt_point(mpath_core::matrix::best_of_first_point(&curve, j));
                row.push_str(&format!(" {v:>7}"));
            }
            println!("{row}");
        }
        println!();
    }
    println!(
        "{} hosts, {} simulated, seed {}: {} legs, {} probes, {} discarded, net loss {:.3}%",
        out.n,
        out.duration,
        args.seed,
        out.measure_legs,
        out.overlay_probes,
        out.discarded(),
        100.0 * out.net.loss_rate()
    );
    println!("fingerprint: {:#018x}\n", out.fingerprint());
}

/// Runs the scenarios × seeds matrix and prints the comparative report.
/// Cells use seeds `--seed .. --seed + N - 1`; every cell's fingerprint
/// is shard-invariant, so the whole report is too.
fn run_matrix_mode(registry: &ScenarioRegistry, args: &Args) {
    let specs: Vec<ScenarioSpec> = args
        .matrix
        .iter()
        .map(|name| {
            let spec = registry.get(name).unwrap_or_else(|| {
                eprintln!("unknown scenario `{name}`; try --list-scenarios");
                std::process::exit(2);
            });
            check_days_within_horizon(spec, args);
            spec.clone()
        })
        .collect();
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|k| args.seed + k).collect();
    let duration = args.days.map(|d| SimDuration::from_secs_f64(d * 86_400.0));
    eprintln!(
        "[repro] matrix: {} scenario(s) x {} seed(s) = {} cells...",
        specs.len(),
        seeds.len(),
        specs.len() * seeds.len()
    );
    let m = mpath_core::run_matrix(&specs, &seeds, duration, args.shards);
    print!("{}", mpath_core::render_matrix(&m));
}

// ------------------------------------------------------------ scale sweep

/// The sweep's mesh sizes: 30 doubling up to (and always including)
/// `max_hosts`.
fn sweep_sizes(max_hosts: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut s = 30;
    while s < max_hosts {
        sizes.push(s);
        s *= 2;
    }
    sizes.push(max_hosts);
    sizes
}

/// Grows a sparse-mesh synthetic topology and measures simulator
/// throughput at each size — the tool that finds the knee before a real
/// deployment does. Each step is an ordinary single-slice campaign over
/// a deterministic `sparse_mesh(n, k, seed)` probe mesh, with one
/// direct-probing method so the per-host columns (`accum_B/host`,
/// `table_B/host`) read the mesh degree, not the method count: both are
/// flat in the host count at fixed `k`, and what still grows with
/// hosts² is the topology's per-pair draws (8 B per ordered pair) and
/// the network's zero-initialised slot table.
///
/// The sweep deliberately bypasses `ScenarioSpec` and its 1000-host
/// validation cap: the cap protects scenario authors from accidentally
/// quadratic runs, while this mode exists precisely to measure them.
fn do_scale_sweep(args: &Args) {
    use mpath_core::method::{Method, RouteTag};
    use mpath_core::MethodSet;

    let sizes = sweep_sizes(args.max_hosts);
    let duration = SimDuration::from_secs_f64(args.sweep_secs);
    eprintln!(
        "[repro] scale sweep: {} mesh size(s), {} simulated each, mesh degree {}, \
         dissemination {} (seed {})",
        sizes.len(),
        duration,
        args.mesh_k,
        args.dissem.label(),
        args.seed
    );
    // `table_B/host` stays the LAST column: CI's awk checks address the
    // earlier columns positionally ($3 events/sec, $4 accum_B/host,
    // $8 lsa_B/s).
    println!(
        "{:>7} {:>7} {:>12} {:>14} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "hosts",
        "mesh_k",
        "events/sec",
        "accum_B/host",
        "peak_open",
        "resolved",
        "wall_s",
        "lsa_B/s",
        "table_B/host"
    );
    for &n in &sizes {
        // A k-regular graph needs hosts x k even; odd x odd sizes take
        // one extra neighbor rather than failing mid-sweep.
        let k = if (n * args.mesh_k) % 2 == 1 { args.mesh_k + 1 } else { args.mesh_k };
        let mut params = netsim::Topology::synthetic_params(0.02);
        params.horizon = duration + SimDuration::from_mins(2);
        let mut topo = netsim::Topology::synthetic_with(n, 0.02, params, args.seed);
        topo.set_probe_mesh(netsim::sparse_mesh(n, k, args.seed));
        let mut cfg = mpath_core::ExperimentConfig::new(MethodSet {
            methods: vec![Method::single("direct", RouteTag::Direct)],
            views: Vec::new(),
        });
        cfg.duration = duration;
        cfg.slice_width = duration; // one slice: timing without merge noise
        cfg.seed = args.seed;
        cfg.shards = 1;
        cfg.flat_load = true;
        // Simulated path delays are bounded at a few seconds, so a short
        // receive window keeps the same outcomes while reporting a
        // steady-state occupancy instead of "everything ever sent".
        cfg.collector.receive_window = SimDuration::from_secs(5);
        // Sweep every simulated second (default: 10 s) so expired pairs
        // leave the pending set promptly and `peak_open` reports the
        // steady-state watermark, not "every pair the run ever opened".
        cfg.sweep_interval = SimDuration::from_secs(1);
        cfg.dissemination = args.dissem;
        cfg.scenario = format!("scale-sweep-{n}");
        let t0 = std::time::Instant::now();
        let (out, diag) = mpath_core::shard::run_sharded(topo, cfg);
        let wall = t0.elapsed().as_secs_f64();
        // One discrete event per underlay send plus one per delivery;
        // timers and sweeps ride along free-ish.
        let events = out.net.sent + out.net.delivered;
        println!(
            "{:>7} {:>7} {:>12.0} {:>14.0} {:>10} {:>10} {:>8.2} {:>12.0} {:>12.0}",
            n,
            k,
            events as f64 / wall.max(1e-9),
            (out.loss.approx_bytes() + out.win20.approx_bytes() + out.win60.approx_bytes()) as f64
                / n as f64,
            out.collector.peak_pending,
            out.collector.resolved,
            wall,
            out.net.lsa_bytes as f64 / args.sweep_secs,
            diag.peak_table_bytes as f64 / n as f64
        );
    }
    println!(
        "\nevents = underlay sends + deliveries; accum_B/host = heap bytes of the loss and the \
         two window accumulators (a row per measured pair) averaged over hosts; \
         peak_open = collector high-water mark of open pairs; \
         lsa_B/s = dissemination payload bytes per simulated second ({} mode); \
         table_B/host = peak link-state table heap bytes averaged over hosts",
        args.dissem.label()
    );
}

// ------------------------------------------------------------- artifacts

/// The paper's three campaigns: scenario name, log label, and the mask
/// folded into the master seed so the datasets draw apart.
const DATASETS: [(&str, &str, u64); 3] =
    [("ron2003", "RON2003", 0), ("ron-narrow", "RONnarrow", 0x2002), ("ron-wide", "RONwide", 0x2002_2002)];

/// Lazily-run paper campaigns so `repro table5` does not pay for RONwide.
struct Lab {
    days: f64,
    seed: u64,
    shards: usize,
    registry: ScenarioRegistry,
    /// One slot per `DATASETS` entry, filled on first use.
    outputs: [Option<ExperimentOutput>; 3],
}

impl Lab {
    fn slot(which: &str) -> usize {
        DATASETS.iter().position(|d| d.0 == which).expect("a paper dataset")
    }

    /// Runs the campaign `which` unless it already ran.
    fn run(&mut self, which: &str) -> &ExperimentOutput {
        let slot = Self::slot(which);
        if self.outputs[slot].is_none() {
            let (name, label, mask) = DATASETS[slot];
            let spec = self.registry.get(name).expect("paper scenarios are built in");
            // Scale each campaign's paper duration by days/14 so relative
            // coverage matches the paper's mix.
            let scaled = (self.days * spec.days / 14.0).max(0.02);
            let d = SimDuration::from_secs_f64(scaled * 86_400.0);
            eprintln!("[repro] running {label} for {d} simulated...");
            self.outputs[slot] = Some(spec.run_sharded(self.seed ^ mask, Some(d), self.shards));
        }
        self.get(which)
    }

    /// A campaign `run` has already produced.
    fn get(&self, which: &str) -> &ExperimentOutput {
        self.outputs[Self::slot(which)].as_ref().expect("run() before get()")
    }
}

fn fmt_paper(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else {
        format!("{v:.2}")
    }
}

fn print_paper_rows(title: &str, rows: &[paper::PaperRow]) {
    println!("--- paper reference: {title}");
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "Type", "1lp", "2lp", "totlp", "clp", "lat(ms)"
    );
    for (name, lp1, lp2, totlp, clp, lat) in rows {
        println!(
            "{:<14} {:>7} {:>7} {:>7} {:>7} {:>9}",
            name,
            fmt_paper(*lp1),
            fmt_paper(*lp2),
            fmt_paper(*totlp),
            fmt_paper(*clp),
            fmt_paper(*lat)
        );
    }
    println!();
}

fn measured_title(kind: &str, out: &ExperimentOutput) -> String {
    format!("--- measured: {kind} {}", scenario_stamp(&out.scenario, out.spec_digest))
}

fn do_table5(lab: &mut Lab) {
    println!("==== Table 5: one-way loss percentages ====\n");
    let r3 = lab.run("ron2003");
    println!("{}", render_table5(&measured_title("2003", r3), &report::table5(r3)));
    print_paper_rows("2003", paper::TABLE5_2003);
    let r2 = lab.run("ron-narrow");
    println!("{}", render_table5(&measured_title("2002", r2), &report::table5(r2)));
    print_paper_rows("2002", paper::TABLE5_2002);
}

fn do_table6(lab: &mut Lab) {
    println!("==== Table 6: hour-long high loss periods ====\n");
    let r3 = lab.run("ron2003");
    println!("{}\n{}", measured_title("2003", r3), render_table6(&report::table6(r3)));
    println!("--- paper reference (14 days, 30 hosts)");
    println!(
        "{:<8} {:>9} {:>13} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "Loss %", "direct", "direct direct", "dd 10ms", "dd 20ms", "lat", "loss", "direct rand",
        "lat loss"
    );
    for (i, row) in paper::TABLE6.iter().enumerate() {
        print!("{:<8}", format!("> {}", i * 10));
        for v in row {
            print!(" {v:>9}");
        }
        println!();
    }
    println!();
}

fn do_table7(lab: &mut Lab) {
    println!("==== Table 7: expanded 2002 routing schemes (round-trip) ====\n");
    let wide = lab.run("ron-wide");
    println!("{}\n{}", measured_title("2002 wide", wide), render_table7(&report::table7(wide)));
    print_paper_rows("Table 7 (RTT column)", paper::TABLE7);
}

fn write_fig(out_dir: &PathBuf, name: &str, fig: &analysis::Figure) {
    fs::create_dir_all(out_dir).expect("create output dir");
    let path = out_dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create figure csv");
    fig.write_csv(&mut f).expect("write figure csv");
    println!("[repro] wrote {}", path.display());
}

fn do_fig2(lab: &mut Lab, out: &PathBuf) {
    println!("==== Figure 2: CDF of long-term per-path loss rates ====\n");
    lab.run("ron2003");
    lab.run("ron-narrow");
    let fig = report::fig2(&[("2003 dataset", lab.get("ron2003")), ("2002 dataset", lab.get("ron-narrow"))]);
    println!("{}", fig.render_text(&[0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]));
    println!("paper: ~80% of paths under 1% loss; tail reaching ~6% (Korea↔DSL)\n");
    write_fig(out, "fig2", &fig);
}

fn do_fig3(lab: &mut Lab, out: &PathBuf) {
    println!("==== Figure 3: CDF of 20-minute loss rates ====\n");
    let fig = report::fig3(lab.run("ron2003"));
    println!("{}", fig.render_text(&[0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]));
    println!("paper: >95% of samples at 0% loss; reactive kills the high tail\n");
    write_fig(out, "fig3", &fig);
}

fn do_fig4(lab: &mut Lab, out: &PathBuf) {
    println!("==== Figure 4: CDF of per-path conditional loss probabilities ====\n");
    let fig = report::fig4(lab.run("ron2003"));
    println!("{}", fig.render_text(&[0.0, 20.0, 40.0, 60.0, 80.0, 100.0]));
    println!("paper: back-to-back CLP ~72% (half the paths at 100%); random-hop lower\n");
    write_fig(out, "fig4", &fig);
}

fn do_fig5(lab: &mut Lab, out: &PathBuf) {
    println!("==== Figure 5: CDF of one-way latencies (paths > 50 ms) ====\n");
    let fig = report::fig5(lab.run("ron2003"));
    println!("{}", fig.render_text(&[50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0]));
    println!("paper: lat/lat-loss shift the curve left; Cornell's 1 s episode in the tail\n");
    write_fig(out, "fig5", &fig);
}

fn do_fig6(out: &PathBuf) {
    println!("==== Figure 6: when to use reactive or redundant routing ====\n");
    let model = DesignModel::ron2003_defaults();
    let fig = report::fig6(&model, 64_000.0);
    println!("{}", fig.render_text(&[0.0, 0.1, 0.2, 0.3, 0.38, 0.5, 0.6]));
    println!(
        "model: reactive limit {:.2}, 2-copy redundant limit {:.2} (paper: ~40% of losses avoidable)\n",
        model.reactive_limit(),
        model.redundant_limit(2)
    );
    write_fig(out, "fig6", &fig);
}

fn do_fec() {
    println!("==== §5.2: FEC vs. burst correlation (5+1 code, 50 pkt/s) ====\n");
    let cfg = FecSweepConfig::default();
    let pts = fec_sweep(&cfg, &[1, 2, 4, 8, 16, 25, 32]);
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "depth", "raw_loss", "residual", "spread(ms)", "delay(ms)"
    );
    for p in &pts {
        println!(
            "{:>6} {:>10.4} {:>10.5} {:>12.0} {:>12.0}",
            p.depth, p.raw_loss, p.residual_loss, p.spread_ms, p.added_delay_ms
        );
    }
    println!("\npaper: spreading must reach ~500 ms before burst losses decorrelate —");
    println!("an unacceptable delay for interactive flows (§5.2)\n");
}

fn do_headline(lab: &mut Lab) {
    println!("==== §4.2 headline statistics ====\n");
    lab.run("ron2003");
    lab.run("ron-narrow");
    let r3 = lab.get("ron2003");
    let r2 = lab.get("ron-narrow");
    let d3 = r3.summary("direct*").unwrap();
    let d2 = r2.summary("direct*").unwrap();
    println!(
        "overall direct loss 2003: measured {:.2}%  (paper {:.2}%)",
        d3.lp1,
        paper::headline::DIRECT_LOSS_2003
    );
    println!(
        "overall direct loss 2002: measured {:.2}%  (paper {:.2}%)",
        d2.lp1,
        paper::headline::DIRECT_LOSS_2002
    );
    let direct_idx = report::resolve(r3, "direct").unwrap().0;
    let losses = r3.loss.per_path_loss(direct_idx);
    let under1 = losses.iter().filter(|&&(_, _, l)| l < 0.01).count() as f64
        / losses.len().max(1) as f64;
    println!(
        "paths under 1% long-term loss: measured {:.0}%  (paper ~{:.0}%)",
        under1 * 100.0,
        paper::headline::PATHS_UNDER_1PCT * 100.0
    );
    let counts = r3.win60.threshold_counts(direct_idx);
    println!(
        "hour-windows with loss: {} of {} (paper: 8817 of ~292k; scales with run length)",
        counts[0],
        r3.win60.window_count(direct_idx)
    );
    println!(
        "probe traffic: {} overlay probes, {} measurement legs, {} discarded pairs",
        r3.overlay_probes, r3.measure_legs, r3.discarded()
    );
    for (tag, name) in ["direct", "rand", "lat", "loss"].iter().enumerate() {
        let (total, via) = r3.route_usage[tag];
        if total > 0 {
            println!(
                "route usage {name}: {via} of {total} legs took an intermediate ({:.2}%)",
                100.0 * via as f64 / total as f64
            );
        }
    }
    println!();
}

fn main() {
    let args = parse_args();
    let registry = ScenarioRegistry::builtin();

    if let Some(addr) = &args.worker {
        eprintln!(
            "[repro] worker joining coordinator at {addr} ({} concurrent slice(s))...",
            args.jobs
        );
        let opts = WorkerOptions { jobs: args.jobs, ..WorkerOptions::default() };
        match mpath_core::run_worker(addr.clone(), opts) {
            Ok(r) => {
                eprintln!(
                    "[repro] worker done: {} slice(s) simulated{}",
                    r.slices_run,
                    if r.coordinator_closed { " (coordinator closed; campaign finished)" } else { "" }
                );
            }
            Err(e) => {
                eprintln!("worker failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.scale_sweep {
        do_scale_sweep(&args);
        return;
    }
    if args.list_scenarios {
        do_list_scenarios(&registry);
        return;
    }
    if let Some(name) = &args.dump_scenario {
        do_dump_scenario(&registry, name);
        return;
    }
    if let Some(path) = &args.scenario_file {
        let spec = load_scenario_file(path);
        check_days_within_horizon(&spec, &args);
        println!(
            "mpath repro — scenario file {} (seed {})\n",
            path.display(),
            args.seed
        );
        run_scenario(&spec, &args);
        return;
    }
    if !args.matrix.is_empty() {
        run_matrix_mode(&registry, &args);
        return;
    }
    if !args.scenarios.is_empty() {
        // Resolve every name and check `--days` up front: a typo or bad
        // override late in the sweep must not discard minutes of
        // completed runs.
        let specs: Vec<&ScenarioSpec> = args
            .scenarios
            .iter()
            .map(|name| {
                let spec = registry.get(name).unwrap_or_else(|| {
                    eprintln!("unknown scenario `{name}`; try --list-scenarios");
                    std::process::exit(2);
                });
                check_days_within_horizon(spec, &args);
                spec
            })
            .collect();
        println!("mpath repro — {} scenario(s), seed {}\n", specs.len(), args.seed);
        for spec in specs {
            run_scenario(spec, &args);
        }
        return;
    }

    let days = args.days.unwrap_or(1.0);
    if days.is_nan() || days <= 0.0 || days > 14.0 {
        // The dataset campaigns are scaled fractions of the paper's 14
        // days; beyond that the scripted weather schedules run out.
        eprintln!("--days must be in (0, 14] for the artifact pipeline, got {days}");
        std::process::exit(2);
    }
    let mut lab = Lab {
        days,
        seed: args.seed,
        shards: args.shards,
        registry,
        outputs: [None, None, None],
    };
    println!(
        "mpath repro — datasets scaled to {} day(s) of the paper's 14 (seed {})\n",
        lab.days, args.seed
    );
    match args.artifact.as_str() {
        "table5" => do_table5(&mut lab),
        "table6" => do_table6(&mut lab),
        "table7" => do_table7(&mut lab),
        "fig2" => do_fig2(&mut lab, &args.out),
        "fig3" => do_fig3(&mut lab, &args.out),
        "fig4" => do_fig4(&mut lab, &args.out),
        "fig5" => do_fig5(&mut lab, &args.out),
        "fig6" => do_fig6(&args.out),
        "fec" => do_fec(),
        "headline" => do_headline(&mut lab),
        "all" => {
            do_headline(&mut lab);
            do_table5(&mut lab);
            do_table6(&mut lab);
            do_table7(&mut lab);
            do_fig2(&mut lab, &args.out);
            do_fig3(&mut lab, &args.out);
            do_fig4(&mut lab, &args.out);
            do_fig5(&mut lab, &args.out);
            do_fig6(&args.out);
            do_fec();
        }
        other => {
            eprintln!("unknown artifact {other}");
            std::process::exit(2);
        }
    }
}
