//! `repro`'s usage contract, from outside the process.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

/// Host ids are `u16`: a sweep past `netsim::MAX_HOSTS` must be a flag
/// error, not a run on aliased host ids.
#[test]
fn scale_sweep_refuses_host_counts_past_u16() {
    let out = repro(&["--scale-sweep", "--max-hosts", "70000"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-hosts") && stderr.contains("65535"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may be simulated first");
}

/// Every bad invocation is one line on stderr — naming the flag where a
/// flag is at fault — and exit 2, before anything is simulated; never a
/// panic with a backtrace.
#[test]
fn bad_invocations_are_one_line_usage_errors() {
    const MAX_SEED: &str = "18446744073709551615";
    let cases: &[(&[&str], &str)] = &[
        (&["--days", "abc"], "--days takes a number, got `abc`"),
        (&["--seed", "-1"], "--seed takes an integer, got `-1`"),
        (&["--shards", "two"], "--shards takes an integer, got `two`"),
        (&["--matrix", "ron-narrow", "--seeds", "x"], "--seeds takes an integer, got `x`"),
        (&["--worker", "127.0.0.1:1", "--jobs", "1.5"], "--jobs takes an integer, got `1.5`"),
        (&["--lease-secs", ""], "--lease-secs takes an integer, got ``"),
        (&["--slice-mins", "7m"], "--slice-mins takes a number, got `7m`"),
        (&["--scale-sweep", "--max-hosts", "1e3"], "--max-hosts takes an integer, got `1e3`"),
        (&["--scale-sweep", "--mesh-k", "-6"], "--mesh-k takes an integer, got `-6`"),
        (&["--scale-sweep", "--sweep-secs", "ten"], "--sweep-secs takes a number, got `ten`"),
        (&["--scale-sweep", "--dissem", "gossip"], "--dissem takes full or delta, got `gossip`"),
        (&["--scale-sweep", "--days", "3"], "--days and --shards do not apply to --scale-sweep"),
        (&["--scale-sweep", "--shards", "8"], "--days and --shards do not apply to --scale-sweep"),
        (&["--worker", "127.0.0.1:1", "--seed", "9"], "drop the scenario flags, --seed and --shards"),
        (&["--worker", "127.0.0.1:1", "--shards", "3"], "drop the scenario flags, --seed and --shards"),
        (&["table5", "--days"], "--days requires a value"),
        (&["--seeds", "2"], "--seeds only applies to --matrix"),
        (&["--matrix", "ron-narrow", "--seed", MAX_SEED, "--seeds", "2"], "leaves no room for --seeds 2"),
        (&["--jobs", "2"], "--jobs only applies to --worker"),
        (&["--scenario", "ron-narrow", "--out", "x"], "--out only applies to ARTIFACT runs"),
        (&["--max-hosts", "60"], "--max-hosts, --mesh-k, --sweep-secs and --dissem only apply to"),
        (&["--scale-sweep", "--list-scenarios"], "pick one mode"),
        (&["--scenario", ","], "--scenario requires at least one scenario name"),
        (&["--serve", "127.0.0.1:0"], "--serve needs exactly one campaign"),
        (&["--frobnicate"], "unknown flag --frobnicate"),
        (&["--scenario", "ron-narow"], "unknown scenario `ron-narow`"),
        (&["--scenario", "ron-narrow", "--days", "0"], "--days must be positive, got 0"),
        (&["--scenario", "ron-narrow", "--days", "99"], "--days 99 exceeds scenario `ron-narrow`'s horizon"),
    ];
    for (args, needle) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: want `{needle}`, stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run first");
    }
}

#[test]
fn list_scenarios_prints_the_eight_builtins() {
    let out = repro(&["--list-scenarios"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("8 registered scenarios:"), "stdout: {stdout}");
    for name in [
        "ron2003",
        "ron-narrow",
        "ron-wide",
        "correlated-outages",
        "load-waves",
        "asymmetric-paths",
        "flash-crowd",
        "sparse-mesh",
    ] {
        let listed = stdout.lines().any(|l| l.split_whitespace().next() == Some(name));
        assert!(listed, "{name} missing: {stdout}");
    }
}

/// Under the sweep's 5 s receive window and 1 s collector sweep every
/// mesh size must still move events, resolve pairs and ship link state.
#[test]
fn scale_sweep_resolves_pairs_at_every_size() {
    let out = repro(&["--scale-sweep", "--max-hosts", "60", "--sweep-secs", "20"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<Vec<f64>> = stdout
        .lines()
        .map(|l| l.split_whitespace().map_while(|f| f.parse().ok()).collect::<Vec<f64>>())
        .filter(|r| r.len() == 9)
        .collect();
    assert_eq!(rows.iter().map(|r| r[0]).collect::<Vec<_>>(), [30.0, 60.0], "stdout: {stdout}");
    for r in &rows {
        // Columns: hosts mesh_k events/sec accum_B/host peak_open resolved wall_s lsa_B/s table_B/host.
        assert!(r[2] > 0.0 && r[5] > 0.0 && r[7] > 0.0, "events/sec, resolved, lsa_B/s: {r:?}");
    }
}
