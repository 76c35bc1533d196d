//! `repro`'s flag validation, from outside the process.

use std::process::Command;

/// Host ids are `u16`: a sweep past `netsim::MAX_HOSTS` must be a flag
/// error, not a run on aliased host ids.
#[test]
fn scale_sweep_refuses_host_counts_past_u16() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale-sweep", "--max-hosts", "70000"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-hosts") && stderr.contains("65535"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may be simulated first");
}
