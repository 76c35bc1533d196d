//! The determinism rules are clippy configuration: these tests pin the
//! ban lists, so deleting a crate's `clippy.toml` or one of its bans
//! fails `cargo test` and not only CI's clippy step.
//!
//! Clippy reads the nearest `clippy.toml` above a crate's manifest and
//! does not merge it with the root one, so every deterministic crate
//! repeats the workspace-wide `partial_cmp` ban, and no other crate may
//! carry a file of its own (it would shadow that ban).

use std::path::Path;

/// Crates whose code runs inside a simulated campaign or merges its
/// results.
const DETERMINISTIC: [&str; 6] = ["netsim", "trace", "analysis", "overlay", "fec", "core"];

const PARTIAL_CMP: &str = "core::cmp::PartialOrd::partial_cmp";

/// The `path` entries of the `disallowed-types` and `disallowed-methods`
/// arrays in one `clippy.toml`, in file order.
fn bans(rel: &str) -> (Vec<String>, Vec<String>) {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let (mut types, mut methods) = (Vec::new(), Vec::new());
    let mut list = None;
    for line in text.lines().map(str::trim) {
        if line.starts_with("disallowed-types") {
            list = Some(&mut types);
        } else if line.starts_with("disallowed-methods") {
            list = Some(&mut methods);
        }
        if let Some((_, rest)) = line.split_once("path = \"") {
            let path = rest.split('"').next().unwrap().to_string();
            list.as_mut().unwrap_or_else(|| panic!("{rel}: `{path}` outside a ban list")).push(path);
        }
    }
    (types, methods)
}

#[test]
fn the_root_file_bans_partial_cmp_alone() {
    assert_eq!(bans("clippy.toml"), (vec![], vec![PARTIAL_CMP.to_string()]));
}

#[test]
fn every_deterministic_crate_bans_hash_collections_clock_reads_and_partial_cmp() {
    for krate in DETERMINISTIC {
        let (types, methods) = bans(&format!("crates/{krate}/clippy.toml"));
        assert_eq!(types, ["std::collections::HashMap", "std::collections::HashSet"], "{krate}");
        assert_eq!(
            methods,
            ["std::time::Instant::now", "std::time::SystemTime::now", PARTIAL_CMP],
            "{krate}"
        );
    }
}

#[test]
fn no_other_crate_shadows_the_root_file() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for entry in std::fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if !DETERMINISTIC.contains(&name.as_str()) {
            assert!(!dir.join("clippy.toml").exists(), "crates/{name}/clippy.toml shadows the root ban");
        }
    }
}
