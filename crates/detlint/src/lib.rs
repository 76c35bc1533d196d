//! `detlint` — workspace determinism linter.
//!
//! The repo's hardest-won invariant is that campaign reports are
//! byte-identical across shard counts, worker fleets, and injected
//! faults. The runtime equivalence suites catch a violation only *after*
//! a golden fingerprint moves; this crate checks the code patterns that
//! break it statically, before anything runs:
//!
//! - [`rules`] — token-level rule families over every workspace source
//!   file: `nondet-iter`, `wall-clock`, `float-total-order`.
//! - [`lexer`] — the hand-rolled token scanner underneath (crates.io /
//!   `syn` is unreachable here; see `vendor/README.md`).
//!
//! (That a wire-shape change rides with its version bump is pinned by
//! the frames themselves, in `tests/wire_bytes.rs`.)
//!
//! Run it with `cargo run -p detlint` (CI gates on it); suppress a
//! finding with `// detlint: allow(<rule>) — <reason>` on the offending
//! line or the line above. The reason is mandatory.

pub mod lexer;
pub mod rules;

use rules::{FileClass, Violation};
use std::path::{Path, PathBuf};

/// Crates whose code must be deterministic: everything that runs inside
/// a simulated campaign or merges its results. `live` and `bench` drive
/// real sockets and wall-clock benchmarks; `core::distrib` coordinates
/// real workers with real lease deadlines — those are allowlisted, as
/// is `detlint` itself (a build tool).
const DETERMINISTIC_CRATES: [&str; 6] = ["netsim", "trace", "analysis", "overlay", "fec", "core"];

/// Files inside deterministic crates that are nevertheless free to read
/// the host clock / use hash collections: the distributed coordinator
/// runs against real TCP peers, not the simulator.
const DETERMINISTIC_EXCEPTIONS: [&str; 1] = ["crates/core/src/distrib.rs"];

/// Classifies a workspace-relative path for rule selection.
pub fn classify(rel: &str) -> FileClass {
    let deterministic = DETERMINISTIC_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")))
        && !DETERMINISTIC_EXCEPTIONS.contains(&rel);
    FileClass { deterministic }
}

/// Collects the `.rs` files detlint scans: workspace crates plus the
/// facade, examples and integration tests. `vendor/` (API stand-ins,
/// not our invariants), `target/`, and detlint's own violation fixtures
/// are excluded.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "examples", "tests"] {
        collect_rs(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        let rel = rel_str(&path, root);
        if rel.starts_with("vendor/")
            || rel.starts_with("target/")
            || rel.starts_with("crates/detlint/tests/fixtures")
        {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_str(path: &Path, root: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Lints the whole workspace: every scanned file through the token
/// rules, and an `unreadable` finding for a file that cannot be read as
/// UTF-8. Violations are sorted by file then line.
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for path in workspace_files(root) {
        let rel = rel_str(&path, root);
        let Ok(src) = std::fs::read_to_string(&path) else {
            out.push(Violation {
                rule: "unreadable",
                file: rel,
                line: 1,
                msg: "unreadable file".into(),
            });
            continue;
        };
        out.extend(rules::lint_source(&rel, &src, classify(&rel)));
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_design() {
        assert!(classify("crates/netsim/src/rng.rs").deterministic);
        assert!(classify("crates/fec/src/rs.rs").deterministic);
        assert!(classify("crates/overlay/tests/proptest_dissem.rs").deterministic);
        assert!(!classify("crates/core/src/distrib.rs").deterministic, "distrib exception");
        assert!(classify("crates/core/src/report.rs").deterministic);
        assert!(!classify("crates/live/src/driver.rs").deterministic);
        assert!(!classify("crates/bench/src/bin/repro.rs").deterministic);
        assert!(!classify("tests/distributed_equivalence.rs").deterministic);
        assert!(!classify("examples/quickstart.rs").deterministic);
        assert!(!classify("crates/detlint/src/rules.rs").deterministic);
    }
}
