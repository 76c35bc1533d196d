//! The detlint gate, as tests: every rule family is proven to catch its
//! seeded fixture violations (right rule, right file, right line), and
//! the real workspace is proven clean. `cargo test` therefore fails for
//! the same reasons `cargo run -p detlint` exits nonzero.

use detlint::rules::{lint_source, FileClass, Violation};
use std::path::{Path, PathBuf};

const DET: FileClass = FileClass { deterministic: true };

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    (name.to_string(), std::fs::read_to_string(&path).unwrap())
}

fn lines_of(violations: &[Violation], rule: &str) -> Vec<u32> {
    violations.iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn nondet_iter_fixture_is_caught() {
    let (name, src) = fixture("nondet_iter.rs");
    let v = lint_source(&name, &src, DET);
    // Line 6 constructs (two mentions, one finding), 11 collects, 17 is
    // *not* covered by the annotation two lines above (allows bind to
    // the next code line — the fn signature), 29 follows a reason-less
    // annotation.
    assert_eq!(lines_of(&v, "nondet-iter"), [6, 11, 17, 29]);
    assert_eq!(lines_of(&v, "bad-annotation"), [27], "reason-less allow is flagged");
    assert!(v.iter().all(|x| x.file == name));
    // The same file in a non-deterministic crate: only the bad
    // annotation remains.
    let free = lint_source(&name, &src, FileClass { deterministic: false });
    assert_eq!(lines_of(&free, "nondet-iter"), [] as [u32; 0]);
}

#[test]
fn wall_clock_fixture_is_caught() {
    let (name, src) = fixture("wall_clock.rs");
    let v = lint_source(&name, &src, DET);
    assert_eq!(lines_of(&v, "wall-clock"), [5, 9, 10]);
    assert_eq!(lines_of(&v, "bad-annotation"), [] as [u32; 0]);
}

#[test]
fn float_order_fixture_is_caught_in_any_crate() {
    let (name, src) = fixture("float_order.rs");
    for det in [true, false] {
        let v = lint_source(&name, &src, FileClass { deterministic: det });
        assert_eq!(lines_of(&v, "float-total-order"), [5, 9, 13], "deterministic={det}");
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn the_workspace_is_clean() {
    let v = detlint::lint_workspace(&workspace_root());
    assert!(
        v.is_empty(),
        "detlint must pass on the workspace; violations:\n{}",
        v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn workspace_walk_excludes_vendor_and_fixtures() {
    let files = detlint::workspace_files(&workspace_root());
    assert!(files.len() > 50, "walk found only {} files", files.len());
    for f in &files {
        let s = f.to_string_lossy();
        assert!(!s.contains("vendor/"), "vendored stand-ins are not our invariants: {s}");
        assert!(!s.contains("fixtures"), "seeded violations must not gate the build: {s}");
    }
}

#[test]
fn an_unreadable_file_is_its_own_finding() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("detlint_unreadable");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/x/src")).unwrap();
    std::fs::write(root.join("crates/x/src/bad.rs"), b"fn f() {}\n// \xff\xfe\n").unwrap();
    let v = detlint::lint_workspace(&root);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!((v[0].rule, v[0].file.as_str(), v[0].line), ("unreadable", "crates/x/src/bad.rs", 1));
}
