//! CLI entry point: `cargo run -p detlint [-- --root DIR]`.
//!
//! Exit codes: 0 clean, 1 violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "detlint — determinism linter\n\n\
                     USAGE: detlint [--root DIR]\n\n\
                     Checks every workspace source file for the nondet-iter, wall-clock and\n\
                     float-total-order rules."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p detlint` runs from the invocation directory; demand
    // the workspace root so relative paths in diagnostics are stable.
    let marker = root.join("Cargo.toml");
    let is_root = std::fs::read_to_string(&marker)
        .map(|s| s.contains("[workspace]"))
        .unwrap_or(false);
    if !is_root {
        eprintln!(
            "{} is not a workspace root (no Cargo.toml with [workspace]); pass --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let violations = detlint::lint_workspace(&root);
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("detlint: clean ({} files scanned)", detlint::workspace_files(&root).len());
        ExitCode::SUCCESS
    } else {
        println!("detlint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
