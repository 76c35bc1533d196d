//! The three token-level rule families.
//!
//! Rule names (used in `// detlint: allow(<rule>) — <reason>`
//! annotations and in diagnostics):
//!
//! - `nondet-iter` — a `HashMap`/`HashSet` identifier in a deterministic
//!   crate. Std hash collections iterate in `RandomState` order, which
//!   is exactly how PR 4's `finish()`-drain bug reached a golden
//!   fingerprint; any appearance must either be replaced (`BTreeMap`,
//!   `Vec`, a sorted drain) or annotated with a reason explaining why
//!   the order cannot leak into output.
//! - `wall-clock` — `Instant::now` / `SystemTime` in a deterministic
//!   crate. Simulated components take time as an argument; reading the
//!   host clock forks the timeline.
//! - `float-total-order` — `partial_cmp(..).unwrap()` (or `.expect`)
//!   inside a sort/min/max comparator. One NaN panics the campaign;
//!   `f64::total_cmp` is the drop-in fix.
//!
//! An annotation suppresses a rule on its own line and the next code
//! line (comment continuation lines in between are fine), and **must**
//! carry a reason — a bare `detlint: allow(rule)` is itself
//! reported (as `bad-annotation`) rather than honored, so the paper
//! trail the annotation exists for cannot be skipped.

use crate::lexer::{scan, Kind, Scan};

/// One rule hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule family name (`nondet-iter`, `wall-clock`,
    /// `float-total-order`, `bad-annotation`, or `unreadable`).
    pub rule: &'static str,
    /// Path as reported (workspace-relative for real files).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]: {}:{}: {}", self.rule, self.file, self.line, self.msg)
    }
}

/// How a file is classified for rule selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Deterministic code: `nondet-iter` and `wall-clock` apply.
    /// (`float-total-order` applies everywhere — a NaN panic is a bug
    /// in benches and live tools too.)
    pub deterministic: bool,
}

/// Known rule names (what `allow(...)` may name).
const RULES: [&str; 3] = ["nondet-iter", "wall-clock", "float-total-order"];

/// Comparator-taking methods whose closure argument must not unwrap
/// `partial_cmp`.
const COMPARATOR_METHODS: [&str; 5] =
    ["sort_by", "sort_unstable_by", "binary_search_by", "max_by", "min_by"];

/// Lints one file's source text. `file` is used verbatim in
/// diagnostics.
pub fn lint_source(file: &str, src: &str, class: FileClass) -> Vec<Violation> {
    let s = scan(src);
    let mut out = Vec::new();
    check_annotations(file, &s, &mut out);
    if class.deterministic {
        nondet_iter(file, &s, &mut out);
        wall_clock(file, &s, &mut out);
    }
    float_total_order(file, &s, &mut out);
    out.sort_by_key(|v| v.line);
    // One report per (rule, line): `let m: HashMap<_, _> = HashMap::new()`
    // is one finding, not two.
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// Marks which token indices sit inside a `use …;` declaration, where
/// naming a type is importing it, not using it — every *use* site still
/// gets flagged, so one import never needs two annotations.
fn use_decl_mask(s: &Scan) -> Vec<bool> {
    let mut mask = vec![false; s.tokens.len()];
    let mut i = 0;
    while i < s.tokens.len() {
        if s.tokens[i].is_ident("use") {
            while i < s.tokens.len() && !s.tokens[i].is_punct(';') {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    mask
}

/// Reports malformed or unknown annotations; a bad annotation is a
/// violation in its own right because it *looks* like a suppression.
fn check_annotations(file: &str, s: &Scan, out: &mut Vec<Violation>) {
    for a in &s.allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(Violation {
                rule: "bad-annotation",
                file: file.into(),
                line: a.line,
                msg: format!(
                    "`allow({})` names no detlint rule (known: {})",
                    a.rule,
                    RULES.join(", ")
                ),
            });
        } else if a.reason.is_empty() {
            out.push(Violation {
                rule: "bad-annotation",
                file: file.into(),
                line: a.line,
                msg: format!(
                    "`allow({})` has no reason; write `// detlint: allow({}) — <why the \
                     suppression is sound>`",
                    a.rule, a.rule
                ),
            });
        }
    }
}

/// Rule `nondet-iter`: std hash-collection identifiers in deterministic
/// code.
fn nondet_iter(file: &str, s: &Scan, out: &mut Vec<Violation>) {
    let in_use = use_decl_mask(s);
    for (i, t) in s.tokens.iter().enumerate() {
        if t.kind != Kind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if in_use[i] || s.allowed("nondet-iter", t.line) {
            continue;
        }
        out.push(Violation {
            rule: "nondet-iter",
            file: file.into(),
            line: t.line,
            msg: format!(
                "std `{}` in a deterministic crate: iteration/drain order is per-process \
                 random. Use `BTree{}`/`Vec`, or annotate `// detlint: allow(nondet-iter) — \
                 <why order cannot leak>`",
                t.text,
                &t.text[4..]
            ),
        });
    }
}

/// Rule `wall-clock`: host-clock reads in deterministic code.
fn wall_clock(file: &str, s: &Scan, out: &mut Vec<Violation>) {
    let in_use = use_decl_mask(s);
    for (i, t) in s.tokens.iter().enumerate() {
        if in_use[i] {
            continue;
        }
        let hit = if t.is_ident("SystemTime") {
            true
        } else if t.is_ident("Instant") {
            // Only `Instant::now` forks the timeline; an `Instant` in a
            // type position is caught where it is produced.
            s.tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && s.tokens.get(i + 2).is_some_and(|b| b.is_punct(':'))
                && s.tokens.get(i + 3).is_some_and(|c| c.is_ident("now"))
        } else {
            false
        };
        if !hit || s.allowed("wall-clock", t.line) {
            continue;
        }
        out.push(Violation {
            rule: "wall-clock",
            file: file.into(),
            line: t.line,
            msg: format!(
                "`{}` in a deterministic crate: simulated components take time as an \
                 argument (`SimTime`), never read the host clock",
                if t.text == "SystemTime" { "SystemTime" } else { "Instant::now" }
            ),
        });
    }
}

/// Rule `float-total-order`: `partial_cmp` + `unwrap`/`expect` inside a
/// comparator argument list.
fn float_total_order(file: &str, s: &Scan, out: &mut Vec<Violation>) {
    for (i, t) in s.tokens.iter().enumerate() {
        if t.kind != Kind::Ident || !COMPARATOR_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(open) = s.tokens.get(i + 1) else { continue };
        if !open.is_punct('(') {
            continue;
        }
        // Walk the argument list to its matching close paren.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut partial: Option<u32> = None;
        let mut unwrapped = false;
        while j < s.tokens.len() {
            let u = &s.tokens[j];
            if u.is_punct('(') {
                depth += 1;
            } else if u.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if u.is_ident("partial_cmp") {
                partial = Some(u.line);
            } else if u.is_ident("unwrap") || u.is_ident("expect") {
                unwrapped = true;
            }
            j += 1;
        }
        if let (Some(line), true) = (partial, unwrapped) {
            if s.allowed("float-total-order", line) {
                continue;
            }
            out.push(Violation {
                rule: "float-total-order",
                file: file.into(),
                line,
                msg: format!(
                    "`partial_cmp(..).unwrap()` inside `{}`: one NaN panics the run. Use \
                     `f64::total_cmp` (or filter NaNs and annotate)",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET: FileClass = FileClass { deterministic: true };
    const FREE: FileClass = FileClass { deterministic: false };

    #[test]
    fn hash_collections_flagged_only_in_deterministic_code() {
        let src = "fn f() { let m = std::collections::HashMap::new(); m }";
        let v = lint_source("x.rs", src, DET);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "nondet-iter");
        assert!(lint_source("x.rs", src, FREE).is_empty());
    }

    #[test]
    fn use_declaration_is_not_a_use_site() {
        let src = "use std::collections::{HashMap, HashSet};\nfn f() {}";
        assert!(lint_source("x.rs", src, DET).is_empty());
        let src2 = "use std::collections::HashMap;\nfn f() { HashMap::<u32, u32>::new(); }";
        let v = lint_source("x.rs", src2, DET);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn annotation_with_reason_suppresses_next_line() {
        let src = "// detlint: allow(nondet-iter) — membership only, never iterated\n\
                   fn f() { let s: std::collections::HashSet<u32> = Default::default(); s }";
        assert!(lint_source("x.rs", src, DET).is_empty());
    }

    #[test]
    fn reasonless_annotation_is_itself_flagged_and_suppresses_nothing() {
        let src = "// detlint: allow(nondet-iter)\n\
                   fn f() { let s: std::collections::HashSet<u32> = Default::default(); s }";
        let v = lint_source("x.rs", src, DET);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["bad-annotation", "nondet-iter"]);
    }

    #[test]
    fn unknown_rule_annotation_flagged() {
        let v = lint_source("x.rs", "// detlint: allow(no-such-rule) — hm\n", DET);
        assert_eq!(v[0].rule, "bad-annotation");
    }

    #[test]
    fn instant_now_flagged_but_instant_type_is_not() {
        let src = "fn f(deadline: Instant) -> Instant { deadline }";
        assert!(lint_source("x.rs", src, DET).is_empty());
        let src2 = "fn f() { let t = Instant::now(); t }";
        let v = lint_source("x.rs", src2, DET);
        assert_eq!(v[0].rule, "wall-clock");
        let src3 = "fn f() { let t = SystemTime::now(); t }";
        assert_eq!(lint_source("x.rs", src3, DET)[0].rule, "wall-clock");
    }

    #[test]
    fn partial_cmp_unwrap_in_sort_flagged_everywhere() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        for class in [DET, FREE] {
            let v = lint_source("x.rs", src, class);
            assert_eq!(v.len(), 1, "{class:?}");
            assert_eq!(v[0].rule, "float-total-order");
        }
    }

    #[test]
    fn total_cmp_and_partial_ord_impls_pass() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }\n\
                   impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { None } }";
        assert!(lint_source("x.rs", src, FREE).is_empty());
    }

    #[test]
    fn partial_cmp_outside_comparator_is_not_flagged() {
        // Unwrapping a lone partial_cmp is still a panic hazard, but the
        // rule scopes itself to comparators where the blast radius is a
        // whole sort; keep the signal precise.
        let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap(); }";
        assert!(lint_source("x.rs", src, FREE).is_empty());
    }

    #[test]
    fn string_and_comment_mentions_do_not_trip_rules() {
        let src = "// HashMap would be wrong here\nfn f() { let s = \"HashMap Instant::now\"; s }";
        assert!(lint_source("x.rs", src, DET).is_empty());
    }
}
