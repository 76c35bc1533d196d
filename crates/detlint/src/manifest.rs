//! Rule family `wire-manifest`: the checked-in wire-shape golden.
//!
//! Every type that crosses the distributed-campaign wire (or is merged
//! from a shard) has its field set extracted *from source* — derive'd
//! structs/enums by their declaration, hand-written serde impls by the
//! string keys their `serialize` writes — and compared against the
//! checked-in [`MANIFEST_FILE`]. The rule CHANGES.md stated but nobody
//! enforced ("bump `OUTPUT_WIRE_VERSION` when an accumulator's serde
//! layout changes") becomes mechanical: a field-set drift with an
//! unchanged governing version fails `detlint`, and `--update-manifest`
//! refuses to regenerate over it.
//!
//! The manifest is rendered deterministically (types and fields sorted,
//! fixed 2-space indentation) so its diffs review like any other
//! golden.

use crate::lexer::{scan, Kind, Token};
use crate::rules::Violation;
use std::fmt::Write as _;
use std::path::Path;

/// The golden's filename at the workspace root.
pub const MANIFEST_FILE: &str = "WIRE_MANIFEST.json";

/// How a wire type's field set is declared in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeShape {
    /// `#[derive(Serialize, Deserialize)] struct` — wire keys are the
    /// field names.
    DeriveStruct,
    /// Derived enum (externally tagged) — wire keys are
    /// `Variant.field` / bare `Variant` for unit variants.
    DeriveEnum,
    /// Hand-written `impl serde::Serialize` — wire keys are the string
    /// literals its `serialize` hands a `serde::MapWriter` (`.field("k",
    /// …)` / `.key("k")`).
    Handwritten,
}

impl TypeShape {
    fn label(self) -> &'static str {
        match self {
            TypeShape::DeriveStruct => "derive-struct",
            TypeShape::DeriveEnum => "derive-enum",
            TypeShape::Handwritten => "handwritten",
        }
    }
}

/// Which version pin governs a wire type's compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionTag {
    /// A named workspace constant (its value is recorded in the
    /// manifest's `versions` map).
    Const(&'static str),
    /// The integer literal the type's own `serialize` writes under `"v"`.
    Inline,
}

/// One type the manifest tracks.
#[derive(Debug, Clone, Copy)]
pub struct WireTypeSpec {
    /// Type name as written in source.
    pub name: &'static str,
    /// Workspace-relative file holding the declaration/impl.
    pub file: &'static str,
    /// How to extract its field set.
    pub shape: TypeShape,
    /// Its governing version pin.
    pub version: VersionTag,
}

/// A version constant the manifest records.
#[derive(Debug, Clone, Copy)]
pub struct VersionConstSpec {
    /// Constant name.
    pub name: &'static str,
    /// Workspace-relative file declaring it.
    pub file: &'static str,
}

/// The workspace's wire surface: every type whose serde layout is load-
/// bearing for cross-host byte-identity.
pub const WIRE_TYPES: &[WireTypeSpec] = &[
    WireTypeSpec {
        name: "ExperimentOutput",
        file: "crates/core/src/experiment.rs",
        shape: TypeShape::Handwritten,
        version: VersionTag::Const("OUTPUT_WIRE_VERSION"),
    },
    WireTypeSpec {
        name: "LossAccum",
        file: "crates/analysis/src/loss.rs",
        shape: TypeShape::Handwritten,
        version: VersionTag::Inline,
    },
    WireTypeSpec {
        name: "WindowAccum",
        file: "crates/analysis/src/windows.rs",
        shape: TypeShape::Handwritten,
        version: VersionTag::Inline,
    },
    WireTypeSpec {
        name: "Histogram",
        file: "crates/analysis/src/cdf.rs",
        shape: TypeShape::Handwritten,
        version: VersionTag::Inline,
    },
    WireTypeSpec {
        name: "NetCounters",
        file: "crates/netsim/src/net.rs",
        shape: TypeShape::DeriveStruct,
        version: VersionTag::Const("OUTPUT_WIRE_VERSION"),
    },
    WireTypeSpec {
        name: "CollectorStats",
        file: "crates/trace/src/collect.rs",
        shape: TypeShape::DeriveStruct,
        version: VersionTag::Const("OUTPUT_WIRE_VERSION"),
    },
    WireTypeSpec {
        name: "Msg",
        file: "crates/core/src/distrib.rs",
        shape: TypeShape::DeriveEnum,
        version: VersionTag::Const("PROTO_VERSION"),
    },
];

/// The version constants backing [`VersionTag::Const`] pins.
pub const VERSION_CONSTS: &[VersionConstSpec] = &[
    VersionConstSpec { name: "OUTPUT_WIRE_VERSION", file: "crates/core/src/experiment.rs" },
    VersionConstSpec { name: "PROTO_VERSION", file: "crates/core/src/distrib.rs" },
];

/// One extracted type entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeEntry {
    /// Type name.
    pub name: String,
    /// Workspace-relative source file.
    pub file: String,
    /// Shape label (`derive-struct` / `derive-enum` / `handwritten`).
    pub kind: &'static str,
    /// Governing version: a constant name, or `inline:<n>`.
    pub version: String,
    /// Sorted wire field names.
    pub fields: Vec<String>,
}

/// The full extracted manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// `(constant name, value)`, sorted by name.
    pub versions: Vec<(String, u64)>,
    /// Type entries, sorted by name.
    pub types: Vec<TypeEntry>,
}

impl Manifest {
    /// Renders the manifest to its canonical on-disk JSON form. Two
    /// extractions of the same source produce byte-identical output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(
            "  \"_readme\": \"Machine-maintained wire-shape golden: regenerate with `cargo run \
             -p detlint -- --update-manifest`. Changing any listed type's field set requires \
             bumping its governing version in the same PR; detlint fails the build (and refuses \
             to regenerate) otherwise.\",\n",
        );
        s.push_str("  \"manifest_version\": 1,\n");
        s.push_str("  \"versions\": {\n");
        for (i, (name, val)) in self.versions.iter().enumerate() {
            let comma = if i + 1 < self.versions.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {val}{comma}");
        }
        s.push_str("  },\n");
        s.push_str("  \"types\": {\n");
        for (i, t) in self.types.iter().enumerate() {
            let _ = writeln!(s, "    \"{}\": {{", t.name);
            let _ = writeln!(s, "      \"file\": \"{}\",", t.file);
            let _ = writeln!(s, "      \"kind\": \"{}\",", t.kind);
            let _ = writeln!(s, "      \"version\": \"{}\",", t.version);
            s.push_str("      \"fields\": [\n");
            for (j, f) in t.fields.iter().enumerate() {
                let comma = if j + 1 < t.fields.len() { "," } else { "" };
                let _ = writeln!(s, "        \"{f}\"{comma}");
            }
            s.push_str("      ]\n");
            let comma = if i + 1 < self.types.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// Extracts the manifest for the given specs, reading sources under
/// `root`. Errors name the type or constant that failed to extract.
pub fn extract(
    root: &Path,
    types: &[WireTypeSpec],
    consts: &[VersionConstSpec],
) -> Result<Manifest, String> {
    let mut versions = Vec::new();
    for c in consts {
        let toks = scan_file(root, c.file)?;
        let val = extract_const(&toks, c.name)
            .ok_or_else(|| format!("{}: const `{}` not found", c.file, c.name))?;
        versions.push((c.name.to_string(), val));
    }
    versions.sort();
    let mut entries = Vec::new();
    for t in types {
        let toks = scan_file(root, t.file)?;
        let (mut fields, inline) = match t.shape {
            TypeShape::DeriveStruct => (
                extract_struct_fields(&toks, t.name)
                    .ok_or_else(|| format!("{}: struct `{}` not found", t.file, t.name))?,
                None,
            ),
            TypeShape::DeriveEnum => (
                extract_enum_fields(&toks, t.name)
                    .ok_or_else(|| format!("{}: enum `{}` not found", t.file, t.name))?,
                None,
            ),
            TypeShape::Handwritten => {
                let (f, v) = extract_handwritten(&toks, t.name, consts).ok_or_else(|| {
                    format!("{}: `impl serde::Serialize for {}` not found", t.file, t.name)
                })?;
                (f, Some(v))
            }
        };
        fields.sort();
        fields.dedup();
        let version = match (t.version, inline) {
            (VersionTag::Const(c), Some(HandwrittenVersion::Const(found))) if found == c => {
                c.to_string()
            }
            (VersionTag::Const(c), None) => c.to_string(),
            (VersionTag::Inline, Some(HandwrittenVersion::Inline(n))) => format!("inline:{n}"),
            (tag, found) => {
                return Err(format!(
                    "{}: `{}` version pin mismatch: spec says {tag:?}, source says {found:?}",
                    t.file, t.name
                ))
            }
        };
        entries.push(TypeEntry {
            name: t.name.to_string(),
            file: t.file.to_string(),
            kind: t.shape.label(),
            version,
            fields,
        });
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Manifest { versions, types: entries })
}

fn scan_file(root: &Path, rel: &str) -> Result<Vec<Token>, String> {
    let path = root.join(rel);
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
    Ok(scan(&src).tokens)
}

/// Finds `const <name> … = <int>`.
fn extract_const(toks: &[Token], name: &str) -> Option<u64> {
    for i in 0..toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('=') {
                j += 1;
            }
            while j < toks.len() {
                if toks[j].kind == Kind::Num {
                    return parse_int(&toks[j].text);
                }
                j += 1;
            }
        }
    }
    None
}

/// Parses the leading digits of a numeric literal (`3`, `3u32`,
/// `1_000`).
fn parse_int(text: &str) -> Option<u64> {
    let digits: String = text.chars().take_while(|c| c.is_ascii_digit() || *c == '_').collect();
    digits.replace('_', "").parse().ok()
}

/// Collects named fields (`ident:` at top depth) between `open` and its
/// matching close brace; returns `(fields, index after the close)`.
fn braced_fields(toks: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut fields = Vec::new();
    let mut bd = 1i32; // brace depth relative to `open`
    let mut pd = 0i32; // paren/bracket/angle-free: parens and squares only
    let mut i = open + 1;
    while i < toks.len() && bd > 0 {
        let t = &toks[i];
        if t.is_punct('{') {
            bd += 1;
        } else if t.is_punct('}') {
            bd -= 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            pd += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            pd -= 1;
        } else if bd == 1
            && pd == 0
            && t.kind == Kind::Ident
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
        {
            // `name:` but not `path::` — a field declaration.
            fields.push(t.text.clone());
        }
        i += 1;
    }
    (fields, i)
}

/// Field names of `#[derive(Serialize…)] struct <name> { … }`.
fn extract_struct_fields(toks: &[Token], name: &str) -> Option<Vec<String>> {
    for i in 0..toks.len() {
        if toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') || toks[j].is_punct('(') {
                    // Unit or tuple struct: no named wire fields to track.
                    return None;
                }
                j += 1;
            }
            if j == toks.len() {
                return None;
            }
            return Some(braced_fields(toks, j).0);
        }
    }
    None
}

/// Wire keys of a derived enum: `Variant.field` per struct-variant
/// field, `Variant.<k>` per tuple-variant slot, bare `Variant` for unit
/// variants.
fn extract_enum_fields(toks: &[Token], name: &str) -> Option<Vec<String>> {
    let start = (0..toks.len()).find(|&i| {
        toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
    })?;
    let mut j = start + 2;
    while j < toks.len() && !toks[j].is_punct('{') {
        j += 1;
    }
    if j == toks.len() {
        return None;
    }
    let mut out = Vec::new();
    let mut i = j + 1;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('}') {
            break;
        }
        if t.is_punct('#') {
            // Skip an attribute: `#[…]` with balanced brackets.
            i += 1;
            if toks.get(i).is_some_and(|a| a.is_punct('[')) {
                let mut sd = 1i32;
                i += 1;
                while i < toks.len() && sd > 0 {
                    if toks[i].is_punct('[') {
                        sd += 1;
                    } else if toks[i].is_punct(']') {
                        sd -= 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        if t.is_punct(',') {
            i += 1;
            continue;
        }
        if t.kind != Kind::Ident {
            i += 1;
            continue;
        }
        let variant = t.text.clone();
        match toks.get(i + 1) {
            Some(n) if n.is_punct('{') => {
                let (fields, next) = braced_fields(toks, i + 1);
                for f in fields {
                    out.push(format!("{variant}.{f}"));
                }
                i = next;
            }
            Some(n) if n.is_punct('(') => {
                // Tuple variant: count top-level slots.
                let mut pd = 1i32;
                let mut slots = 0usize;
                let mut saw_any = false;
                let mut k = i + 2;
                while k < toks.len() && pd > 0 {
                    let u = &toks[k];
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                        pd += 1;
                    } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                        pd -= 1;
                    } else if pd == 1 && u.is_punct(',') {
                        slots += 1;
                    } else {
                        saw_any = true;
                    }
                    k += 1;
                }
                if saw_any {
                    slots += 1;
                }
                for s in 0..slots {
                    out.push(format!("{variant}.{s}"));
                }
                i = k;
            }
            _ => {
                out.push(variant);
                i += 1;
            }
        }
    }
    Some(out)
}

/// What a hand-written impl declares as its wire version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandwrittenVersion {
    /// `.field("v", &WireVersion::<n>)`.
    Inline(u64),
    /// `.field("v", &WireVersion::<CONST>)`.
    Const(String),
}

/// Wire keys and version of `impl serde::Serialize for <name>`: every
/// string literal opening a `.field(` or `.key(` call inside the impl
/// block is a key; the expression paired with the `"v"` key yields the
/// version.
fn extract_handwritten(
    toks: &[Token],
    name: &str,
    consts: &[VersionConstSpec],
) -> Option<(Vec<String>, HandwrittenVersion)> {
    let at = (0..toks.len()).find(|&i| {
        toks[i].is_ident("Serialize")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("for"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(name))
    })?;
    let mut open = at + 3;
    while open < toks.len() && !toks[open].is_punct('{') {
        open += 1;
    }
    if open == toks.len() {
        return None;
    }
    let mut bd = 1i32;
    let mut i = open + 1;
    let mut keys = Vec::new();
    let mut key_positions = Vec::new();
    while i < toks.len() && bd > 0 {
        let t = &toks[i];
        if t.is_punct('{') {
            bd += 1;
        } else if t.is_punct('}') {
            bd -= 1;
        } else if t.kind == Kind::Str
            && i >= 3
            && toks[i - 1].is_punct('(')
            && (toks[i - 2].is_ident("field") || toks[i - 2].is_ident("key"))
            && toks[i - 3].is_punct('.')
        {
            keys.push(t.text.clone());
            key_positions.push(i);
        }
        i += 1;
    }
    let end = i;
    // Version: scan the value expression after the `"v"` key, up to the
    // next key (or the end of the impl), for the first integer literal
    // or known version constant.
    let vk = key_positions.get(keys.iter().position(|k| k == "v")?)?;
    let next_key =
        key_positions.iter().find(|&&p| p > *vk).copied().unwrap_or(end);
    let mut version = None;
    for t in &toks[vk + 1..next_key] {
        if t.kind == Kind::Num {
            version = parse_int(&t.text).map(HandwrittenVersion::Inline);
            break;
        }
        if t.kind == Kind::Ident && consts.iter().any(|c| c.name == t.text) {
            version = Some(HandwrittenVersion::Const(t.text.clone()));
            break;
        }
    }
    Some((keys, version?))
}

/// Checks the workspace's extracted wire surface against the checked-in
/// manifest; returns `wire-manifest` violations on any drift.
pub fn check(root: &Path) -> Vec<Violation> {
    check_with(root, WIRE_TYPES, VERSION_CONSTS)
}

/// [`check`] with explicit specs (fixture tests use this).
pub fn check_with(
    root: &Path,
    types: &[WireTypeSpec],
    consts: &[VersionConstSpec],
) -> Vec<Violation> {
    let mf = |line: u32, msg: String| Violation {
        rule: "wire-manifest",
        file: MANIFEST_FILE.into(),
        line,
        msg,
    };
    let current = match extract(root, types, consts) {
        Ok(m) => m,
        Err(e) => return vec![mf(1, format!("extraction failed: {e}"))],
    };
    let path = root.join(MANIFEST_FILE);
    let golden = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(_) => {
            return vec![mf(
                1,
                format!("{MANIFEST_FILE} missing — run `cargo run -p detlint -- --update-manifest`"),
            )]
        }
    };
    if golden == current.render() {
        return Vec::new();
    }
    // Drift. Classify per type against the parsed golden so the message
    // says whether a version bump is missing.
    let mut out = Vec::new();
    match parse_manifest(&golden) {
        Ok(old) => {
            for t in &current.types {
                let Some(prev) = old.types.iter().find(|p| p.name == t.name) else {
                    out.push(mf(1, format!("`{}` is new — regenerate the manifest", t.name)));
                    continue;
                };
                if prev.fields != t.fields {
                    let bumped = version_bumped(&old, &current, prev, t);
                    if bumped {
                        out.push(mf(
                            1,
                            format!(
                                "`{}` field set changed (version bump seen) — regenerate with \
                                 `cargo run -p detlint -- --update-manifest`",
                                t.name
                            ),
                        ));
                    } else {
                        out.push(mf(
                            1,
                            format!(
                                "`{}` field set drifted without a `{}` bump: was [{}], now [{}]. \
                                 Bump the version, then regenerate the manifest",
                                t.name,
                                t.version,
                                prev.fields.join(", "),
                                t.fields.join(", ")
                            ),
                        ));
                    }
                }
            }
            for p in &old.types {
                if !current.types.iter().any(|t| t.name == p.name) {
                    out.push(mf(1, format!("`{}` vanished from source — regenerate", p.name)));
                }
            }
            if out.is_empty() {
                // Same fields, different bytes: version values or
                // formatting moved.
                out.push(mf(
                    1,
                    "stale (version values or formatting changed) — regenerate with \
                     `cargo run -p detlint -- --update-manifest`"
                        .into(),
                ));
            }
        }
        Err(e) => out.push(mf(1, format!("unparseable ({e}) — regenerate"))),
    }
    out
}

/// True when `t`'s governing version moved between `old` and `new`.
fn version_bumped(old: &Manifest, new: &Manifest, prev: &TypeEntry, t: &TypeEntry) -> bool {
    if prev.version != t.version {
        return true; // inline:N moved, or the pin itself was renamed
    }
    // Same pin name: compare the recorded constant values.
    let ov = old.versions.iter().find(|(n, _)| *n == t.version).map(|(_, v)| *v);
    let nv = new.versions.iter().find(|(n, _)| *n == t.version).map(|(_, v)| *v);
    match (ov, nv) {
        (Some(a), Some(b)) => a != b,
        _ => !t.version.starts_with("inline:"),
    }
}

/// Regenerates the manifest, refusing when a field set changed without
/// its governing version moving. Returns a human-readable summary.
pub fn update(root: &Path) -> Result<String, String> {
    update_with(root, WIRE_TYPES, VERSION_CONSTS)
}

/// [`update`] with explicit specs (fixture tests use this).
pub fn update_with(
    root: &Path,
    types: &[WireTypeSpec],
    consts: &[VersionConstSpec],
) -> Result<String, String> {
    let current = extract(root, types, consts)?;
    let path = root.join(MANIFEST_FILE);
    if let Ok(golden) = std::fs::read_to_string(&path) {
        let old = parse_manifest(&golden)
            .map_err(|e| format!("existing {MANIFEST_FILE} is unparseable: {e}"))?;
        let mut refusals = Vec::new();
        for t in &current.types {
            if let Some(prev) = old.types.iter().find(|p| p.name == t.name) {
                if prev.fields != t.fields && !version_bumped(&old, &current, prev, t) {
                    refusals.push(format!(
                        "`{}` field set changed ([{}] -> [{}]) but `{}` did not move",
                        t.name,
                        prev.fields.join(", "),
                        t.fields.join(", "),
                        t.version
                    ));
                }
            }
        }
        if !refusals.is_empty() {
            return Err(format!(
                "refusing to regenerate: wire drift without a version bump\n  {}",
                refusals.join("\n  ")
            ));
        }
    }
    let rendered = current.render();
    std::fs::write(&path, &rendered).map_err(|e| format!("writing {MANIFEST_FILE}: {e}"))?;
    Ok(format!(
        "{MANIFEST_FILE}: {} types, {} version pins",
        current.types.len(),
        current.versions.len()
    ))
}

/// Parses a rendered manifest back into the in-memory form (the inverse
/// of [`Manifest::render`], modulo the `_readme` text).
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let v = serde_json::parse(text).map_err(|e| e.to_string())?;
    let as_u64 = |x: &serde::Value| -> Result<u64, String> {
        match x {
            serde::Value::Int(i) if *i >= 0 => Ok(*i as u64),
            serde::Value::UInt(u) => Ok(*u),
            other => Err(format!("expected integer, found {}", other.kind())),
        }
    };
    let as_str = |x: &serde::Value| -> Result<String, String> {
        match x {
            serde::Value::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, found {}", other.kind())),
        }
    };
    let serde::Value::Map(versions) = v.field("versions").map_err(|e| e.to_string())? else {
        return Err("`versions` is not a map".into());
    };
    let mut vs = Vec::new();
    for (name, val) in versions {
        vs.push((name.clone(), as_u64(val)?));
    }
    vs.sort();
    let serde::Value::Map(types) = v.field("types").map_err(|e| e.to_string())? else {
        return Err("`types` is not a map".into());
    };
    let mut ts = Vec::new();
    for (name, body) in types {
        let serde::Value::Seq(fields) = body.field("fields").map_err(|e| e.to_string())? else {
            return Err(format!("`{name}.fields` is not a list"));
        };
        let kind_s = as_str(body.field("kind").map_err(|e| e.to_string())?)?;
        let kind = [TypeShape::DeriveStruct, TypeShape::DeriveEnum, TypeShape::Handwritten]
            .into_iter()
            .map(TypeShape::label)
            .find(|l| *l == kind_s)
            .ok_or_else(|| format!("`{name}.kind` unknown: {kind_s}"))?;
        ts.push(TypeEntry {
            name: name.clone(),
            file: as_str(body.field("file").map_err(|e| e.to_string())?)?,
            kind,
            version: as_str(body.field("version").map_err(|e| e.to_string())?)?,
            fields: fields.iter().map(as_str).collect::<Result<_, _>>()?,
        });
    }
    ts.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Manifest { versions: vs, types: ts })
}
