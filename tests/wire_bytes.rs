//! The distributed wire, held to its bytes and fed hostile input.
//!
//! Three parts:
//!
//! * **No byte moved.** FNV-1a digests of whole `Msg::Result` frames (as
//!   [`encode_msg`] frames them) for one slice each of `ron2003` — the
//!   result `mpbench` ships — `sparse-mesh` and `ron-wide`, and of the
//!   canonical JSON of every builtin scenario. The scenario digests were
//!   recorded at the last commit whose serde built a `Value` tree for
//!   every message; the frame digests were re-recorded once since, when
//!   `OUTPUT_WIRE_VERSION` 4 re-cut the accumulators as columns over the
//!   measured pairs. Together with the spec digests folded into every
//!   fingerprint golden they are the oracle that a codec change moved
//!   nothing.
//! * **Nothing from outside gets through.** A structure-aware fuzz of
//!   two valid `Result` frames, a clique's and a probe mesh's: any
//!   reordering of any object's keys decodes to the same fingerprint; a
//!   dropped, doubled or unknown key, another `"v"`, a number of the
//!   wrong kind or range, a row index or a column that does not fit the
//!   rest, a truncation and arbitrary bytes all end in `InvalidData` —
//!   never a panic, and never an allocation the body's own length does
//!   not pay for.
//! * **No key moved without its version.** One frame of every `Msg`
//!   variant, walked to its key paths, each filed under the nearest
//!   `"v"` above it (`PROTO_VERSION` where there is none) and pinned as
//!   a table. A key that changes under an unchanged version fails and
//!   names the version to bump.

use mpath::analysis::Fnv;
use mpath::core::distrib::{
    encode_msg, read_msg_blocking, write_msg_blocking, Msg, PROTO_VERSION,
};
use mpath::core::experiment::OUTPUT_WIRE_VERSION;
use mpath::core::{
    builtin_specs, CampaignJob, DisseminationSpec, MethodSetSpec, MethodSpec, MethodsSpec,
    ScenarioRegistry, ScenarioSpec, TopologySpec, ViewSpec,
};
use mpath::netsim::SimDuration;
use mpath::overlay::RouteTag;
use proptest::prelude::*;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;

// ------------------------------------------------------------ no byte moved

fn fnv(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.write(bytes);
    f.finish()
}

/// Slice 0 of `scenario` at seed 1, framed as the worker ships it.
fn result_frame(scenario: &str, duration_s: u64, slice_s: u64) -> Vec<u8> {
    let spec = ScenarioRegistry::builtin().get(scenario).expect("builtin scenario").clone();
    let mut job = CampaignJob::new(spec, 1, SimDuration::from_secs(duration_s));
    job.slice_width_us = SimDuration::from_secs(slice_s).as_micros();
    job.validate().expect("job validates");
    encode_msg(&Msg::Result { slice: 0, output: Box::new(job.run_slice_index(0)) })
}

#[test]
fn result_frames_are_pinned_to_their_bytes() {
    // (scenario, campaign s, slice s, frame bytes, FNV-1a of the frame).
    // Re-recorded once, at `OUTPUT_WIRE_VERSION` 4 — one key per counter
    // column and one row per measured pair, where v3 shipped a map per
    // cell of the dense n² grid; the old values stand beside the new.
    const PINNED: [(&str, u64, u64, usize, u64); 3] = [
        // `mpbench`'s `shards2`/`distrib2` slice: `serde.result_bytes`
        // + the `{"Result":{"slice":0,"output":…}}` envelope + the
        // 4-byte length prefix. Was 1 766 741 bytes, 0x7ec2_e49d_4e38_85d8.
        ("ron2003", 7200, 300, 190_160, 0xf5ff_c224_e2a5_bc4a),
        // 720 measured pairs of 14 400 ordered ones. Was 27 782 591
        // bytes, 0x35aa_3437_2ea9_62e0 (and before the overlay began to
        // peer with the declared mesh only — fewer overlay probes, same
        // codec — 27 782 614 bytes, 0xb5b9_2e5a_2e52_a867).
        ("sparse-mesh", 20, 20, 157_610, 0xe01d_9d63_6720_5e53),
        // Round-trip, 12 methods. Was 857 992 bytes, 0xa153_adfc_a4a6_2666.
        ("ron-wide", 600, 300, 98_719, 0x7db4_4f0a_8360_8421),
    ];
    for (scenario, duration_s, slice_s, len, digest) in PINNED {
        let frame = result_frame(scenario, duration_s, slice_s);
        assert_eq!(
            (frame.len(), fnv(&frame)),
            (len, digest),
            "{scenario}: frame is {} bytes, FNV-1a {:#018x}",
            frame.len(),
            fnv(&frame)
        );
        let body = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(body, frame.len() - 4, "{scenario}: length prefix");
    }
}

#[test]
fn builtin_scenario_json_is_byte_identical_to_the_tree_codec() {
    const PINNED: [(&str, u64); 8] = [
        ("ron2003", 0xa107_5dcf_402f_39e1),
        ("ron-narrow", 0xbfe6_4423_0a1f_7c9e),
        ("ron-wide", 0x4537_a7e5_ceca_ee40),
        ("correlated-outages", 0xb74b_01c7_2213_fada),
        ("load-waves", 0x0da2_b44d_7926_3c09),
        ("asymmetric-paths", 0xb283_e581_c58a_1f3f),
        ("flash-crowd", 0x61d3_54be_fe2b_44db),
        ("sparse-mesh", 0x340e_d1b3_6f2d_8629),
    ];
    let specs = builtin_specs();
    assert_eq!(specs.len(), PINNED.len(), "a builtin was added or removed: pin it here");
    for (spec, (name, digest)) in specs.iter().zip(PINNED) {
        assert_eq!(spec.name, name);
        let json = serde_json::to_string(spec).expect("specs always serialize");
        assert_eq!(fnv(json.as_bytes()), digest, "{name}: {:#018x}\n{json}", fnv(json.as_bytes()));
    }
}

// ------------------------------------------------------------ hostile input

thread_local! {
    /// Largest single allocation this thread has asked for since it last
    /// reset the mark.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Marking;

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a write to a `const`-initialized, destructor-free
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Marking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.with(|m| m.set(m.get().max(new_size)));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Marking = Marking;

/// Frames `body` and decodes it as a coordinator would, asserting on the
/// way that no single allocation outgrew what the body's length pays
/// for: its own buffer, and containers grown by `push` — at worst 8-byte
/// elements from 2-byte `0,` tokens, doubled by `Vec` growth.
fn decode(body: &[u8]) -> io::Result<Option<Msg>> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    LARGEST_ALLOC.with(|m| m.set(0));
    let got = read_msg_blocking(&mut &frame[..]);
    let largest = LARGEST_ALLOC.with(Cell::get);
    assert!(
        largest <= 16 * body.len().max(64),
        "a {}-byte body caused a {largest}-byte allocation",
        body.len()
    );
    got
}

fn assert_refused(body: &[u8], what: &str) {
    match decode(body) {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        Ok(_) => panic!("{what}: decoded"),
    }
}

/// The frame the fuzz mutates, as a tree, with the way to each of its
/// objects and integers.
struct Seed {
    fingerprint: u64,
    tree: Value,
    objects: Vec<Vec<usize>>,
    integers: Vec<Vec<usize>>,
}

/// A small but fully shaped result: a 1-leg and a 3-leg method (so the
/// `deep` extension is on the wire) and a view, over `topology`.
fn simulate(topology: TopologySpec) -> Seed {
    let job = CampaignJob::new(fuzz_spec(topology), 7, SimDuration::from_secs(120));
    job.validate().expect("fuzz seed validates");
    let out = job.run_slice_index(0);
    let fingerprint = out.fingerprint();
    let frame = encode_msg(&Msg::Result { slice: 3, output: Box::new(out) });
    let tree = parse(&frame);
    let (mut objects, mut integers) = (Vec::new(), Vec::new());
    paths(&tree, |v| matches!(v, Value::Map(_)), &mut Vec::new(), &mut objects);
    paths(&tree, |v| matches!(v, Value::Int(_) | Value::UInt(_)), &mut Vec::new(), &mut integers);
    Seed { fingerprint, tree, objects, integers }
}

/// The fuzz seeds' scenario over `topology`.
fn fuzz_spec(topology: TopologySpec) -> ScenarioSpec {
    let mut spec = ScenarioRegistry::builtin().get("ron2003").expect("builtin").clone();
    spec.name = "fuzz-seed".into();
    spec.topology = topology;
    let method = |name: &str, legs: Vec<RouteTag>| MethodSpec {
        name: name.into(),
        distinct: legs.len() > 1,
        legs,
        gap_ms: 0.0,
        all_prior: false,
    };
    spec.methods = MethodsSpec::Custom(MethodSetSpec {
        methods: vec![
            method("direct", vec![RouteTag::Direct]),
            method("triple", vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Loss]),
        ],
        views: vec![ViewSpec { name: "triple*".into(), source: 1, leg: 0 }],
    });
    spec
}

/// The body of a frame from [`encode_msg`], as a tree.
fn parse(frame: &[u8]) -> Value {
    let body = std::str::from_utf8(&frame[4..]).expect("frames are JSON text");
    serde_json::parse(body).expect("a frame parses as a tree")
}

/// The clique seed (`"rows": null`), simulated once per test binary: 4
/// hosts.
fn seed() -> &'static Seed {
    static SEED: std::sync::OnceLock<Seed> = std::sync::OnceLock::new();
    SEED.get_or_init(|| simulate(TopologySpec::Synthetic { hosts: 4, edge_loss: 0.05 }))
}

/// The probe-mesh seed (`"rows": [ids]`): 6 hosts on a ring, 12 of the
/// 36 ordered pairs measured.
fn mesh_seed() -> &'static Seed {
    static SEED: std::sync::OnceLock<Seed> = std::sync::OnceLock::new();
    SEED.get_or_init(|| {
        simulate(TopologySpec::SparseSynthetic { hosts: 6, edge_loss: 0.05, mesh_k: 2 })
    })
}

/// The child-index path to every node of `v` that `pick` accepts.
fn paths(v: &Value, pick: fn(&Value) -> bool, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if pick(v) {
        out.push(here.clone());
    }
    let children: Vec<&Value> = match v {
        Value::Seq(items) => items.iter().collect(),
        Value::Map(entries) => entries.iter().map(|(_, child)| child).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        paths(child, pick, here, out);
        here.pop();
    }
}

/// The node a path from [`paths`] leads to.
fn at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Seq(items) => &mut items[i],
        Value::Map(entries) => &mut entries[i].1,
        _ => unreachable!("paths only pass through containers"),
    })
}

/// A copy of `seed`'s tree with its `k`-th object (wrapping) edited.
fn with_object(seed: &Seed, k: usize, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let mut tree = seed.tree.clone();
    match at(&mut tree, &seed.objects[k % seed.objects.len()]) {
        Value::Map(entries) => edit(entries),
        _ => unreachable!("`objects` holds paths to maps"),
    }
    text(&tree)
}

/// A copy of `seed`'s tree with the value at `keys` (object keys from the
/// root) edited.
fn with_value(seed: &Seed, keys: &[&str], edit: impl FnOnce(&mut Value)) -> String {
    let mut tree = seed.tree.clone();
    let node = keys.iter().fold(&mut tree, |v, key| match v {
        Value::Map(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).expect("the key is on the wire").1
        }
        _ => unreachable!("keys lead through objects"),
    });
    edit(node);
    text(&tree)
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

fn text(tree: &Value) -> String {
    serde_json::to_string(tree).expect("trees always serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_result_frames_are_refused_and_reordered_ones_are_not(
        mesh in any::<bool>(),
        object in any::<usize>(),
        entry in any::<usize>(),
        leaf in any::<usize>(),
        shuffle in any::<usize>(),
    ) {
        let seed = if mesh { mesh_seed() } else { seed() };
        // Any order of any object's keys is the same message.
        let reordered = with_object(seed, object, |entries| {
            let n = entries.len();
            entries.rotate_left(entry % n);
            if shuffle & 1 == 1 {
                entries.reverse();
            }
            entries.swap(0, (shuffle >> 1) % n);
        });
        match decode(reordered.as_bytes()) {
            Ok(Some(Msg::Result { slice: 3, output })) => {
                prop_assert_eq!(output.fingerprint(), seed.fingerprint);
            }
            other => panic!("a reordered frame must decode, got {other:?}\n{reordered}"),
        }

        // A key dropped, doubled, or unknown.
        let dropped =
            with_object(seed, object, |entries| drop(entries.remove(entry % entries.len())));
        assert_refused(dropped.as_bytes(), "dropped key");
        let doubled = with_object(seed, object, |entries| {
            let copy = entries[entry % entries.len()].clone();
            entries.insert(shuffle % (entries.len() + 1), copy);
        });
        assert_refused(doubled.as_bytes(), "doubled key");
        let unknown = with_object(seed, object, |entries| {
            entries.insert(entry % (entries.len() + 1), ("zeroes".into(), Value::Null));
        });
        assert_refused(unknown.as_bytes(), "unknown key");

        // An integer replaced by something that is not one, or too big.
        // (Every integer on this wire is unsigned.)
        for (i, wrong) in ["\"7\"", "7.5", "1e999", "18446744073709551616", "-1", "null", "[7]"]
            .into_iter()
            .enumerate()
        {
            let mut tree = seed.tree.clone();
            let path = &seed.integers[leaf.wrapping_add(i) % seed.integers.len()];
            *at(&mut tree, path) = Value::Str("@@".into());
            assert_refused(text(&tree).replacen("\"@@\"", wrong, 1).as_bytes(), wrong);
        }
    }
}

#[test]
fn rows_and_columns_that_do_not_fit_each_other_are_refused() {
    const LOSS: [&str; 3] = ["Result", "output", "loss"];
    let at = |acc: &'static str, key: &'static str| ["Result", "output", acc, key];
    let mesh = mesh_seed();
    assert!(text(&mesh.tree).contains("\"rows\":["), "the mesh seed ships its rows");
    for acc in ["loss", "win20", "win60"] {
        // The index itself: out of order, doubled, or past the testbed.
        let unsorted = with_value(mesh, &at(acc, "rows"), |rows| items(rows).swap(3, 4));
        assert_refused(unsorted.as_bytes(), "rows unsorted");
        let doubled = with_value(mesh, &at(acc, "rows"), |rows| {
            let rows = items(rows);
            rows[5] = rows[4].clone();
        });
        assert_refused(doubled.as_bytes(), "rows with a duplicate");
        let beyond = with_value(mesh, &at(acc, "rows"), |rows| {
            *items(rows).last_mut().unwrap() = Value::UInt(36);
        });
        assert_refused(beyond.as_bytes(), "a row past n^2");
        // A host with no row at all is no probe mesh.
        let orphaned = with_value(mesh, &at(acc, "rows"), |rows| drop(items(rows).drain(..2)));
        assert_refused(orphaned.as_bytes(), "a host without a peer");
        // Rows of another testbed: fewer rows than the columns hold.
        let short = with_value(mesh, &at(acc, "rows"), |rows| *rows = Value::Null);
        assert_refused(short.as_bytes(), "the clique's index over a mesh's columns");
    }
    // A column one element short, one long, or of the wrong number kind.
    for column in ["pairs", "first_lost_with_second", "lat_sum_us", "lat_cnt", "deep"] {
        let short = with_value(mesh, &[&LOSS[..], &[column]].concat(), |c| drop(items(c).pop()));
        assert_refused(short.as_bytes(), column);
        let long =
            with_value(mesh, &[&LOSS[..], &[column]].concat(), |c| items(c).push(Value::UInt(0)));
        assert_refused(long.as_bytes(), column);
    }
    let fractional =
        with_value(mesh, &at("loss", "pairs"), |c| items(c)[0] = Value::Float(0.5));
    assert_refused(fractional.as_bytes(), "a fractional count");
    let stringly = with_value(mesh, &at("loss", "lat_sum_us"), |c| {
        items(c)[0] = Value::Str("0.0".into());
    });
    assert_refused(stringly.as_bytes(), "a quoted sum");
    // One open-window column where the other two are `null`.
    let half_open =
        with_value(mesh, &at("win20", "sent"), |c| *c = Value::Seq(vec![Value::UInt(0); 36]));
    assert_refused(half_open.as_bytes(), "one open-window column of three");

    // The clique: `rows: null` sizes the columns by n² x methods, a
    // product of two numbers from outside — which must not wrap into a
    // length the columns happen to have, nor allocate before it is
    // compared.
    let clique = seed();
    let hosts = with_value(clique, &at("loss", "n"), |n| *n = Value::UInt(65_535));
    assert_refused(hosts.as_bytes(), "n^2 cells the body does not hold");
    let wrapped = with_value(clique, &at("loss", "n"), |n| *n = Value::UInt(1 << 32));
    assert_refused(wrapped.as_bytes(), "n^2 = 2^64");
    let methods = with_value(clique, &LOSS, |loss| {
        let Value::Map(entries) = loss else { unreachable!() };
        for (key, v) in entries {
            match key.as_str() {
                "n" => *v = Value::UInt(65_535),
                "methods" => *v = Value::UInt(1 << 40),
                _ => {}
            }
        }
    });
    assert_refused(methods.as_bytes(), "n^2 x methods overflows");
    let windows = with_value(clique, &at("win60", "n"), |n| *n = Value::UInt(65_535));
    assert_refused(windows.as_bytes(), "a window accumulator of another testbed");
}

#[test]
fn every_version_field_is_checked_where_it_stands() {
    let body = text(&seed().tree);
    // `"v"` leads every versioned object, so bumping the n-th one also
    // proves the refusal names the version and not some later field.
    let versions = body.matches("{\"v\":").count();
    assert!(versions >= 4, "output, loss, two window accumulators, their histograms: {versions}");
    for n in 0..versions {
        let at = body.match_indices("{\"v\":").nth(n).expect("counted").0 + "{\"v\":".len();
        let mut bumped = body.clone();
        bumped.replace_range(at..at + 1, "9");
        match decode(bumped.as_bytes()) {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("unsupported wire version 9"), "got: {e}");
            }
            Ok(_) => panic!("version {n} was not checked"),
        }
    }
}

#[test]
fn truncated_and_arbitrary_bodies_are_invalid_data() {
    let body = text(&seed().tree);
    for i in 0..256 {
        let cut = i * body.len() / 256;
        assert_refused(&body.as_bytes()[..cut], &format!("cut at {cut}"));
    }
    let mut rng = TestRng::deterministic("arbitrary bodies");
    for _ in 0..512 {
        let bytes: Vec<u8> = (0..rng.below(48)).map(|_| rng.next_u64() as u8).collect();
        assert_refused(&bytes, &format!("bytes {bytes:?}"));
        // The same noise spliced into an otherwise valid frame.
        let at = rng.below(body.len() as u64) as usize;
        let mut spliced = body.as_bytes().to_vec();
        spliced.splice(at..at, bytes.iter().copied().chain([b'"']));
        assert_refused(&spliced, &format!("splice at {at}"));
    }
}

#[test]
fn duplicate_key_in_a_result_frame_is_an_error_naming_type_and_field() {
    let body = text(&seed().tree);
    // A second `"pairs"` after the first: whichever a lookup-by-name
    // codec picked, the other copy's counters would silently vanish.
    let doubled = body.replacen("\"deep\":", "\"pairs\":[],\"deep\":", 1);
    let err = decode(doubled.as_bytes()).expect_err("a doubled key must not decode");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("duplicate field `pairs` in LossAccum"), "got: {msg}");
}

#[test]
fn a_frame_the_receiver_would_refuse_is_refused_by_the_sender() {
    // 65 MiB of reason: over the 64 MiB cap `read_msg_blocking` enforces.
    let msg = Msg::Deny { reason: "x".repeat(65 << 20) };
    let mut wire = Vec::new();
    let err = write_msg_blocking(&mut wire, &msg).expect_err("over-cap frame must not be sent");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds the 64 MiB cap"), "got: {err}");
    assert!(wire.is_empty(), "nothing may reach the stream before the refusal");
    // At the cap it still goes: the two sides agree on one number.
    let envelope = encode_msg(&Msg::Deny { reason: String::new() }).len() - 4;
    let fits = Msg::Deny { reason: "x".repeat((64 << 20) - envelope) };
    write_msg_blocking(&mut wire, &fits).expect("a frame at the cap is sent");
    assert!(matches!(read_msg_blocking(&mut &wire[..]), Ok(Some(Msg::Deny { .. }))));
}

#[test]
fn deep_nesting_where_a_string_belongs_is_invalid_data_not_a_stack_overflow() {
    // Typed reads never descend into what they did not ask for: a
    // million `[` where the scenario's name should be is refused at the
    // first one. (The depth cap itself is pinned on `Value`, the one
    // type that recurses on input: `vendor/serde_json`'s tests.)
    let spec = ScenarioRegistry::builtin().get("ron-narrow").expect("builtin").clone();
    let job = CampaignJob::new(spec, 1, SimDuration::from_secs(60));
    let frame = encode_msg(&Msg::Job { job: Box::new(job) });
    let body = std::str::from_utf8(&frame[4..]).unwrap();
    let hostile = body.replacen("\"ron-narrow\"", &"[".repeat(1 << 20), 1);
    assert_ne!(hostile, body);
    let err = decode(hostile.as_bytes()).expect_err("must not decode");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("expected string"), "got: {err}");
}

// ------------------------------------------------------------ the wire's shape

/// Every key the frames of [`shape_frames`] send, by the version that
/// governs it: (version, its value, the keys under the object that
/// carries it, array elements collapsed to `[]`). A version is a
/// constant or the path of an inline `"v"`. Change a key and you bump
/// its version, then re-record this table from the one
/// `wire_shape_is_pinned` prints.
///
/// The scenario keys inside `Job` sit under `PROTO_VERSION`. A worker's
/// `Hello` is checked against `PROTO_VERSION` and `OUTPUT_WIRE_VERSION`
/// alone, and its decoder refuses unknown keys. Two builds that disagree
/// on a scenario key at one `PROTO_VERSION` would shake hands and then
/// fail to decode the `Job`, with no `Deny` that names the version.
const SHAPE: &[(&str, u64, &[&str])] = &[
    ("PROTO_VERSION", 1, &[
        "Deny", "Deny.reason", "Done", "Heartbeat", "Heartbeat.slice", "Hello", "Hello.output_wire",
        "Hello.proto", "Job", "Job.job", "Job.job.duration_us", "Job.job.seed",
        "Job.job.slice_width_us", "Job.job.spec", "Job.job.spec.calibration",
        "Job.job.spec.calibration.flat_load", "Job.job.spec.calibration.forward_drop",
        "Job.job.spec.calibration.slice_hours", "Job.job.spec.calibration.wait_range_s",
        "Job.job.spec.days", "Job.job.spec.dissemination", "Job.job.spec.dissemination.Delta",
        "Job.job.spec.dissemination.Delta.max_age_probes", "Job.job.spec.horizon_days",
        "Job.job.spec.impairments", "Job.job.spec.impairments.asymmetry",
        "Job.job.spec.impairments.asymmetry.delay_skew_ms",
        "Job.job.spec.impairments.asymmetry.loss_skew", "Job.job.spec.impairments.flash_crowd",
        "Job.job.spec.impairments.flash_crowd.duration_mins",
        "Job.job.spec.impairments.flash_crowd.events_per_day",
        "Job.job.spec.impairments.flash_crowd.factor", "Job.job.spec.impairments.load_wave",
        "Job.job.spec.impairments.load_wave.dwell_mins",
        "Job.job.spec.impairments.load_wave.hot_factor",
        "Job.job.spec.impairments.load_wave.period_hours", "Job.job.spec.impairments.shared_risk",
        "Job.job.spec.impairments.shared_risk.down_mins",
        "Job.job.spec.impairments.shared_risk.groups",
        "Job.job.spec.impairments.shared_risk.hosts_per_group",
        "Job.job.spec.impairments.shared_risk.outages_per_day", "Job.job.spec.methods",
        "Job.job.spec.methods.Custom", "Job.job.spec.methods.Custom.methods",
        "Job.job.spec.methods.Custom.methods[].all_prior",
        "Job.job.spec.methods.Custom.methods[].distinct",
        "Job.job.spec.methods.Custom.methods[].gap_ms",
        "Job.job.spec.methods.Custom.methods[].legs", "Job.job.spec.methods.Custom.methods[].name",
        "Job.job.spec.methods.Custom.views", "Job.job.spec.methods.Custom.views[].leg",
        "Job.job.spec.methods.Custom.views[].name", "Job.job.spec.methods.Custom.views[].source",
        "Job.job.spec.name", "Job.job.spec.round_trip", "Job.job.spec.summary",
        "Job.job.spec.topology", "Job.job.spec.topology.SparseSynthetic",
        "Job.job.spec.topology.SparseSynthetic.edge_loss",
        "Job.job.spec.topology.SparseSynthetic.hosts",
        "Job.job.spec.topology.SparseSynthetic.mesh_k", "Job.job.spec.topology.Synthetic",
        "Job.job.spec.topology.Synthetic.edge_loss", "Job.job.spec.topology.Synthetic.hosts",
        "Lease", "Lease.slice", "Ready", "Result", "Result.output", "Result.slice", "Wait",
        "Wait.poll_ms",
    ]),
    ("OUTPUT_WIRE_VERSION", 4, &[
        "collector", "collector.discarded", "collector.late_receives",
        "collector.malformed_receives", "collector.malformed_sends", "collector.peak_pending",
        "collector.resolved", "duration_us", "loss", "measure_legs", "n", "names", "net",
        "net.delivered", "net.dropped_congestion", "net.dropped_outage", "net.lsa_bytes",
        "net.lsa_entries", "net.sent", "overlay_probes", "route_usage", "scenario", "spec_digest",
        "v", "win20", "win60",
    ]),
    ("Result.output.loss.v", 2, &[
        "both_lost", "deep", "first_lost_with_second", "l1_lost", "l1_sent", "l2_lost", "l2_sent",
        "lat_cnt", "lat_sum_us", "max_legs", "methods", "n", "pairs", "pairs_lost", "rows", "v",
    ]),
    ("Result.output.win20.v", 2, &[
        "hist", "lost", "n", "rows", "sent", "thresholds", "v", "width_us", "win", "windows",
    ]),
    ("Result.output.win20.hist[].v", 1, &[
        "bins", "count", "v", "zeros",
    ]),
    ("Result.output.win60.v", 2, &[
        "hist", "lost", "n", "rows", "sent", "thresholds", "v", "width_us", "win", "windows",
    ]),
    ("Result.output.win60.hist[].v", 1, &[
        "bins", "count", "v", "zeros",
    ]),
];

/// The keys one version governs.
#[derive(Clone)]
struct Group {
    version: String,
    value: u64,
    keys: BTreeSet<String>,
}

fn pinned() -> Vec<Group> {
    SHAPE
        .iter()
        .map(|&(version, value, keys)| Group {
            version: version.into(),
            value,
            keys: keys.iter().map(|k| k.to_string()).collect(),
        })
        .collect()
}

/// One frame of every `Msg` variant, as trees. `Job` comes once per
/// scenario these tests know: every builtin, the checked-in file, and
/// the fuzz seeds' spec with the keys a default leaves out switched on.
/// `Result` comes once per fuzz seed. The `match`es have no wildcard, so
/// a new variant of `Msg`, `TopologySpec` or `MethodsSpec` does not
/// compile until it is counted, and then not pass until it is framed.
fn shape_frames() -> &'static [Value] {
    static FRAMES: std::sync::OnceLock<Vec<Value>> = std::sync::OnceLock::new();
    FRAMES.get_or_init(|| {
        let mut specs = builtin_specs();
        let file = include_str!("../scenarios/triple-redundant.json");
        specs.push(serde_json::from_str(file).expect("the checked-in scenario parses"));
        let mut fuzz = fuzz_spec(TopologySpec::Synthetic { hosts: 4, edge_loss: 0.05 });
        fuzz.dissemination = DisseminationSpec::Delta { max_age_probes: 4 };
        if let MethodsSpec::Custom(set) = &mut fuzz.methods {
            set.methods[1].all_prior = true;
        }
        specs.push(fuzz);
        let topologies = specs.iter().map(|s| match s.topology {
            TopologySpec::Ron2003 => 0,
            TopologySpec::Ron2002 => 1,
            TopologySpec::Synthetic { .. } => 2,
            TopologySpec::SparseSynthetic { .. } => 3,
        });
        assert_covers("TopologySpec", topologies, 4);
        let methods = specs.iter().map(|s| match s.methods {
            MethodsSpec::Ron2003 => 0,
            MethodsSpec::RonNarrow => 1,
            MethodsSpec::RonWide => 2,
            MethodsSpec::Custom(_) => 3,
        });
        assert_covers("MethodsSpec", methods, 4);
        let mut frames = vec![
            Msg::Hello { proto: PROTO_VERSION, output_wire: OUTPUT_WIRE_VERSION },
            Msg::Deny { reason: String::new() },
            Msg::Ready,
            Msg::Lease { slice: 0 },
            Msg::Wait { poll_ms: 0 },
            Msg::Done,
            Msg::Heartbeat { slice: 0 },
        ];
        frames.extend(specs.into_iter().map(|spec| Msg::Job {
            job: Box::new(CampaignJob::new(spec, 1, SimDuration::from_secs(60))),
        }));
        for seed in [seed(), mesh_seed()] {
            frames.push(decode(text(&seed.tree).as_bytes()).unwrap().expect("a frame"));
        }
        let variants = frames.iter().map(|m| match m {
            Msg::Hello { .. } => 0,
            Msg::Job { .. } => 1,
            Msg::Deny { .. } => 2,
            Msg::Ready => 3,
            Msg::Lease { .. } => 4,
            Msg::Wait { .. } => 5,
            Msg::Done => 6,
            Msg::Heartbeat { .. } => 7,
            Msg::Result { .. } => 8,
        });
        assert_covers("Msg", variants, 9);
        frames.iter().map(|m| parse(&encode_msg(m))).collect()
    })
}

/// Asserts that the variant indices in `seen` cover all `count` of `ty`'s.
fn assert_covers(ty: &str, seen: impl Iterator<Item = usize>, count: usize) {
    let seen: BTreeSet<usize> = seen.collect();
    let missing: Vec<usize> = (0..count).filter(|i| !seen.contains(i)).collect();
    assert!(missing.is_empty(), "no frame carries {ty} variant(s) {missing:?}");
}

/// The shape of [`shape_frames`].
fn observed() -> &'static [Group] {
    static GROUPS: std::sync::OnceLock<Vec<Group>> = std::sync::OnceLock::new();
    GROUPS.get_or_init(|| {
        let mut groups = BTreeMap::new();
        for frame in shape_frames() {
            walk(frame, "", ("", PROTO_VERSION.into()), &mut groups);
        }
        groups.into_values().collect()
    })
}

/// Files every key path in `v`, which sits at `path`, in the group of
/// the nearest object at or above it that carries a `"v"`: `governor` is
/// the one above, by its path and the value of its `"v"`. Groups are
/// keyed by that path.
fn walk<'a>(
    v: &Value,
    path: &'a str,
    governor: (&'a str, u64),
    groups: &mut BTreeMap<String, Group>,
) {
    fn file(groups: &mut BTreeMap<String, Group>, (at, value): (&str, u64), key: &str) {
        let group = groups.entry(at.to_string()).or_insert_with(|| Group {
            version: match at {
                "" => "PROTO_VERSION".into(),
                "Result.output" => "OUTPUT_WIRE_VERSION".into(),
                _ => format!("{at}.v"),
            },
            value,
            keys: BTreeSet::new(),
        });
        group.keys.insert(key[at.len()..].trim_start_matches('.').to_string());
    }
    match v {
        // A unit variant travels as its bare name.
        Value::Str(tag) if path.is_empty() => file(groups, governor, tag),
        Value::Seq(items) => {
            let path = format!("{path}[]");
            items.iter().for_each(|item| walk(item, &path, governor, groups));
        }
        Value::Map(entries) => {
            let governor = match entries.iter().find(|(k, _)| k == "v") {
                Some((_, Value::Int(v))) => (path, *v as u64),
                Some((_, Value::UInt(v))) => (path, *v),
                Some((_, other)) => panic!("{path}.v is {}", other.kind()),
                None => governor,
            };
            for (key, child) in entries {
                let at = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                file(groups, governor, &at);
                walk(child, &at, governor, groups);
            }
        }
        _ => {}
    }
}

/// What the wire's move from the `pinned` shape to the `observed` one
/// asks for: nothing, a version bump (named), or a re-recorded table
/// (printed). Any change is an `Err`.
fn verdict(pinned: &[Group], observed: &[Group]) -> Result<(), String> {
    let mut faults = Vec::new();
    let mut unbumped = false;
    for p in pinned {
        match observed.iter().find(|o| o.version == p.version) {
            None => faults.push(format!("{} governs no key any more", p.version)),
            Some(o) if o.value != p.value => {
                faults.push(format!("{} is {}, pinned at {}", o.version, o.value, p.value))
            }
            Some(o) if o.keys != p.keys => {
                unbumped = true;
                let added = o.keys.difference(&p.keys).map(|k| format!("+{k}"));
                let gone = p.keys.difference(&o.keys).map(|k| format!("-{k}"));
                let what = match o.version.strip_suffix(".v") {
                    Some(at) => format!("the \"v\" at {at}"),
                    None => o.version.clone(),
                };
                faults.push(format!(
                    "keys changed under {} = {} ({}): bump {what}",
                    o.version,
                    o.value,
                    added.chain(gone).collect::<Vec<_>>().join(" ")
                ));
            }
            Some(_) => {}
        }
    }
    for o in observed.iter().filter(|o| !pinned.iter().any(|p| p.version == o.version)) {
        faults.push(format!("{} = {} governs keys no pin names", o.version, o.value));
    }
    if faults.is_empty() {
        return Ok(());
    }
    if !unbumped {
        faults.push(format!("re-record SHAPE as\n{}", render(observed)));
    }
    Err(faults.join("\n"))
}

/// `groups` as the source of [`SHAPE`].
fn render(groups: &[Group]) -> String {
    let mut out = String::new();
    for g in groups {
        out += &format!("    (\"{}\", {}, &[\n", g.version, g.value);
        let mut line = String::from("       ");
        for k in &g.keys {
            if line.len() + k.len() + 4 > 100 {
                out += &line;
                out += "\n";
                line = String::from("       ");
            }
            line += &format!(" \"{k}\",");
        }
        out += &format!("{line}\n    ]),\n");
    }
    out
}

#[test]
fn wire_shape_is_pinned() {
    if let Err(why) = verdict(&pinned(), observed()) {
        panic!("the frames' key shape moved:\n{why}");
    }
}

/// Today's shape with the group of `version` edited: the pin as it was
/// recorded before the frames changed.
fn doctored(version: &str, edit: impl FnOnce(&mut Group)) -> Vec<Group> {
    let mut pins = observed().to_vec();
    edit(pins.iter_mut().find(|g| g.version == version).expect("a group of today's frames"));
    pins
}

#[test]
fn wire_shape_key_removed_without_a_bump_names_the_version() {
    // The pin holds a key the frames no longer send, at the version they
    // still carry.
    let pins = doctored("OUTPUT_WIRE_VERSION", |g| {
        g.keys.insert("dropped".into());
    });
    let why = verdict(&pins, observed()).unwrap_err();
    assert!(why.contains("(-dropped): bump OUTPUT_WIRE_VERSION"), "{why}");
    assert!(!why.contains("re-record"), "no table to paste over a change without its bump: {why}");
}

#[test]
fn wire_shape_key_change_with_a_bump_asks_to_re_record() {
    let pins = doctored("OUTPUT_WIRE_VERSION", |g| {
        g.keys.insert("dropped".into());
        g.value -= 1;
    });
    let why = verdict(&pins, observed()).unwrap_err();
    let moved = format!("OUTPUT_WIRE_VERSION is {}, pinned at {}", OUTPUT_WIRE_VERSION, OUTPUT_WIRE_VERSION - 1);
    assert!(why.contains(&moved), "{why}");
    assert!(why.ends_with(&format!("re-record SHAPE as\n{}", render(observed()))), "{why}");
}

#[test]
fn wire_shape_inline_version_is_judged_like_a_constant() {
    let renamed = |g: &mut Group| {
        g.keys.remove("both_lost");
        g.keys.insert("both_dropped".into());
    };
    let pins = doctored("Result.output.loss.v", renamed);
    let why = verdict(&pins, observed()).unwrap_err();
    assert!(why.contains("(+both_lost -both_dropped): bump the \"v\" at Result.output.loss"), "{why}");
    let pins = doctored("Result.output.loss.v", |g| {
        renamed(g);
        g.value -= 1;
    });
    let why = verdict(&pins, observed()).unwrap_err();
    assert!(why.contains("Result.output.loss.v is 2, pinned at 1"), "{why}");
    assert!(why.contains("re-record SHAPE as"), "{why}");
}

#[test]
fn wire_shape_missing_group_fails() {
    let mut pins = observed().to_vec();
    let hist = pins.pop().expect("today's frames have groups");
    let why = verdict(&pins, observed()).unwrap_err();
    assert!(why.starts_with(&format!("{} = 1 governs keys no pin names", hist.version)), "{why}");
    let why = verdict(observed(), &pins).unwrap_err();
    assert!(why.starts_with(&format!("{} governs no key any more", hist.version)), "{why}");
}
