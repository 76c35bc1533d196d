//! Serde hardening for scenario files: every built-in spec must
//! round-trip through JSON losslessly, and malformed files — unknown
//! fields (typos), missing fields, bad enum variants — must fail with a
//! readable error instead of silently deserializing to defaults.

use mpath::core::{
    builtin_specs, MethodSetSpec, MethodSpec, MethodsSpec, ScenarioSpec, ViewSpec, MAX_PROBE_LEGS,
};
use mpath::overlay::RouteTag;
use proptest::prelude::*;

#[test]
fn every_builtin_round_trips_through_json() {
    for spec in builtin_specs() {
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ScenarioSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{}: reload failed: {e}", spec.name));
        assert_eq!(spec, back, "{} did not round-trip", spec.name);
        assert_eq!(
            spec.digest(),
            back.digest(),
            "{}: digest must survive the round trip",
            spec.name
        );
    }
}

#[test]
fn digests_are_unique_across_builtins() {
    let specs = builtin_specs();
    for a in &specs {
        for b in &specs {
            if a.name != b.name {
                assert_ne!(a.digest(), b.digest(), "{} vs {}", a.name, b.name);
            }
        }
    }
}

fn builtin_json(name: &str) -> String {
    let spec = builtin_specs().into_iter().find(|s| s.name == name).expect("builtin");
    serde_json::to_string(&spec).expect("serialize")
}

#[test]
fn unknown_top_level_field_is_a_readable_error() {
    let json = builtin_json("ron2003").replace("\"days\":", "\"dayz\":");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown field `dayz`"), "got: {err}");
    assert!(err.contains("ScenarioSpec"), "error must name the struct: {err}");
    assert!(err.contains("`days`"), "error must list the expected fields: {err}");
}

#[test]
fn unknown_nested_field_is_rejected_too() {
    let json = builtin_json("correlated-outages")
        .replace("\"outages_per_day\":", "\"outages_per_dya\":");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown field `outages_per_dya`"), "got: {err}");
    assert!(err.contains("SharedRiskSpec"), "error must name the nested struct: {err}");
}

#[test]
fn missing_field_is_a_readable_error_not_a_default() {
    let json = builtin_json("ron2003").replace("\"round_trip\":false,", "");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("missing field `round_trip`"), "got: {err}");
}

#[test]
fn duplicate_field_is_an_error_not_a_silent_winner() {
    // `{"days": 14, …, "days": 1}`: whichever copy a lookup-by-name
    // picked, the file would say something else than what ran.
    let json = builtin_json("ron2003").replace("\"round_trip\":", "\"days\":1.0,\"round_trip\":");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("duplicate field `days` in ScenarioSpec"), "got: {err}");
    // The derive holds nested structs to the same rule.
    let json = builtin_json("ron2003").replace("\"flat_load\":", "\"forward_drop\":0.5,\"flat_load\":");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("duplicate field `forward_drop` in Calibration"), "got: {err}");
}

#[test]
fn keys_are_accepted_in_any_order() {
    let spec = builtin_specs().into_iter().find(|s| s.name == "flash-crowd").expect("builtin");
    let serde::Value::Map(mut entries) = serde_json::parse(&builtin_json("flash-crowd")).unwrap()
    else {
        panic!("a spec is an object");
    };
    entries.reverse();
    let reversed = serde_json::to_string(&serde::Value::Map(entries)).unwrap();
    assert_eq!(serde_json::from_str::<ScenarioSpec>(&reversed).unwrap(), spec);
}

#[test]
fn unknown_enum_variant_is_rejected() {
    let json = builtin_json("ron2003").replace("\"topology\":\"Ron2003\"", "\"topology\":\"Ron1999\"");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown variant `Ron1999`"), "got: {err}");
}

/// The dissemination mode this tree no longer has, as a scenario file —
/// or a coordinator one commit behind — would still spell it, and the
/// mode [`delta_ron2003`] spells in its place.
const REMOVED_MODE: &str = r#"{"Gossip":{"fanout":3,"interval_ms":15000}}"#;
const DELTA_MODE: &str = r#"{"Delta":{"max_age_probes":4}}"#;

fn delta_ron2003() -> ScenarioSpec {
    let mut spec: ScenarioSpec = serde_json::from_str(&builtin_json("ron2003")).unwrap();
    spec.dissemination = mpath::core::DisseminationSpec::Delta { max_age_probes: 4 };
    spec
}

#[test]
fn removed_dissemination_variant_is_refused_naming_the_accepted_ones() {
    let stale = serde_json::to_string(&delta_ron2003()).unwrap().replace(DELTA_MODE, REMOVED_MODE);
    assert!(stale.contains(REMOVED_MODE), "the dissemination field is on the wire: {stale}");
    let err = serde_json::from_str::<ScenarioSpec>(&stale).unwrap_err().to_string();
    assert!(err.contains("unknown variant `Gossip` of DisseminationSpec"), "got: {err}");
    assert!(err.contains("(expected `FullSnapshot`, `Delta`)"), "got: {err}");
}

#[test]
fn job_frame_with_the_removed_variant_is_invalid_data() {
    use mpath::core::distrib::{encode_msg, read_msg_blocking, Msg};
    let duration = mpath::netsim::SimDuration::from_mins(10);
    let job = mpath::core::CampaignJob::new(delta_ron2003(), 1, duration);
    let frame = encode_msg(&Msg::Job { job: Box::new(job) });
    assert!(matches!(read_msg_blocking(&mut &frame[..]), Ok(Some(Msg::Job { .. }))));
    let body = std::str::from_utf8(&frame[4..]).unwrap().replace(DELTA_MODE, REMOVED_MODE);
    assert!(body.contains(REMOVED_MODE), "the job carries its spec: {body}");
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    let err = read_msg_blocking(&mut &frame[..]).expect_err("a stale Job frame must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("`Gossip`"), "{err}");
}

#[test]
fn wrong_type_is_rejected() {
    let json = builtin_json("ron2003").replace("\"days\":14.0", "\"days\":\"fourteen\"");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("expected number"), "got: {err}");
}

// ------------------------------------------------ method specs as data

/// A scenario whose method set is fully user-defined, k-leg probes
/// included.
fn custom_scenario() -> ScenarioSpec {
    let mut spec = builtin_specs().into_iter().find(|s| s.name == "ron2003").expect("builtin");
    spec.name = "custom-methods".to_string();
    spec.methods = MethodsSpec::Custom(MethodSetSpec {
        methods: vec![
            MethodSpec {
                name: "direct".into(),
                legs: vec![RouteTag::Direct],
                gap_ms: 0.0,
                distinct: false,
                all_prior: false,
            },
            MethodSpec {
                name: "quad".into(),
                legs: vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Lat, RouteTag::Loss],
                gap_ms: 5.0,
                distinct: true,
                all_prior: false,
            },
        ],
        views: vec![ViewSpec { name: "quad*".into(), source: 1, leg: 0 }],
    });
    spec
}

fn custom_json() -> String {
    serde_json::to_string(&custom_scenario()).expect("serialize")
}

#[test]
fn custom_method_scenario_round_trips() {
    let spec = custom_scenario();
    spec.validate().expect("custom scenario validates");
    let back: ScenarioSpec = serde_json::from_str(&custom_json()).expect("reload");
    assert_eq!(spec, back);
    assert_eq!(spec.digest(), back.digest());
    assert_eq!(back.methods.build().max_legs(), 4);
}

#[test]
fn unknown_method_spec_field_is_a_readable_error() {
    let json = custom_json().replace("\"gap_ms\":", "\"gap_mss\":");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown field `gap_mss`"), "got: {err}");
    assert!(err.contains("MethodSpec"), "error must name the nested struct: {err}");
}

#[test]
fn unknown_route_tag_is_rejected() {
    let json = custom_json().replace("\"Lat\"", "\"Fastest\"");
    let err = serde_json::from_str::<ScenarioSpec>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown variant `Fastest`"), "got: {err}");
}

#[test]
fn view_leg_beyond_k_is_rejected_at_validation() {
    let mut spec = custom_scenario();
    if let MethodsSpec::Custom(set) = &mut spec.methods {
        set.views[0].leg = MAX_PROBE_LEGS as u8;
    }
    let err = spec.validate().unwrap_err();
    assert!(err.contains("leg 4") && err.contains("quad"), "got: {err}");
}

#[test]
fn too_many_legs_are_rejected_at_validation() {
    let mut spec = custom_scenario();
    if let MethodsSpec::Custom(set) = &mut spec.methods {
        set.methods[1].legs.push(RouteTag::Direct);
    }
    let err = spec.validate().unwrap_err();
    assert!(err.contains("1 to 4 legs"), "got: {err}");
}

#[test]
fn duplicate_method_names_are_rejected_at_validation() {
    let mut spec = custom_scenario();
    if let MethodsSpec::Custom(set) = &mut spec.methods {
        set.views[0].name = "quad".into();
    }
    let err = spec.validate().unwrap_err();
    assert!(err.contains("duplicate") && err.contains("quad"), "got: {err}");
}

fn arb_method_set() -> impl Strategy<Value = MethodSetSpec> {
    // The vendored proptest has no `prop_flat_map`, so generate plain
    // data — per-method (leg count, per-leg tag bit-pattern, gap,
    // distinct) plus raw view references — and derive a valid set in one
    // map. Names are index-derived, so uniqueness holds by construction;
    // view sources and legs are taken modulo the ranges they reference.
    (
        proptest::collection::vec(
            (0usize..MAX_PROBE_LEGS, any::<u8>(), 0.0f64..100.0, any::<bool>(), any::<bool>()),
            1..8,
        ),
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    )
        .prop_map(|(raw_methods, raw_views)| {
            let tag = |bits: u8| match bits & 3 {
                0 => RouteTag::Direct,
                1 => RouteTag::Rand,
                2 => RouteTag::Lat,
                _ => RouteTag::Loss,
            };
            let methods: Vec<MethodSpec> = raw_methods
                .into_iter()
                .enumerate()
                .map(|(i, (extra_legs, pattern, gap_ms, distinct, all_prior))| {
                    let legs: Vec<RouteTag> =
                        (0..=extra_legs).map(|j| tag(pattern >> (2 * j))).collect();
                    let distinct = distinct && legs.len() >= 2;
                    MethodSpec {
                        name: format!("m{i}"),
                        distinct,
                        // `all_prior` is only valid on distinct sets.
                        all_prior: all_prior && distinct,
                        legs,
                        gap_ms,
                    }
                })
                .collect();
            let views = raw_views
                .into_iter()
                .enumerate()
                .map(|(i, (src, leg))| {
                    let source = (src as usize % methods.len()) as u8;
                    let leg = (leg as usize % methods[source as usize].legs.len()) as u8;
                    ViewSpec { name: format!("v{i}"), source, leg }
                })
                .collect();
            MethodSetSpec { methods, views }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid generated method set survives dump → reload with a
    /// fingerprint-identical scenario spec (the digest is the identity
    /// every output and report comparison keys on).
    #[test]
    fn any_valid_method_set_survives_dump_reload(set in arb_method_set()) {
        prop_assert!(set.validate().is_ok(), "generator must emit valid sets: {:?}",
            set.validate());
        let mut spec = custom_scenario();
        spec.methods = MethodsSpec::Custom(set);
        prop_assert!(spec.validate().is_ok());
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("reload");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.digest(), spec.digest(), "digest must survive the round trip");
        // And the built sets agree on shape.
        let a = spec.methods.build();
        let b = back.methods.build();
        prop_assert_eq!(a.names(), b.names());
        prop_assert_eq!(a.max_legs(), b.max_legs());
    }
}

#[test]
fn edited_spec_moves_the_digest() {
    let original: ScenarioSpec = serde_json::from_str(&builtin_json("flash-crowd")).unwrap();
    let edited: ScenarioSpec = serde_json::from_str(
        &builtin_json("flash-crowd").replace("\"events_per_day\":6.0", "\"events_per_day\":60.0"),
    )
    .unwrap();
    assert_ne!(original.digest(), edited.digest(), "conditions changed, digest must move");
}
