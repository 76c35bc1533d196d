//! The routing-method registry (Table 4 and the dataset method lists).
//!
//! A *method* is what one probe measures: one to [`MAX_PROBE_LEGS`]
//! packets, each routed by a [`RouteTag`] tactic, optionally separated
//! by a fixed delay (`dd 10ms` / `dd 20ms`). A *view* is an inferred
//! single-packet method derived from one leg of a real method — the
//! paper marks these with an asterisk ("Items marked with an asterisk
//! were inferred from the first packet of a two-packet pair").
//!
//! Method sets are **data**: [`MethodSetSpec`] is the serde form a
//! scenario file carries, so a workload can probe 3- or 4-redundant
//! combinations the paper never ran without a code change. The compiled
//! presets below are just well-known spec instances.

use netsim::SimDuration;
use serde::{Deserialize, Serialize};
pub use overlay::{RouteTag, MAX_PROBE_LEGS};

/// One probing method.
///
/// Names are owned strings so method sets can be assembled at runtime
/// (scenario files, generated sweeps) instead of being `&'static`-bound
/// to the compiled-in presets.
#[derive(Debug, Clone)]
pub struct Method {
    /// Display name as the paper prints it.
    pub name: String,
    /// Route tactic per packet (1 to [`MAX_PROBE_LEGS`] entries).
    pub legs: Vec<RouteTag>,
    /// Delay between consecutive packets (0 = back-to-back).
    pub gap: SimDuration,
    /// Whether every copy after the first must take a path distinct
    /// from the first copy's (§3.2 multi-path pairs: true; the
    /// same-path dd probes: false).
    pub distinct: bool,
    /// Strengthens `distinct` for k > 2 probes: every copy avoids the
    /// paths of **all** earlier copies, not just the first copy's.
    /// False is the historical behavior (and the serde default), where
    /// copies beyond the second may share a detour with each other.
    pub all_prior: bool,
}

impl Method {
    /// A single-packet method.
    pub fn single(name: &str, tag: RouteTag) -> Method {
        Method {
            name: name.to_string(),
            legs: vec![tag],
            gap: SimDuration::ZERO,
            distinct: false,
            all_prior: false,
        }
    }

    /// A 2-redundant multi-path pair: copies must use distinct paths.
    pub fn pair(name: &str, a: RouteTag, b: RouteTag, gap: SimDuration) -> Method {
        Method {
            name: name.to_string(),
            legs: vec![a, b],
            gap,
            distinct: true,
            all_prior: false,
        }
    }

    /// A k-redundant multi-path probe: one copy per tag, consecutive
    /// copies `gap` apart, every copy after the first on a path distinct
    /// from the first copy's.
    pub fn redundant(name: &str, legs: Vec<RouteTag>, gap: SimDuration) -> Method {
        Method { name: name.to_string(), legs, gap, distinct: true, all_prior: false }
    }

    /// A same-path pair (direct direct / dd 10 ms / dd 20 ms).
    fn same_path(name: &str, gap: SimDuration) -> Method {
        Method {
            name: name.to_string(),
            legs: vec![RouteTag::Direct, RouteTag::Direct],
            gap,
            distinct: false,
            all_prior: false,
        }
    }
}

/// An inferred single-packet view of one leg of a real method.
#[derive(Debug, Clone)]
pub struct View {
    /// Display name (`direct*`, `lat*`).
    pub name: String,
    /// Index of the source method in [`MethodSet::methods`].
    pub source: u8,
    /// Which leg to extract.
    pub leg: u8,
}

/// The methods a dataset sends, plus its inferred views.
#[derive(Debug, Clone)]
pub struct MethodSet {
    /// Actually transmitted probe types.
    pub methods: Vec<Method>,
    /// Inferred single-leg views.
    pub views: Vec<View>,
}

impl MethodSet {
    /// Total analysis-method count (real + views). Views get indices
    /// `methods.len()..`.
    pub fn total(&self) -> usize {
        self.methods.len() + self.views.len()
    }

    /// Display names in analysis-method id order, borrowed.
    fn iter_names(&self) -> impl Iterator<Item = &str> {
        self.methods
            .iter()
            .map(|m| m.name.as_str())
            .chain(self.views.iter().map(|v| v.name.as_str()))
    }

    /// Display names indexed by analysis-method id.
    pub fn names(&self) -> Vec<String> {
        self.iter_names().map(str::to_string).collect()
    }

    /// Analysis-method id by display name. Iterates borrowed names —
    /// this is hot in report rendering, where the old owned-`names()`
    /// round trip re-allocated the full list per lookup.
    pub fn index_of(&self, name: &str) -> Option<u8> {
        self.iter_names().position(|n| n == name).map(|i| i as u8)
    }

    /// The redundancy degree: the maximum copies any method sends
    /// (views are single-packet and never raise it). At least 1.
    pub fn max_legs(&self) -> usize {
        self.methods.iter().map(|m| m.legs.len()).max().unwrap_or(1).max(1)
    }

    /// Structural validation of a built set — the single source of truth
    /// for every path a method set can arrive by (compiled presets,
    /// `MethodSetSpec` from a scenario file, programmatic construction):
    /// leg counts within the wire cap, probe spans within the collector
    /// window, unique names, in-range view references, and a total that
    /// fits the u8 method-id space.
    pub fn validate(&self) -> Result<(), String> {
        if self.methods.is_empty() {
            return Err("`methods` must not be empty".to_string());
        }
        if self.total() > u8::MAX as usize {
            return Err(format!(
                "`methods` + `views` must fit the u8 method-id space (at most {}), got {}",
                u8::MAX,
                self.total()
            ));
        }
        for m in &self.methods {
            if m.name.is_empty() {
                return Err("method `name` must not be empty".to_string());
            }
            if m.legs.is_empty() || m.legs.len() > MAX_PROBE_LEGS {
                return Err(format!(
                    "method `{}` must send 1 to {MAX_PROBE_LEGS} legs, got {}",
                    m.name,
                    m.legs.len()
                ));
            }
            if m.distinct && m.legs.len() < 2 {
                return Err(format!("method `{}` is `distinct` but sends a single copy", m.name));
            }
            if m.all_prior && !m.distinct {
                // all_prior is a strengthening of distinct; alone it
                // would promise diversity the first copy never asked for.
                return Err(format!(
                    "method `{}` sets `all_prior` without `distinct`",
                    m.name
                ));
            }
            // Leg i departs i gaps after the first copy, but the
            // collector resolves the probe one receive window (60 s by
            // default) after that first copy: a straggler leg would
            // split the probe id into partial outcomes. Cap the whole
            // span at 10 s — far inside the window (delays are bounded
            // at a few seconds), far above the paper's 10–20 ms gaps.
            // Checked multiply: an absurd gap (e.g. a saturated build
            // from a huge `gap_ms`) must yield this error, not a
            // debug-build overflow panic.
            let span_us = m.gap.as_micros().checked_mul(m.legs.len() as u64 - 1);
            if span_us.is_none_or(|s| s > SimDuration::from_secs(10).as_micros()) {
                return Err(format!(
                    "method `{}` spans {} from first to last copy ((legs - 1) x gap; \
                     at most 10s, or the collector's receive window would close mid-probe)",
                    m.name,
                    span_us.map_or_else(|| "an overflowing time".to_string(), |s| {
                        SimDuration::from_micros(s).to_string()
                    })
                ));
            }
        }
        for v in &self.views {
            if v.name.is_empty() {
                return Err("view `name` must not be empty".to_string());
            }
            let Some(source) = self.methods.get(v.source as usize) else {
                return Err(format!(
                    "view `{}` references method {} but only {} exist",
                    v.name,
                    v.source,
                    self.methods.len()
                ));
            };
            if v.leg as usize >= source.legs.len() {
                return Err(format!(
                    "view `{}` references leg {} of `{}`, which sends {} legs",
                    v.name,
                    v.leg,
                    source.name,
                    source.legs.len()
                ));
            }
        }
        let mut names: Vec<&str> = self.iter_names().collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate method/view name `{}`", w[0]));
        }
        Ok(())
    }

    /// The RON2003 method set (§4, "six sets of probes" plus the two
    /// inferred rows of Table 5).
    pub fn ron2003() -> MethodSet {
        let methods = vec![
            Method::single("loss", RouteTag::Loss),
            Method::pair("direct rand", RouteTag::Direct, RouteTag::Rand, SimDuration::ZERO),
            // Leg order chosen to match Table 5's numbers: the 1lp column
            // of "lat loss" equals the lat* row exactly, so the first
            // copy rides the latency-optimised route and the second rides
            // the loss-optimised route on a distinct path.
            Method::pair("lat loss", RouteTag::Lat, RouteTag::Loss, SimDuration::ZERO),
            Method::same_path("direct direct", SimDuration::ZERO),
            Method::same_path("dd 10 ms", SimDuration::from_millis(10)),
            Method::same_path("dd 20 ms", SimDuration::from_millis(20)),
        ];
        let views = vec![
            View { name: "direct*".into(), source: 1, leg: 0 },
            View { name: "lat*".into(), source: 2, leg: 0 },
        ];
        MethodSet { methods, views }
    }

    /// The RONnarrow 2002 method set: "one-way samples for three routing
    /// methods" (plus the same two inferred rows for Table 5's 2002
    /// half).
    pub fn ron_narrow() -> MethodSet {
        let methods = vec![
            Method::single("loss", RouteTag::Loss),
            Method::pair("direct rand", RouteTag::Direct, RouteTag::Rand, SimDuration::ZERO),
            Method::pair("lat loss", RouteTag::Lat, RouteTag::Loss, SimDuration::ZERO),
        ];
        let views = vec![
            View { name: "direct*".into(), source: 1, leg: 0 },
            View { name: "lat*".into(), source: 2, leg: 0 },
        ];
        MethodSet { methods, views }
    }

    /// The RONwide 2002 method set: the twelve round-trip route
    /// combinations of Table 7.
    pub fn ron_wide() -> MethodSet {
        use RouteTag::*;
        let z = SimDuration::ZERO;
        let methods = vec![
            Method::single("direct", Direct),
            Method::single("rand", Rand),
            Method::single("lat", Lat),
            Method::single("loss", Loss),
            Method::same_path("direct direct", z),
            Method::pair("rand rand", Rand, Rand, z),
            Method::pair("direct rand", Direct, Rand, z),
            Method::pair("direct lat", Direct, Lat, z),
            Method::pair("direct loss", Direct, Loss, z),
            Method::pair("rand lat", Rand, Lat, z),
            Method::pair("rand loss", Rand, Loss, z),
            Method::pair("lat loss", Lat, Loss, z),
        ];
        MethodSet { methods, views: Vec::new() }
    }
}

/// Serde form of one probing method, as scenario files spell it.
///
/// The gap is carried in milliseconds (`gap_ms`) rather than an opaque
/// duration so hand-written files stay readable.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSpec {
    /// Display name (must be unique across the set, views included).
    pub name: String,
    /// Route tactic per copy, first to last (1 to [`MAX_PROBE_LEGS`]).
    pub legs: Vec<RouteTag>,
    /// Delay between consecutive copies, milliseconds (0 = back-to-back).
    pub gap_ms: f64,
    /// Whether copies after the first must avoid the first copy's path.
    pub distinct: bool,
    /// Full-diversity strengthening of `distinct`: every copy avoids
    /// **all** earlier copies' paths. Optional in files and omitted from
    /// JSON when false, so every pre-existing spec keeps its canonical
    /// serialization — and therefore its digest and goldens.
    pub all_prior: bool,
}

// Hand-written so the `all_prior` key only exists on the wire when it
// is true: the derive would emit `"all_prior":false` into every spec,
// shifting ScenarioSpec::digest for all existing scenarios and
// invalidating their golden fingerprints.
impl serde::Serialize for MethodSpec {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("name", &self.name);
        m.field("legs", &self.legs);
        m.field("gap_ms", &self.gap_ms);
        m.field("distinct", &self.distinct);
        if self.all_prior {
            m.field("all_prior", &self.all_prior);
        }
        m.end();
    }
}

impl serde::Deserialize for MethodSpec {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<MethodSpec, serde::Error> {
        let (name, legs, gap_ms, distinct, all_prior) = serde::read_fields!(
            r,
            "MethodSpec",
            [name, legs, gap_ms, distinct],
            optional = [all_prior]
        );
        Ok(MethodSpec { name, legs, gap_ms, distinct, all_prior: all_prior.unwrap_or(false) })
    }
}

/// Serde form of an inferred single-packet view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewSpec {
    /// Display name (the paper's `*` convention is just a convention).
    pub name: String,
    /// Index of the source method within the spec's `methods` list.
    pub source: u8,
    /// Which leg of the source method to extract.
    pub leg: u8,
}

/// A complete user-defined method set: what a scenario file carries when
/// it opts out of the compiled presets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSetSpec {
    /// Actually transmitted probe types.
    pub methods: Vec<MethodSpec>,
    /// Inferred single-leg views.
    pub views: Vec<ViewSpec>,
}

impl MethodSetSpec {
    /// Semantic validation. The serde layer checks only what the built
    /// form cannot express — a non-finite or negative `gap_ms` (the
    /// build would silently round it into a duration) — then delegates
    /// every structural rule to [`MethodSet::validate`], the single
    /// validator all construction paths share. Scenario resolution runs
    /// this before anything reaches the runner, so an oversized or
    /// dangling spec fails with a named field instead of a panic deep
    /// inside the experiment.
    pub fn validate(&self) -> Result<(), String> {
        for (i, m) in self.methods.iter().enumerate() {
            if !(m.gap_ms.is_finite() && m.gap_ms >= 0.0) {
                return Err(format!(
                    "`methods[{i}].gap_ms` must be finite and non-negative, got {}",
                    m.gap_ms
                ));
            }
        }
        self.build().validate()
    }

    /// Total analysis-method count (real + views).
    pub fn total(&self) -> usize {
        self.methods.len() + self.views.len()
    }

    /// Materializes the runnable method set. Call
    /// [`validate`](Self::validate) first; this does not re-check.
    pub fn build(&self) -> MethodSet {
        MethodSet {
            methods: self
                .methods
                .iter()
                .map(|m| Method {
                    name: m.name.clone(),
                    legs: m.legs.clone(),
                    gap: SimDuration::from_micros((m.gap_ms * 1_000.0).round() as u64),
                    distinct: m.distinct,
                    all_prior: m.all_prior,
                })
                .collect(),
            views: self
                .views
                .iter()
                .map(|v| View { name: v.name.clone(), source: v.source, leg: v.leg })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ron2003_has_six_probe_sets_and_two_views() {
        let s = MethodSet::ron2003();
        assert_eq!(s.methods.len(), 6);
        assert_eq!(s.views.len(), 2);
        assert_eq!(s.total(), 8, "the eight rows of Table 5 (2003)");
        // dd methods must share tactics but differ in gap.
        let dd = s.index_of("direct direct").unwrap() as usize;
        let dd10 = s.index_of("dd 10 ms").unwrap() as usize;
        assert_eq!(s.methods[dd].legs, s.methods[dd10].legs);
        assert_eq!(s.methods[dd].gap, SimDuration::ZERO);
        assert_eq!(s.methods[dd10].gap, SimDuration::from_millis(10));
    }

    #[test]
    fn views_reference_the_documented_legs() {
        let s = MethodSet::ron2003();
        let direct_star = &s.views[0];
        assert_eq!(direct_star.name, "direct*");
        assert_eq!(s.methods[direct_star.source as usize].name, "direct rand");
        assert_eq!(direct_star.leg, 0, "inferred from the FIRST packet");
        let lat_star = &s.views[1];
        assert_eq!(s.methods[lat_star.source as usize].name, "lat loss");
        assert_eq!(lat_star.leg, 0, "Table 5: lat loss 1lp == lat* exactly");
    }

    #[test]
    fn lat_loss_sends_lat_first_and_requires_distinct_paths() {
        let s = MethodSet::ron2003();
        let ll = &s.methods[s.index_of("lat loss").unwrap() as usize];
        assert_eq!(ll.legs, vec![RouteTag::Lat, RouteTag::Loss]);
        assert!(ll.distinct);
        let dd = &s.methods[s.index_of("direct direct").unwrap() as usize];
        assert!(!dd.distinct, "dd probes intentionally share the path");
    }

    #[test]
    fn ron_wide_matches_table_7() {
        let s = MethodSet::ron_wide();
        assert_eq!(s.methods.len(), 12);
        assert!(s.views.is_empty());
        for name in [
            "direct", "rand", "lat", "loss", "direct direct", "rand rand", "direct rand",
            "direct lat", "direct loss", "rand lat", "rand loss", "lat loss",
        ] {
            assert!(s.index_of(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn names_cover_views() {
        let s = MethodSet::ron_narrow();
        let names = s.names();
        assert_eq!(names.len(), 5);
        assert_eq!(s.index_of("direct*"), Some(3));
        assert_eq!(s.index_of("lat*"), Some(4));
        assert_eq!(s.index_of("bogus"), None);
    }

    #[test]
    fn max_legs_tracks_the_widest_method() {
        assert_eq!(MethodSet::ron2003().max_legs(), 2);
        let mut s = MethodSet::ron_narrow();
        s.methods.push(Method::redundant(
            "triple",
            vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Loss],
            SimDuration::ZERO,
        ));
        assert_eq!(s.max_legs(), 3);
        let empty = MethodSet { methods: Vec::new(), views: Vec::new() };
        assert_eq!(empty.max_legs(), 1, "degenerate sets still have depth 1");
    }

    fn triple_spec() -> MethodSetSpec {
        MethodSetSpec {
            methods: vec![
                MethodSpec {
                    name: "direct".into(),
                    legs: vec![RouteTag::Direct],
                    gap_ms: 0.0,
                    distinct: false,
                    all_prior: false,
                },
                MethodSpec {
                    name: "triple".into(),
                    legs: vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Loss],
                    gap_ms: 10.0,
                    distinct: true,
                    all_prior: false,
                },
            ],
            views: vec![ViewSpec { name: "triple[0]*".into(), source: 1, leg: 0 }],
        }
    }

    #[test]
    fn method_set_spec_builds_what_it_says() {
        let spec = triple_spec();
        spec.validate().expect("valid spec");
        let set = spec.build();
        assert_eq!(set.total(), 3);
        assert_eq!(set.max_legs(), 3);
        let t = &set.methods[set.index_of("triple").unwrap() as usize];
        assert_eq!(t.legs, vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Loss]);
        assert_eq!(t.gap, SimDuration::from_millis(10));
        assert!(t.distinct);
        assert_eq!(set.index_of("triple[0]*"), Some(2));
    }

    #[test]
    fn method_set_spec_validation_names_the_offence() {
        let err = |f: fn(&mut MethodSetSpec)| {
            let mut s = triple_spec();
            f(&mut s);
            s.validate().unwrap_err()
        };
        assert!(err(|s| s.methods.clear()).contains("must not be empty"));
        assert!(err(|s| s.methods[1].legs = vec![RouteTag::Direct; MAX_PROBE_LEGS + 1])
            .contains("1 to 4 legs"));
        assert!(err(|s| s.methods[1].legs.clear()).contains("1 to 4 legs"));
        assert!(err(|s| s.methods[0].gap_ms = f64::NAN).contains("gap_ms"));
        assert!(err(|s| s.methods[0].gap_ms = -1.0).contains("gap_ms"));
        // A 3-leg probe at 6 s gaps spans 12 s — past the 10 s cap that
        // keeps every leg inside the collector's receive window.
        assert!(err(|s| s.methods[1].gap_ms = 6_000.0).contains("receive window"));
        // A saturated build from an absurd gap must error, not overflow.
        assert!(err(|s| s.methods[1].gap_ms = 2.0e16).contains("receive window"));
        assert!(err(|s| s.methods[0].distinct = true).contains("single copy"));
        assert!(err(|s| s.views[0].source = 9).contains("only 2 exist"));
        assert!(err(|s| s.views[0].leg = 3).contains("sends 3 legs"));
        assert!(err(|s| s.views[0].name = "triple".into()).contains("duplicate"));
        assert!(err(|s| s.methods[0].name = String::new()).contains("name"));
        let mut oversize = triple_spec();
        oversize.views = (0..255)
            .map(|i| ViewSpec { name: format!("v{i}"), source: 1, leg: 0 })
            .collect();
        assert!(oversize.validate().unwrap_err().contains("u8 method-id space"));
    }

    #[test]
    fn all_prior_requires_distinct() {
        let mut s = triple_spec();
        s.methods[1].all_prior = true;
        s.methods[1].distinct = false;
        assert!(s.validate().unwrap_err().contains("all_prior"));
        s.methods[1].distinct = true;
        assert!(s.validate().is_ok(), "all_prior + distinct is the valid combination");
    }

    #[test]
    fn all_prior_is_omitted_from_the_wire_when_false() {
        // Existing scenario files (and their digests) predate the knob:
        // a false `all_prior` must serialize to the exact historical JSON.
        let spec = MethodSpec {
            name: "dd".into(),
            legs: vec![RouteTag::Direct, RouteTag::Direct],
            gap_ms: 0.0,
            distinct: false,
            all_prior: false,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(
            json,
            r#"{"name":"dd","legs":["Direct","Direct"],"gap_ms":0.0,"distinct":false}"#
        );
        let back: MethodSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn all_prior_round_trips_when_set() {
        let spec = MethodSpec {
            name: "r3!".into(),
            legs: vec![RouteTag::Rand; 3],
            gap_ms: 10.0,
            distinct: true,
            all_prior: true,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains(r#""all_prior":true"#));
        let back: MethodSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Unknown keys still rejected (strict wire).
        assert!(serde_json::from_str::<MethodSpec>(
            r#"{"name":"x","legs":["Rand"],"gap_ms":0,"distinct":false,"al_prior":true}"#
        )
        .is_err());
    }

    #[test]
    fn built_sets_share_the_same_validator() {
        // Programmatic construction (no serde involved) flows through
        // MethodSet::validate too — the wire cap holds everywhere.
        let mut s = MethodSet::ron2003();
        assert!(s.validate().is_ok(), "presets must validate");
        s.methods.push(Method::redundant(
            "quint",
            vec![RouteTag::Rand; MAX_PROBE_LEGS + 1],
            SimDuration::ZERO,
        ));
        assert!(s.validate().unwrap_err().contains("1 to 4 legs"));
    }
}
