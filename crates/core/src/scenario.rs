//! The declarative scenario API: serde-serializable experiment
//! conditions plus an open registry of named built-ins.
//!
//! A [`ScenarioSpec`] is everything that defines *the conditions a
//! comparison runs under*: the testbed shape, the method set, the
//! campaign length, and an impairment plan (shared-risk outage groups,
//! moving load waves, flash crowds, directional asymmetry — the
//! [`netsim::stress`] models). Specs round-trip through JSON, so new
//! workloads are a file, not a code change:
//!
//! ```text
//! repro --list-scenarios
//! repro --scenario correlated-outages --days 0.5
//! repro --dump-scenario flash-crowd > my.json   # edit, then:
//! repro --scenario-file my.json
//! ```
//!
//! The [`ScenarioRegistry`] holds the named specs: the three paper
//! campaigns (re-expressed as specs) plus synthetic stress scenarios
//! probing exactly the conditions where the best-path vs. multi-path
//! question flips. Beside them, the `repro` binary validates and runs
//! user-written spec files directly — including files whose
//! [`MethodsSpec::Custom`] set defines k-redundant probe methods the
//! paper never ran.
//!
//! Determinism: a spec plus a seed fully determine the run.
//! [`ScenarioSpec::digest`] folds the spec's canonical JSON into a
//! 64-bit value that is stamped (with the scenario name) into every
//! [`ExperimentOutput`] and its fingerprint, so two reports can only
//! compare equal when they ran identical conditions.

use crate::experiment::{run_experiment, ExperimentConfig, ExperimentOutput};
use crate::method::{MethodSet, MethodSetSpec};
use analysis::Fnv;
use netsim::stress::{
    apply_flash_crowds, apply_load_wave, apply_shared_risk, AsymmetrySpec, FlashCrowdSpec,
    LoadWaveSpec, SharedRiskSpec,
};
use netsim::{SimDuration, Topology};
use overlay::DisseminationMode;
use serde::{Deserialize, Serialize};

/// The testbed a scenario runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The 30-host 2003 RON testbed.
    Ron2003,
    /// The 17-host 2002 RON testbed (hotter links, no Cornell episode).
    Ron2002,
    /// A uniform synthetic circle: fully controlled, no background
    /// weather unless the impairment plan scripts some.
    Synthetic {
        /// Host count (≥ 2).
        hosts: usize,
        /// Stationary loss of every access segment.
        edge_loss: f64,
    },
    /// A synthetic circle whose hosts peer only with a sparse,
    /// seed-derived `mesh_k`-regular neighbor set instead of the full
    /// clique (see [`netsim::sparse_mesh`]) — the scaling knob for
    /// testbeds far beyond the paper's 30 hosts. The mesh is the
    /// overlay's neighbor set, not only the measurement plan: a host
    /// sends overlay probes to, keeps link state for and detours
    /// through its `mesh_k` neighbors and nobody else, and measurement
    /// probes go to one of them. A *new* variant (not a new field)
    /// so every pre-existing spec's canonical JSON, digest and golden
    /// fingerprint stay byte-identical.
    SparseSynthetic {
        /// Host count (≥ 2).
        hosts: usize,
        /// Stationary loss of every access segment.
        edge_loss: f64,
        /// Probe-mesh degree: every host peers with exactly this many
        /// others. `hosts * mesh_k` must be even (graph parity).
        mesh_k: usize,
    },
}

impl TopologySpec {
    /// Host count, without building the O(hosts²) testbed.
    pub fn hosts(&self) -> usize {
        match self {
            TopologySpec::Ron2003 => 30,
            TopologySpec::Ron2002 => 17,
            TopologySpec::Synthetic { hosts, .. } => *hosts,
            TopologySpec::SparseSynthetic { hosts, .. } => *hosts,
        }
    }

    /// The sparse probe-mesh degree, when this topology declares one.
    pub fn mesh_k(&self) -> Option<usize> {
        match self {
            TopologySpec::SparseSynthetic { mesh_k, .. } => Some(*mesh_k),
            _ => None,
        }
    }
}

/// The probe methods a scenario cycles through: a compiled-in preset,
/// or a fully user-defined set carried inside the scenario file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MethodsSpec {
    /// The six 2003 probe sets plus the two inferred views (8 rows).
    Ron2003,
    /// The three 2002 one-way methods plus two views.
    RonNarrow,
    /// The twelve 2002 round-trip combinations.
    RonWide,
    /// A user-defined method set (see [`MethodSetSpec`]) — including
    /// k-redundant probes the paper never ran.
    Custom(MethodSetSpec),
}

impl MethodsSpec {
    /// Materializes the method set.
    pub fn build(&self) -> MethodSet {
        match self {
            MethodsSpec::Ron2003 => MethodSet::ron2003(),
            MethodsSpec::RonNarrow => MethodSet::ron_narrow(),
            MethodsSpec::RonWide => MethodSet::ron_wide(),
            MethodsSpec::Custom(spec) => spec.build(),
        }
    }

    /// Semantic validation. Both arms funnel into
    /// [`MethodSet::validate`] — the presets are valid by construction
    /// but still flow through the same checks, so a preset edit that
    /// overflowed the method-id space, dangled a view, or stretched a
    /// probe past the collector window is caught identically.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MethodsSpec::Custom(spec) => spec.validate(),
            _ => self.build().validate(),
        }
    }

    /// Total analysis-method count without building route tables.
    pub fn total(&self) -> usize {
        match self {
            MethodsSpec::Custom(spec) => spec.total(),
            _ => self.build().total(),
        }
    }
}

/// The scripted impairments layered onto the testbed. Every entry is
/// optional (`null` in JSON); the paper scenarios use none.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentPlan {
    /// Shared-risk link groups: correlated cross-path outages.
    pub shared_risk: Option<SharedRiskSpec>,
    /// A moving congestion hot spot sweeping the hosts.
    pub load_wave: Option<LoadWaveSpec>,
    /// Demand spikes converging on single destinations.
    pub flash_crowd: Option<FlashCrowdSpec>,
    /// Direction-skewed loss and latency.
    pub asymmetry: Option<AsymmetrySpec>,
}

impl ImpairmentPlan {
    /// No scripted impairments (the paper campaigns).
    pub fn none() -> Self {
        ImpairmentPlan { shared_risk: None, load_wave: None, flash_crowd: None, asymmetry: None }
    }
}

/// Calibration knobs forwarded into [`ExperimentConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// User-space forwarder drop probability at intermediates.
    pub forward_drop: f64,
    /// Per-host pause between probes, seconds (§4.1: 0.6–1.2).
    pub wait_range_s: (f64, f64),
    /// Disable the diurnal load swing.
    pub flat_load: bool,
    /// Workload-slice width for the sharded runner, hours.
    pub slice_hours: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            forward_drop: 0.008,
            wait_range_s: (0.6, 1.2),
            flat_load: false,
            slice_hours: 6.0,
        }
    }
}

/// Serde form of the link-state dissemination strategy, as scenario
/// files spell it (see [`overlay::dissem`] for the machinery).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DisseminationSpec {
    /// The full metric snapshot piggybacks on every probe — the
    /// historical default, byte-identical to specs written before this
    /// knob existed.
    FullSnapshot,
    /// Sequence-numbered delta LSAs: probes carry no metrics; a
    /// standalone LSA ships only the entries that changed since the
    /// neighbor last acknowledged, with an anti-entropy full refresh
    /// every `max_age_probes` probes per neighbor.
    ///
    /// That refresh is all that re-stamps an unchanged entry, so routes
    /// stay informed only while `max_age_probes × prober.interval ×
    /// (1 + jitter_frac) ≤ staleness` — at most 5 with the default 15 s,
    /// 0.2 and 90 s. On `ron2003` 4 leaves 0.2 % of route look-ups
    /// facing an expired entry for 84 % fewer LSA bytes than full
    /// snapshots; 8 leaves 21.9 %, 16 leaves 54.4 % (the numbers are on
    /// [`DisseminationMode::Delta`]). Validation does not enforce it.
    Delta {
        /// Probes to a neighbor between anti-entropy full refreshes
        /// (at least 1).
        max_age_probes: u32,
    },
}

impl DisseminationSpec {
    /// The runtime mode this spec selects.
    pub fn mode(&self) -> DisseminationMode {
        match *self {
            DisseminationSpec::FullSnapshot => DisseminationMode::FullSnapshot,
            DisseminationSpec::Delta { max_age_probes } => {
                DisseminationMode::Delta { max_age_probes }
            }
        }
    }

    /// True for the historical default (the variant omitted from
    /// canonical JSON).
    fn is_default(&self) -> bool {
        *self == DisseminationSpec::FullSnapshot
    }
}

/// A complete, serializable description of one experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name (kebab-case by convention).
    pub name: String,
    /// One-line description for `--list-scenarios`.
    pub summary: String,
    /// Testbed shape.
    pub topology: TopologySpec,
    /// Probe method set.
    pub methods: MethodsSpec,
    /// Full campaign length, simulated days (entry points accept a
    /// shorter override for scaled-down runs).
    pub days: f64,
    /// Horizon the scripted impairment/storm schedules cover, days.
    /// Usually equals [`days`](Self::days); the paper campaigns pin it
    /// to their historical preset horizons.
    pub horizon_days: f64,
    /// Round-trip probing (RONwide): targets echo measures back.
    pub round_trip: bool,
    /// Scripted impairments.
    pub impairments: ImpairmentPlan,
    /// Runner calibration.
    pub calibration: Calibration,
    /// How overlay nodes spread their link-state metrics. Optional in
    /// files and omitted from JSON when [`DisseminationSpec::FullSnapshot`],
    /// so every pre-existing spec keeps its canonical serialization —
    /// and therefore its digest and goldens.
    pub dissemination: DisseminationSpec,
}

// Hand-written so the `dissemination` key only exists on the wire when
// it departs from the full-snapshot default: the derive would emit
// `"dissemination":"FullSnapshot"` into every spec, shifting
// `ScenarioSpec::digest` for all existing scenarios and invalidating
// their golden fingerprints.
impl serde::Serialize for ScenarioSpec {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("name", &self.name);
        m.field("summary", &self.summary);
        m.field("topology", &self.topology);
        m.field("methods", &self.methods);
        m.field("days", &self.days);
        m.field("horizon_days", &self.horizon_days);
        m.field("round_trip", &self.round_trip);
        m.field("impairments", &self.impairments);
        m.field("calibration", &self.calibration);
        if !self.dissemination.is_default() {
            m.field("dissemination", &self.dissemination);
        }
        m.end();
    }
}

impl serde::Deserialize for ScenarioSpec {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<ScenarioSpec, serde::Error> {
        let (
            name,
            summary,
            topology,
            methods,
            days,
            horizon_days,
            round_trip,
            impairments,
            calibration,
            dissemination,
        ) = serde::read_fields!(
            r,
            "ScenarioSpec",
            [
                name,
                summary,
                topology,
                methods,
                days,
                horizon_days,
                round_trip,
                impairments,
                calibration
            ],
            optional = [dissemination]
        );
        Ok(ScenarioSpec {
            name,
            summary,
            topology,
            methods,
            days,
            horizon_days,
            round_trip,
            impairments,
            calibration,
            dissemination: dissemination.unwrap_or(DisseminationSpec::FullSnapshot),
        })
    }
}

impl ScenarioSpec {
    /// The scenario's full campaign duration.
    pub fn paper_duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.days * 86_400.0)
    }

    /// The scripted-impairment horizon as an exact integer-µs duration.
    ///
    /// This is the *single* days → µs conversion for the horizon. Every
    /// consumer — the topology builder compiling weather schedules,
    /// [`Self::config`]'s outrun assert, and the distributed runner's
    /// `CampaignJob::validate` on the far side of the wire — must share
    /// this one rounding: two independently written float conversions
    /// can disagree by an ulp, making a duration that lands exactly on
    /// the horizon validate on one host and fail on another.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.horizon_days * 86_400.0)
    }

    /// Semantic validation beyond JSON shape: value ranges that would
    /// otherwise panic deep inside the simulator. Returns a readable
    /// error naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        // Written as named predicates (not `x <= 0.0`) so NaN fails
        // validation too.
        fn positive(v: f64) -> bool {
            v > 0.0
        }
        fn at_least(v: f64, min: f64) -> bool {
            v >= min
        }
        fn pos_range(r: (f64, f64)) -> bool {
            r.0 > 0.0 && r.1 >= r.0
        }
        fn at_most(v: f64, max: f64) -> bool {
            v <= max
        }
        let err = |msg: String| Err(format!("scenario `{}`: {msg}", self.name));
        if let Err(e) = self.methods.validate() {
            return err(format!("`methods`: {e}"));
        }
        if !positive(self.days) {
            return err(format!("`days` must be positive, got {}", self.days));
        }
        if !positive(self.horizon_days) {
            return err(format!("`horizon_days` must be positive, got {}", self.horizon_days));
        }
        if !at_most(self.horizon_days, 366.0) {
            return err(format!(
                "`horizon_days` must be at most 366 (schedule compilation is O(horizon)), got {}",
                self.horizon_days
            ));
        }
        if !at_most(self.days, self.horizon_days) {
            return err(format!(
                "`days` ({}) must not exceed `horizon_days` ({}): the impairment and weather \
                 schedules only cover the horizon, so the campaign's tail would run \
                 impairment-free",
                self.days, self.horizon_days
            ));
        }
        let synth = match self.topology {
            TopologySpec::Synthetic { hosts, edge_loss } => Some((hosts, edge_loss)),
            TopologySpec::SparseSynthetic { hosts, edge_loss, .. } => Some((hosts, edge_loss)),
            _ => None,
        };
        if let Some((hosts, edge_loss)) = synth {
            if hosts < 2 {
                return err(format!("`topology.hosts` must be at least 2, got {hosts}"));
            }
            if hosts > 1_000 {
                return err(format!(
                    "`topology.hosts` must be at most 1000 (the testbed is O(hosts²)), got {hosts}"
                ));
            }
            if !(0.0..1.0).contains(&edge_loss) {
                return err(format!("`topology.edge_loss` must be in [0, 1), got {edge_loss}"));
            }
        }
        if let TopologySpec::SparseSynthetic { hosts, mesh_k, .. } = self.topology {
            if mesh_k == 0 || mesh_k >= hosts {
                return err(format!(
                    "`topology.mesh_k` must be in 1..hosts ({hosts}), got {mesh_k}"
                ));
            }
            if hosts * mesh_k % 2 != 0 {
                return err(format!(
                    "`topology.mesh_k` ({mesh_k}) x `hosts` ({hosts}) must be even: \
                     no {mesh_k}-regular mesh exists on {hosts} hosts"
                ));
            }
        }
        match self.dissemination {
            DisseminationSpec::FullSnapshot => {}
            DisseminationSpec::Delta { max_age_probes } => {
                if max_age_probes == 0 {
                    return err("`dissemination.max_age_probes` must be at least 1 \
                         (it paces the anti-entropy full refresh)"
                        .into());
                }
            }
        }
        let c = &self.calibration;
        if !(0.0..1.0).contains(&c.forward_drop) {
            return err(format!("`calibration.forward_drop` must be in [0, 1), got {}", c.forward_drop));
        }
        if !pos_range(c.wait_range_s) {
            return err(format!(
                "`calibration.wait_range_s` must be a positive ordered range, got {:?}",
                c.wait_range_s
            ));
        }
        // Floor, not just positivity: a microscopic (or zero, or NaN)
        // width used to be silently clamped deep in `SlicePlan::new`,
        // exploding a campaign into millions of slices — or one slice of
        // the wrong width — with no diagnostic.
        if !at_least(c.slice_hours, 1.0 / 3600.0) {
            return err(format!(
                "`calibration.slice_hours` must be at least 1/3600 (a one-second slice), got {}",
                c.slice_hours
            ));
        }
        if let Some(sr) = &self.impairments.shared_risk {
            if sr.groups == 0 || sr.hosts_per_group == 0 {
                return err("`shared_risk.groups` and `hosts_per_group` must be at least 1".into());
            }
            if sr.hosts_per_group > self.topology.hosts() {
                return err(format!(
                    "`shared_risk.hosts_per_group` ({}) exceeds the topology's {} hosts",
                    sr.hosts_per_group,
                    self.topology.hosts()
                ));
            }
            if sr.groups > 1_000 {
                return err(format!("`shared_risk.groups` must be at most 1000, got {}", sr.groups));
            }
            if !(at_least(sr.outages_per_day, 0.0) && at_most(sr.outages_per_day, 1_000.0)) {
                return err(format!("`shared_risk.outages_per_day` must be in [0, 1000], got {}", sr.outages_per_day));
            }
            if !pos_range(sr.down_mins) {
                return err(format!("`shared_risk.down_mins` must be a positive ordered range, got {:?}", sr.down_mins));
            }
            // Total-window bound: the planner pushes one window per
            // event onto *each* member's two access segments, so the
            // cap must include that fan-out (cf. load_wave's cycle cap).
            let events = sr.groups as f64 * sr.outages_per_day * self.horizon_days;
            let windows = events * sr.hosts_per_group as f64 * 2.0;
            if !at_most(windows, 1_000_000.0) {
                return err(format!(
                    "`shared_risk` compiles {windows:.0} scripted down-windows over the horizon \
                     (groups x outages_per_day x horizon_days x hosts_per_group x 2; \
                     at most 1000000)"
                ));
            }
        }
        if let Some(lw) = &self.impairments.load_wave {
            if !(positive(lw.period_hours) && positive(lw.dwell_mins) && at_least(lw.hot_factor, 1.0)) {
                return err(format!(
                    "`load_wave` needs positive period/dwell and hot_factor >= 1, got {lw:?}"
                ));
            }
            // The wave planner compiles horizon/period cycles of windows
            // per host; a microscopic period would allocate unboundedly.
            let cycles = self.horizon_days * 24.0 / lw.period_hours;
            if !at_most(cycles, 10_000.0) {
                return err(format!(
                    "`load_wave.period_hours` is too small: {cycles:.0} wave cycles over the \
                     horizon (at most 10000)"
                ));
            }
        }
        if let Some(fc) = &self.impairments.flash_crowd {
            if !(at_least(fc.events_per_day, 0.0) && at_most(fc.events_per_day, 1_000.0)) {
                return err(format!("`flash_crowd.events_per_day` must be in [0, 1000], got {}", fc.events_per_day));
            }
            if !pos_range(fc.duration_mins) {
                return err(format!("`flash_crowd.duration_mins` must be a positive ordered range, got {:?}", fc.duration_mins));
            }
            if !(at_least(fc.factor.0, 1.0) && fc.factor.1 >= fc.factor.0) {
                return err(format!("`flash_crowd.factor` must be an ordered range >= 1, got {:?}", fc.factor));
            }
            let events = fc.events_per_day * self.horizon_days;
            if !at_most(events, 10_000.0) {
                return err(format!(
                    "`flash_crowd` schedules {events:.0} events over the horizon (at most 10000)"
                ));
            }
        }
        if let Some(asym) = &self.impairments.asymmetry {
            if !positive(asym.loss_skew) {
                return err(format!("`asymmetry.loss_skew` must be positive, got {}", asym.loss_skew));
            }
            if !at_least(asym.delay_skew_ms, 0.0) {
                return err(format!("`asymmetry.delay_skew_ms` must be >= 0, got {}", asym.delay_skew_ms));
            }
        }
        Ok(())
    }

    /// A stable 64-bit digest over the spec's canonical JSON form.
    ///
    /// Stamped into every output and its fingerprint: reports compare
    /// equal only when they ran byte-identical conditions.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("scenario specs always serialize");
        let mut f = Fnv::new();
        f.write(json.as_bytes());
        f.finish()
    }

    /// The probe mesh the scenario declares — `mesh[h]` lists the hosts
    /// `h` probes — or `None` for the clique. Seed-derived: campaign
    /// entry points (run, run_sharded, the distributed job) all pass the
    /// *master* seed, so every slice, shard and worker derives the
    /// identical mesh, and the coordinator the pairs a result may hold.
    pub fn probe_mesh(&self, seed: u64) -> Option<Vec<Vec<u16>>> {
        match self.topology {
            TopologySpec::SparseSynthetic { hosts, mesh_k, .. } => {
                Some(netsim::sparse_mesh(hosts, mesh_k, seed))
            }
            _ => None,
        }
    }

    /// Builds the testbed: preset parameters, asymmetry skew applied
    /// before the build, scripted impairments compiled afterwards. Pure
    /// in `(self, seed)` — sharded slices rebuild it identically.
    pub fn topology(&self, seed: u64) -> Topology {
        let mut params = match self.topology {
            TopologySpec::Ron2003 => Topology::ron2003_params(),
            TopologySpec::Ron2002 => Topology::ron2002_params(),
            TopologySpec::Synthetic { edge_loss, .. }
            | TopologySpec::SparseSynthetic { edge_loss, .. } => {
                Topology::synthetic_params(edge_loss)
            }
        };
        params.horizon = self.horizon();
        if let Some(asym) = &self.impairments.asymmetry {
            asym.apply(&mut params);
        }
        let mut topo = match self.topology {
            TopologySpec::Ron2003 => Topology::ron2003_with(params, seed),
            TopologySpec::Ron2002 => Topology::ron2002_with(params, seed),
            TopologySpec::Synthetic { hosts, edge_loss }
            | TopologySpec::SparseSynthetic { hosts, edge_loss, .. } => {
                Topology::synthetic_with(hosts, edge_loss, params, seed)
            }
        };
        if let Some(mesh) = self.probe_mesh(seed) {
            topo.set_probe_mesh(mesh);
        }
        if let Some(sr) = &self.impairments.shared_risk {
            apply_shared_risk(&mut topo, sr, seed);
        }
        if let Some(lw) = &self.impairments.load_wave {
            apply_load_wave(&mut topo, lw);
        }
        if let Some(fc) = &self.impairments.flash_crowd {
            apply_flash_crowds(&mut topo, fc, seed);
        }
        topo
    }

    /// The method set this scenario probes.
    pub fn methods(&self) -> MethodSet {
        self.methods.build()
    }

    /// Experiment configuration with an optional duration override.
    ///
    /// # Panics
    ///
    /// On a semantically invalid spec (see [`Self::validate`]) — a
    /// negative `days`, for instance, would otherwise clamp to a
    /// zero-length campaign and produce a silently empty — yet
    /// name-and-digest-stamped — report. Also panics when `duration`
    /// outruns [`horizon_days`](Self::horizon_days): the impairment and
    /// weather schedules are only compiled over the horizon, so the
    /// tail would run impairment-free while the output still carried
    /// this scenario's name and digest.
    pub fn config(&self, seed: u64, duration: Option<SimDuration>) -> ExperimentConfig {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let effective = duration.unwrap_or_else(|| self.paper_duration());
        let horizon = self.horizon();
        assert!(
            effective <= horizon,
            "scenario `{}`: duration {effective} outruns the {}-day impairment horizon",
            self.name,
            self.horizon_days
        );
        let mut cfg = ExperimentConfig::new(self.methods());
        cfg.seed = seed;
        cfg.duration = effective;
        cfg.round_trip = self.round_trip;
        cfg.forward_drop = self.calibration.forward_drop;
        cfg.wait_range_s = self.calibration.wait_range_s;
        cfg.flat_load = self.calibration.flat_load;
        cfg.slice_width = SimDuration::from_secs_f64(self.calibration.slice_hours * 3600.0);
        cfg.dissemination = self.dissemination.mode();
        cfg.scenario = self.name.clone();
        cfg.spec_digest = self.digest();
        cfg
    }

    /// Runs the scenario end to end.
    pub fn run(&self, seed: u64, duration: Option<SimDuration>) -> ExperimentOutput {
        run_experiment(self.topology(seed), self.config(seed, duration))
    }

    /// Runs the scenario on `shards` worker threads. The report is
    /// byte-identical for every `shards` value (see [`crate::shard`]).
    pub fn run_sharded(
        &self,
        seed: u64,
        duration: Option<SimDuration>,
        shards: usize,
    ) -> ExperimentOutput {
        let mut cfg = self.config(seed, duration);
        cfg.shards = shards;
        run_experiment(self.topology(seed), cfg)
    }
}

/// An open, ordered collection of named scenarios.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRegistry {
    entries: Vec<ScenarioSpec>,
}

impl ScenarioRegistry {
    /// An empty registry.
    fn empty() -> Self {
        ScenarioRegistry { entries: Vec::new() }
    }

    /// The built-in catalog: the three paper campaigns plus the
    /// synthetic stress scenarios.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        for spec in builtin_specs() {
            r.register(spec).expect("builtin scenario names are unique");
        }
        r
    }

    /// Adds a scenario; rejects duplicate or empty names and
    /// semantically invalid specs (see [`ScenarioSpec::validate`]).
    fn register(&mut self, spec: ScenarioSpec) -> Result<(), String> {
        if spec.name.is_empty() {
            return Err("scenario name must not be empty".to_string());
        }
        if self.get(&spec.name).is_some() {
            return Err(format!("scenario `{}` is already registered", spec.name));
        }
        spec.validate()?;
        self.entries.push(spec);
        Ok(())
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.entries.iter().find(|s| s.name == name)
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.entries.iter()
    }

    /// Registered names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn paper(name: &str, summary: &str, topology: TopologySpec, methods: MethodsSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        summary: summary.to_string(),
        topology,
        methods,
        days: 0.0,         // campaign length set by the caller
        horizon_days: 0.0, // ditto
        round_trip: false,
        impairments: ImpairmentPlan::none(),
        calibration: Calibration::default(),
        dissemination: DisseminationSpec::FullSnapshot,
    }
}

/// The built-in scenario catalog.
pub fn builtin_specs() -> Vec<ScenarioSpec> {
    let mut ron2003 = paper(
        "ron2003",
        "the paper's RON2003 campaign: 30 hosts, 14 days, one-way, 8 Table-5 rows",
        TopologySpec::Ron2003,
        MethodsSpec::Ron2003,
    );
    ron2003.days = 14.0;
    ron2003.horizon_days = 14.0;

    let mut narrow = paper(
        "ron-narrow",
        "the paper's RONnarrow 2002 campaign: 17 hosts, 4 days, one-way, 3 methods",
        TopologySpec::Ron2002,
        MethodsSpec::RonNarrow,
    );
    narrow.days = 4.0;
    // The 2002 preset scripts its weather over the deployment's full 5
    // days (both 2002 datasets share one testbed era).
    narrow.horizon_days = 5.0;

    let mut wide = paper(
        "ron-wide",
        "the paper's RONwide 2002 campaign: 17 hosts, 5 days, round-trip, 12 combos",
        TopologySpec::Ron2002,
        MethodsSpec::RonWide,
    );
    wide.days = 5.0;
    wide.horizon_days = 5.0;
    wide.round_trip = true;

    let mut correlated = paper(
        "correlated-outages",
        "shared-risk link groups fail together: multipath's independence assumption breaks",
        TopologySpec::Ron2003,
        MethodsSpec::Ron2003,
    );
    correlated.days = 7.0;
    correlated.horizon_days = 7.0;
    correlated.impairments.shared_risk = Some(SharedRiskSpec {
        groups: 4,
        hosts_per_group: 5,
        outages_per_day: 3.0,
        down_mins: (3.0, 25.0),
    });

    let mut waves = paper(
        "load-waves",
        "a congestion hot spot sweeps all hosts daily: reactive routing chases a moving target",
        TopologySpec::Ron2003,
        MethodsSpec::Ron2003,
    );
    waves.days = 7.0;
    waves.horizon_days = 7.0;
    waves.impairments.load_wave =
        Some(LoadWaveSpec { period_hours: 24.0, dwell_mins: 90.0, hot_factor: 35.0 });

    let mut asym = paper(
        "asymmetric-paths",
        "forward direction 3x dirtier and 30 ms slower than reverse: one-way views diverge",
        TopologySpec::Ron2003,
        MethodsSpec::Ron2003,
    );
    asym.days = 7.0;
    asym.horizon_days = 7.0;
    asym.impairments.asymmetry = Some(AsymmetrySpec { loss_skew: 3.0, delay_skew_ms: 30.0 });

    let mut flash = paper(
        "flash-crowd",
        "demand spikes converge on single destinations: detours dodge the core, not the edge",
        TopologySpec::Ron2003,
        MethodsSpec::Ron2003,
    );
    flash.days = 7.0;
    flash.horizon_days = 7.0;
    flash.impairments.flash_crowd = Some(FlashCrowdSpec {
        events_per_day: 6.0,
        duration_mins: (15.0, 45.0),
        factor: (150.0, 400.0),
    });

    let mut sparse = paper(
        "sparse-mesh",
        "120 hosts on a sparse 6-regular probe mesh: the clique replaced by the scaling knob",
        TopologySpec::SparseSynthetic { hosts: 120, edge_loss: 0.02, mesh_k: 6 },
        MethodsSpec::Ron2003,
    );
    sparse.days = 7.0;
    sparse.horizon_days = 7.0;

    vec![ron2003, narrow, wide, correlated, waves, asym, flash, sparse]
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SegmentId;

    #[test]
    fn builtin_catalog_has_paper_and_stress_entries() {
        let r = ScenarioRegistry::builtin();
        assert!(r.len() >= 7, "3 paper + >= 4 stress, got {}", r.len());
        for name in [
            "ron2003",
            "ron-narrow",
            "ron-wide",
            "correlated-outages",
            "load-waves",
            "asymmetric-paths",
            "flash-crowd",
            "sparse-mesh",
        ] {
            assert!(r.get(name).is_some(), "missing builtin `{name}`");
        }
        assert!(!r.is_empty());
    }

    #[test]
    fn paper_scenarios_match_the_dataset_shapes() {
        let r = ScenarioRegistry::builtin();
        let ron2003 = r.get("ron2003").unwrap();
        assert_eq!(ron2003.topology(1).n(), 30);
        assert_eq!(ron2003.methods().total(), 8);
        assert_eq!(ron2003.paper_duration(), SimDuration::from_days(14));
        let narrow = r.get("ron-narrow").unwrap();
        assert_eq!(narrow.topology(1).n(), 17);
        assert_eq!(narrow.methods().total(), 5);
        let wide = r.get("ron-wide").unwrap();
        assert_eq!(wide.methods().total(), 12);
        assert!(wide.round_trip && !narrow.round_trip);
    }

    #[test]
    fn registry_rejects_duplicates_and_empty_names() {
        let mut r = ScenarioRegistry::builtin();
        let dup = r.get("ron2003").unwrap().clone();
        assert!(r.register(dup).unwrap_err().contains("already registered"));
        let mut anon = r.get("ron2003").unwrap().clone();
        anon.name = String::new();
        assert!(r.register(anon).is_err());
    }

    #[test]
    fn validate_catches_semantic_nonsense_with_readable_errors() {
        let base = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        assert!(base.validate().is_ok(), "builtins must validate");

        let mut one_host = base.clone();
        one_host.topology = TopologySpec::Synthetic { hosts: 1, edge_loss: 0.01 };
        assert!(one_host.validate().unwrap_err().contains("at least 2"));

        let mut zero_skew = base.clone();
        zero_skew.impairments.asymmetry =
            Some(AsymmetrySpec { loss_skew: 0.0, delay_skew_ms: 0.0 });
        assert!(zero_skew.validate().unwrap_err().contains("loss_skew"));

        let mut bad_wait = base.clone();
        bad_wait.calibration.wait_range_s = (1.2, 0.6);
        assert!(bad_wait.validate().unwrap_err().contains("wait_range_s"));

        let mut bad_days = base.clone();
        bad_days.days = -1.0;
        let err = bad_days.validate().unwrap_err();
        assert!(err.contains("`days`") && err.contains("ron2003"), "got: {err}");

        // Unbounded-allocation guards: a microscopic wave period or an
        // absurd horizon must be rejected, not compiled.
        let mut tiny_period = base.clone();
        tiny_period.impairments.load_wave =
            Some(LoadWaveSpec { period_hours: 1e-8, dwell_mins: 60.0, hot_factor: 35.0 });
        assert!(tiny_period.validate().unwrap_err().contains("period_hours"));
        let mut huge_horizon = base.clone();
        huge_horizon.horizon_days = 1e9;
        assert!(huge_horizon.validate().unwrap_err().contains("horizon_days"));
        let mut event_flood = base.clone();
        event_flood.impairments.shared_risk = Some(SharedRiskSpec {
            groups: 1000,
            hosts_per_group: 5,
            outages_per_day: 1000.0,
            down_mins: (1.0, 2.0),
        });
        assert!(event_flood.validate().unwrap_err().contains("scripted down-windows"));
        let mut oversize_group = base.clone();
        oversize_group.impairments.shared_risk = Some(SharedRiskSpec {
            groups: 1,
            hosts_per_group: 50, // ron2003 has 30 hosts
            outages_per_day: 1.0,
            down_mins: (1.0, 2.0),
        });
        assert!(oversize_group.validate().unwrap_err().contains("exceeds the topology"));
        let mut outlives = base;
        outlives.days = outlives.horizon_days * 2.0;
        assert!(outlives.validate().unwrap_err().contains("horizon_days"));

        // The registry refuses to hold an invalid spec.
        let mut r = ScenarioRegistry::empty();
        let mut invalid = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        invalid.days = 0.0;
        assert!(r.register(invalid).is_err());
    }

    #[test]
    fn digest_tracks_spec_content() {
        let r = ScenarioRegistry::builtin();
        let a = r.get("ron2003").unwrap().digest();
        assert_eq!(a, r.get("ron2003").unwrap().digest(), "digest is stable");
        let mut tweaked = r.get("ron2003").unwrap().clone();
        tweaked.calibration.forward_drop += 1e-4;
        assert_ne!(a, tweaked.digest(), "any spec change must move the digest");
        assert_ne!(a, r.get("ron-narrow").unwrap().digest());
    }

    #[test]
    fn sparse_synthetic_validates_and_round_trips() {
        let base = ScenarioRegistry::builtin().get("sparse-mesh").unwrap().clone();
        assert!(base.validate().is_ok(), "builtin sparse-mesh must validate");
        assert_eq!(base.topology.mesh_k(), Some(6));
        assert_eq!(base.topology.hosts(), 120);

        let with_mesh = |hosts, mesh_k| {
            let mut s = base.clone();
            s.topology = TopologySpec::SparseSynthetic { hosts, edge_loss: 0.02, mesh_k };
            s
        };
        let err = with_mesh(10, 0).validate().unwrap_err();
        assert!(err.contains("mesh_k") && err.contains("1..hosts"), "got: {err}");
        let err = with_mesh(10, 10).validate().unwrap_err();
        assert!(err.contains("1..hosts"), "got: {err}");
        // Graph parity: no 3-regular mesh exists on 9 hosts.
        let err = with_mesh(9, 3).validate().unwrap_err();
        assert!(err.contains("must be even"), "got: {err}");
        assert!(with_mesh(9, 4).validate().is_ok(), "9 x 4 is even and fine");

        // JSON round trip with a stable digest, and the mesh degree is
        // part of the identity: a clique twin must not collide.
        let json = serde_json::to_string(&base).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, base);
        assert_eq!(back.digest(), base.digest());
        let mut clique = base.clone();
        clique.topology = TopologySpec::Synthetic { hosts: 120, edge_loss: 0.02 };
        assert_ne!(clique.digest(), base.digest());
        assert_ne!(with_mesh(120, 8).digest(), base.digest());
    }

    #[test]
    fn dissemination_field_is_invisible_until_it_departs_from_default() {
        let base = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        assert!(base.dissemination.is_default());
        let json = serde_json::to_string(&base).unwrap();
        assert!(
            !json.contains("dissemination"),
            "default dissemination must stay off the wire (digest stability): {json}"
        );
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, base, "omitted field deserializes to the default");

        // The non-default mode round-trips with a moved digest.
        let mut tweaked = base.clone();
        tweaked.dissemination = DisseminationSpec::Delta { max_age_probes: 16 };
        assert!(tweaked.validate().is_ok());
        let json = serde_json::to_string(&tweaked).unwrap();
        assert!(json.contains("dissemination"), "got: {json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tweaked);
        assert_ne!(tweaked.digest(), base.digest(), "the knob is part of the identity");
        assert_eq!(back.digest(), tweaked.digest());
    }

    #[test]
    fn dissemination_validation_rejects_degenerate_knobs() {
        let base = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        let mut zero_age = base;
        zero_age.dissemination = DisseminationSpec::Delta { max_age_probes: 0 };
        assert!(zero_age.validate().unwrap_err().contains("max_age_probes"));
    }

    #[test]
    fn dissemination_spec_reaches_the_experiment_config() {
        let mut spec = paper(
            "tiny-delta",
            "unit-test delta dissemination scenario",
            TopologySpec::Synthetic { hosts: 4, edge_loss: 0.0 },
            MethodsSpec::RonNarrow,
        );
        spec.days = 0.02;
        spec.horizon_days = 0.02;
        spec.calibration.flat_load = true;
        spec.dissemination = DisseminationSpec::Delta { max_age_probes: 8 };
        let cfg = spec.config(3, None);
        assert_eq!(cfg.dissemination, DisseminationMode::Delta { max_age_probes: 8 });
        let out = spec.run(3, None);
        assert!(out.measure_legs > 0, "delta-mode scenario must still measure");
    }

    #[test]
    fn sparse_mesh_scenario_probes_only_mesh_pairs() {
        use crate::method::{MethodSpec, MethodSetSpec};
        use netsim::HostId;
        use overlay::RouteTag;
        let (hosts, mesh_k, seed) = (10usize, 3usize, 7u64);
        let mut spec = paper(
            "tiny-sparse",
            "unit-test sparse-mesh scenario",
            TopologySpec::SparseSynthetic { hosts, edge_loss: 0.02, mesh_k },
            MethodsSpec::Custom(MethodSetSpec {
                methods: vec![MethodSpec {
                    name: "direct".into(),
                    legs: vec![RouteTag::Direct],
                    gap_ms: 0.0,
                    distinct: false,
                    all_prior: false,
                }],
                views: vec![],
            }),
        );
        spec.days = 0.02;
        spec.horizon_days = 0.02;
        spec.calibration.flat_load = true;
        spec.validate().expect("sparse spec validates");
        let out = spec.run(seed, None);
        assert!(out.measure_legs > 0, "the sparse run must move traffic");
        // The campaign entry point derives the mesh from the master
        // seed, so this reconstruction is exact — and core pair
        // scheduling must never have probed outside it.
        let mesh = netsim::sparse_mesh(hosts, mesh_k, seed);
        let (mut on, mut off) = (0u64, 0u64);
        for (src, nbrs) in mesh.iter().enumerate() {
            for dst in 0..hosts {
                if src == dst {
                    continue;
                }
                let pairs = out.loss.cell(0, HostId(src as u16), HostId(dst as u16)).pairs;
                if nbrs.contains(&(dst as u16)) {
                    on += pairs;
                } else {
                    assert_eq!(
                        pairs, 0,
                        "probe traffic outside the mesh: {src} -> {dst} saw {pairs} pairs"
                    );
                    off += 1;
                }
            }
        }
        assert!(on > 100, "mesh pairs must carry the whole campaign, got {on}");
        // 3-regular on 10 hosts: 6 of each host's 9 peers are off-mesh.
        assert_eq!(off as usize, hosts * (hosts - 1 - mesh_k));
        // The overlay underneath runs the same mesh: each host probes
        // its mesh_k peers once per 15 s round (loss-triggered chains and
        // the drain tail add a little), and a probe's request and
        // response each carry at most one entry per peer.
        let rounds = spec.days * 86_400.0 / 15.0;
        let per_round = out.overlay_probes as f64 / rounds / (hosts * mesh_k) as f64;
        assert!((0.8..=1.2).contains(&per_round), "{per_round} overlay probes per peer per round");
        let entries_per_probe = out.net.lsa_entries as f64 / out.overlay_probes as f64;
        assert!(entries_per_probe <= 2.0 * mesh_k as f64, "{entries_per_probe} entries per probe");
    }

    #[test]
    fn slice_hours_below_one_second_is_rejected() {
        let base = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        for bad in [0.0, -1.0, 1e-9, f64::NAN] {
            let mut spec = base.clone();
            spec.calibration.slice_hours = bad;
            let err = spec.validate().unwrap_err();
            assert!(err.contains("slice_hours"), "slice_hours = {bad}: got {err}");
        }
        // The floor itself (a one-second slice) is legal.
        let mut floor = base;
        floor.calibration.slice_hours = 1.0 / 3600.0;
        assert!(floor.validate().is_ok());
    }

    #[test]
    fn duration_exactly_on_the_horizon_validates_everywhere() {
        // Regression: the scenario and job layers used to convert
        // `horizon_days` to a duration independently; with a fractional
        // horizon the two float paths could disagree by one ulp, so a
        // campaign pinned to exactly the horizon validated on one layer
        // and failed on the other. Both now share `ScenarioSpec::horizon`.
        let mut spec = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        spec.days = 0.1; // 0.1 * 86 400 is not exactly representable
        spec.horizon_days = 0.1;
        spec.validate().expect("spec validates");
        let exact = spec.horizon();
        let _ = spec.config(1, Some(exact)); // must not panic
        let job = crate::distrib::CampaignJob {
            spec: spec.clone(),
            seed: 1,
            duration_us: exact.as_micros(),
            slice_width_us: 0,
        };
        job.validate().expect("exact-horizon job must validate on the wire side too");
        // One microsecond past the horizon still fails on both layers.
        let over = crate::distrib::CampaignJob { duration_us: exact.as_micros() + 1, ..job };
        assert!(over.validate().unwrap_err().contains("outruns"));
    }

    #[test]
    fn stress_scenarios_actually_impair_the_testbed() {
        let r = ScenarioRegistry::builtin();
        let specs = |t: &Topology| {
            (0..t.segments()).map(|i| t.spec(SegmentId(i as u32))).collect::<Vec<_>>()
        };
        let sr = r.get("correlated-outages").unwrap().topology(1);
        assert!(
            specs(&sr).iter().any(|s| !s.down.is_empty()),
            "shared-risk windows missing"
        );
        let lw = r.get("load-waves").unwrap().topology(1);
        let waves: usize = specs(&lw).iter().map(|s| s.hot.len()).sum();
        let base: usize = specs(&Topology::ron2003(1)).iter().map(|s| s.hot.len()).sum();
        assert!(waves > base, "load wave adds hot windows ({waves} vs {base})");
        let asym = r.get("asymmetric-paths").unwrap().topology(1);
        assert!((asym.params().dir_loss_skew - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "`days` must be positive")]
    fn running_an_invalid_spec_panics_instead_of_silently_doing_nothing() {
        let mut spec = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        spec.days = -1.0; // would clamp to a zero-length campaign
        let _ = spec.config(1, None);
    }

    #[test]
    fn probe_leg_caps_agree_across_crates() {
        // `trace` and `overlay` are sibling crates, so the wire cap is
        // duplicated; this is the pin that keeps the copies equal.
        assert_eq!(overlay::MAX_PROBE_LEGS, trace::record::MAX_PROBE_LEGS);
    }

    #[test]
    fn custom_method_scenario_runs_a_3_redundant_probe() {
        use crate::method::{MethodSpec, MethodSetSpec, ViewSpec};
        use overlay::RouteTag;
        let set = MethodSetSpec {
            methods: vec![
                MethodSpec {
                    name: "direct".into(),
                    legs: vec![RouteTag::Direct],
                    gap_ms: 0.0,
                    distinct: false,
                    all_prior: false,
                },
                MethodSpec {
                    name: "triple rand".into(),
                    legs: vec![RouteTag::Direct, RouteTag::Rand, RouteTag::Rand],
                    gap_ms: 0.0,
                    distinct: true,
                    all_prior: false,
                },
            ],
            views: vec![ViewSpec { name: "triple rand*".into(), source: 1, leg: 0 }],
        };
        let mut spec = paper(
            "tiny-triple",
            "unit-test 3-redundant scenario",
            TopologySpec::Synthetic { hosts: 5, edge_loss: 0.02 },
            MethodsSpec::Custom(set),
        );
        spec.days = 0.05;
        spec.horizon_days = 0.05;
        spec.calibration.flat_load = true;
        spec.validate().expect("custom spec validates");
        let out = spec.run(3, None);
        assert_eq!(out.names, vec!["direct", "triple rand", "triple rand*"]);
        assert_eq!(out.loss.depth(), 3);
        let t = out.summary("triple rand").unwrap();
        assert!(t.pairs > 100, "the 3-leg method must actually probe");
        let curve = out.loss.best_of_first_pct(out.index_of("triple rand").unwrap());
        assert_eq!(curve.len(), 3);
        assert!(
            curve.windows(2).all(|w| w[1] <= w[0]),
            "redundancy can only help: {curve:?}"
        );
        assert!(
            (curve[2] - t.totlp).abs() < 1e-9,
            "best-of-first-k equals end-to-end loss"
        );
        // The view mirrors the first leg of the triple.
        let v = out.summary("triple rand*").unwrap();
        assert_eq!(v.pairs, t.pairs);
        // And the spec round-trips through JSON with a stable digest.
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
    }

    #[test]
    fn invalid_custom_methods_fail_at_resolve_time_with_named_fields() {
        use crate::method::{MethodSpec, MethodSetSpec, ViewSpec};
        use overlay::RouteTag;
        let mut spec = ScenarioRegistry::builtin().get("ron2003").unwrap().clone();
        spec.methods = MethodsSpec::Custom(MethodSetSpec {
            methods: vec![MethodSpec {
                name: "m".into(),
                legs: vec![RouteTag::Direct],
                gap_ms: 0.0,
                distinct: false,
                all_prior: false,
            }],
            views: vec![ViewSpec { name: "v".into(), source: 0, leg: 2 }],
        });
        let e = spec.validate().unwrap_err();
        assert!(e.contains("`methods`") && e.contains("leg 2"), "got: {e}");
        // The registry refuses it too — nothing reaches the runner.
        assert!(ScenarioRegistry::empty().register(spec).is_err());
    }

    #[test]
    fn scenario_run_stamps_name_and_digest() {
        let mut spec = paper(
            "tiny",
            "unit-test scenario",
            TopologySpec::Synthetic { hosts: 4, edge_loss: 0.0 },
            MethodsSpec::RonNarrow,
        );
        spec.days = 0.02;
        spec.horizon_days = 0.02;
        spec.calibration.flat_load = true;
        let out = spec.run(3, None);
        assert_eq!(out.scenario, "tiny");
        assert_eq!(out.spec_digest, spec.digest());
        assert!(out.measure_legs > 0);
    }
}
