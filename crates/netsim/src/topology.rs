//! Testbed topologies: hosts, host classes, and per-segment parameters.
//!
//! The presets reproduce the RON testbed of the paper: [`Topology::ron2003`]
//! builds the 30 hosts of Table 1 (with the Table 2 class mix), and
//! [`Topology::ron2002`] the 17-host 2002 deployment. Host coordinates are
//! approximate city locations; access-link quality is derived from the
//! host class (Internet2 university, ISP, cable modem, DSL, international
//! academic, ...), matching the paper's description ("from OC3s to cable
//! modems and DSL links", §4).
//!
//! A topology is *pure data*: host metadata, the 2n access
//! [`SegmentSpec`]s, and for the n² core segments only what the build drew
//! for each ordered pair. [`Topology::spec`] derives a core spec from those
//! draws when the [`crate::net::Network`] first animates the segment.

use crate::clock::ClockModel;
use crate::latency::{Episode, LatencyModel};
use crate::loss::GeParams;
use crate::outage::OutageParams;
use crate::rng::Rng;
use crate::segment::{SegmentId, SegmentSpec};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of a host within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u16);

impl HostId {
    /// The index as usize, for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Access-link technology / administrative class of a host (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostClass {
    /// US university on the Internet2 backbone (asterisks in Table 1).
    EduI2,
    /// University host not on Internet2.
    Edu,
    /// Large commercial ISP point of presence.
    IspLarge,
    /// Small or regional ISP.
    IspSmall,
    /// Private company connection.
    Company,
    /// Residential cable modem.
    Cable,
    /// Residential DSL line.
    Dsl,
    /// International university.
    IntlEdu,
    /// International ISP.
    IntlIsp,
}

impl HostClass {
    /// Baseline stationary loss of each access segment of this class at
    /// load intensity 1.0.
    pub fn edge_loss(self) -> f64 {
        match self {
            HostClass::EduI2 => 0.00008,
            HostClass::Edu => 0.0008,
            HostClass::IspLarge => 0.0006,
            HostClass::IspSmall => 0.0020,
            HostClass::Company => 0.0012,
            HostClass::Cable => 0.0050,
            HostClass::Dsl => 0.0080,
            HostClass::IntlEdu => 0.0030,
            HostClass::IntlIsp => 0.0015,
        }
    }

    /// Extra one-way propagation on the access link (last-mile delay).
    pub fn edge_prop(self) -> SimDuration {
        match self {
            HostClass::EduI2 => SimDuration::from_micros(300),
            HostClass::Edu => SimDuration::from_micros(500),
            HostClass::IspLarge => SimDuration::from_micros(400),
            HostClass::IspSmall => SimDuration::from_micros(800),
            HostClass::Company => SimDuration::from_micros(600),
            HostClass::Cable => SimDuration::from_millis(4),
            HostClass::Dsl => SimDuration::from_millis(7),
            HostClass::IntlEdu => SimDuration::from_millis(1),
            HostClass::IntlIsp => SimDuration::from_micros(800),
        }
    }

    /// Mean days between access-link failures.
    pub fn edge_mtbf_days(self) -> f64 {
        match self {
            HostClass::EduI2 => 18.0,
            HostClass::Edu => 12.0,
            HostClass::IspLarge => 15.0,
            HostClass::IspSmall => 8.0,
            HostClass::Company => 10.0,
            HostClass::Cable => 6.0,
            HostClass::Dsl => 5.0,
            HostClass::IntlEdu => 8.0,
            HostClass::IntlIsp => 10.0,
        }
    }
}

/// One testbed host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostInfo {
    /// Short name (Table 1 column 1).
    pub name: String,
    /// Access class.
    pub class: HostClass,
    /// Approximate latitude of the host city.
    pub lat: f64,
    /// Approximate longitude of the host city.
    pub lon: f64,
    /// On the Internet2 backbone.
    pub i2: bool,
    /// Override of the class edge loss (e.g. the Korea↔US DSL extreme of
    /// §4.2).
    pub edge_loss_override: Option<f64>,
}

/// Global knobs distinguishing testbed eras and scenarios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyParams {
    /// Multiplier on all stationary congestion loss (2002 ran hotter).
    pub loss_scale: f64,
    /// Stationary loss of a generic core segment.
    pub core_loss: f64,
    /// Stationary loss of an Internet2-to-Internet2 core segment.
    pub i2_core_loss: f64,
    /// Multiplier on failure frequency.
    pub outage_scale: f64,
    /// Per-host lognormal diversity (log-space sigma) applied to edge loss.
    pub diversity_sigma: f64,
    /// Range of routing inflation over great-circle propagation for core
    /// segments (sampled per ordered pair).
    pub inflation: (f64, f64),
    /// Fixed per-core-segment delay (router hops, serialisation).
    pub core_base_delay: SimDuration,
    /// Fraction of hosts with GPS-disciplined clocks (§4.1: "most").
    pub gps_fraction: f64,
    /// Whether hosts occasionally crash (process restarts; filtered by the
    /// collector's 90 s rule).
    pub host_crashes: bool,
    /// Whether segments suffer outages at all (disabled in fully
    /// controlled synthetic topologies; tests inject faults explicitly).
    pub outages: bool,
    /// Scripted hot periods (congestion storms) per simulated day.
    pub hot_periods_per_day: f64,
    /// Intensity multiplier range of hot periods.
    pub hot_factor: (f64, f64),
    /// New per-path trouble episodes per day: hours-long congestion on a
    /// single ordered pair's core segment. These are the pathologies
    /// reactive routing can dodge (a detour through any intermediate
    /// avoids the troubled core), unlike edge storms which every path to
    /// the host shares. The Table 6 tail and the loss-routing gain both
    /// come from here.
    pub pair_trouble_per_day: f64,
    /// Trouble episode duration range, hours.
    pub trouble_hours: (f64, f64),
    /// Trouble episode intensity multiplier range.
    pub trouble_factor: (f64, f64),
    /// Add the §4.5 Cornell-style latency pathology.
    pub cornell_episode: bool,
    /// Direction skew on core-segment loss: the "forward" direction of
    /// every ordered pair (`src < dst`) gets its stationary loss
    /// multiplied by this factor, the reverse direction divided by it.
    /// `1.0` (the default) is a symmetric network; `3.0` models the
    /// asymmetric-path pathology where one direction of a path is far
    /// dirtier than the other (think saturated peering in one direction).
    pub dir_loss_skew: f64,
    /// Direction skew on core-segment delay: extra one-way propagation
    /// added to the forward (`src < dst`) direction only. Zero keeps the
    /// network symmetric.
    pub dir_delay_skew: SimDuration,
    /// Horizon the scripted schedules should cover.
    pub horizon: SimDuration,
}

impl Default for TopologyParams {
    fn default() -> Self {
        TopologyParams {
            loss_scale: 1.0,
            core_loss: 0.0004,
            i2_core_loss: 0.00002,
            outage_scale: 1.0,
            diversity_sigma: 0.65,
            inflation: (1.7, 3.2),
            core_base_delay: SimDuration::from_millis(3),
            gps_fraction: 0.8,
            host_crashes: true,
            outages: true,
            hot_periods_per_day: 3.0,
            hot_factor: (15.0, 60.0),
            pair_trouble_per_day: 0.0,
            trouble_hours: (1.0, 4.0),
            trouble_factor: (150.0, 700.0),
            cornell_episode: false,
            dir_loss_skew: 1.0,
            dir_delay_skew: SimDuration::ZERO,
            horizon: SimDuration::from_days(14),
        }
    }
}

/// The most hosts a [`Topology`] can hold: [`HostId`] is a `u16`, and
/// [`Topology::seg_core`]'s `2n + src·n + dst` is exact in `u32` up to
/// here and overflows one host later.
pub const MAX_HOSTS: usize = u16::MAX as usize;

/// The scripted windows of one segment, each list in push order.
#[derive(Debug, Clone, Default)]
struct Scripted {
    hot: Vec<(SimTime, SimTime, f64)>,
    down: Vec<(SimTime, SimTime)>,
}

/// A complete testbed description.
///
/// A core segment's spec is a pure function of its hosts, the build
/// parameters and two per-pair draws, so the topology keeps the draws
/// (8 or 16 bytes per ordered pair) and [`Topology::spec`] recomputes the
/// spec on demand, bit for bit what an eager build would have stored.
#[derive(Debug, Clone)]
pub struct Topology {
    hosts: Vec<HostInfo>,
    clocks: Vec<ClockModel>,
    /// The 2n access specs, indexed by [`SegmentId`]; their scripted
    /// windows live in `scripted`.
    edges: Vec<SegmentSpec>,
    /// Routing-inflation draw of the core `src → dst`, at `src·n + dst`
    /// (0 on the diagonal, which draws nothing).
    core_inflation: Vec<f64>,
    /// Lognormal loss-diversity draw of each core, laid out like
    /// `core_inflation`; empty when `diversity_sigma` is 0 and nothing is
    /// drawn.
    core_mult: Vec<f64>,
    /// Scripted hot and down windows: the build's storms and trouble
    /// episodes and the [`crate::stress`] planners' windows.
    scripted: BTreeMap<SegmentId, Scripted>,
    params: TopologyParams,
    /// Optional sparse probe mesh: `probe_mesh[h]` lists the hosts `h`
    /// peers with — the only ones it probes, keeps link state for and
    /// routes through. `None` means the historical full clique.
    probe_mesh: Option<std::sync::Arc<Vec<Vec<u16>>>>,
}

/// A deterministic, seed-derived `k`-regular probe mesh on `n` hosts.
///
/// Construction: a seed-derived permutation arranges the hosts on a
/// circle, then each host connects to its `k/2` nearest successors and
/// predecessors (a circulant), plus its antipode when `k` is odd. The
/// result is exactly `k`-regular with no duplicate edges, symmetric
/// (`b ∈ mesh[a] ⇔ a ∈ mesh[b]`), and a pure function of `(n, k, seed)`
/// — every slice, shard and distributed worker derives the identical
/// mesh. Neighbor lists come back sorted ascending.
///
/// # Panics
///
/// When no `k`-regular graph on `n` vertices exists: `k` must be in
/// `1..n` and `n * k` must be even.
pub fn sparse_mesh(n: usize, k: usize, seed: u64) -> Vec<Vec<u16>> {
    assert!(n >= 2 && k >= 1 && k < n, "mesh degree {k} must be in 1..{n}");
    assert!(
        (n * k).is_multiple_of(2),
        "no {k}-regular graph on {n} hosts exists (hosts x degree must be even)"
    );
    let mut order: Vec<u16> = (0..n as u16).collect();
    Rng::new(seed ^ 0x5AB5_E5ED_0E5B_0A7D).shuffle(&mut order);
    let mut mesh: Vec<Vec<u16>> = vec![Vec::with_capacity(k); n];
    let connect = |mesh: &mut Vec<Vec<u16>>, a: u16, b: u16| {
        mesh[a as usize].push(b);
        mesh[b as usize].push(a);
    };
    // Circulant rings at distance 1..=k/2: each adds degree 2. Every
    // distance is below n/2 (k < n), so no ring duplicates another.
    for d in 1..=k / 2 {
        for i in 0..n {
            connect(&mut mesh, order[i], order[(i + d) % n]);
        }
    }
    if k % 2 == 1 {
        // The evenness guard above makes n even here: a perfect
        // antipodal matching contributes the remaining odd degree.
        for i in 0..n / 2 {
            connect(&mut mesh, order[i], order[i + n / 2]);
        }
    }
    for nbrs in &mut mesh {
        nbrs.sort_unstable();
    }
    mesh
}

/// Great-circle distance between two (lat, lon) points, km.
fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (la1, lo1) = (a.0.to_radians(), a.1.to_radians());
    let (la2, lo2) = (b.0.to_radians(), b.1.to_radians());
    let dla = la2 - la1;
    let dlo = lo2 - lo1;
    let h = (dla / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlo / 2.0).sin().powi(2);
    2.0 * 6371.0 * h.sqrt().asin()
}

struct HostRow(&'static str, HostClass, f64, f64, bool, Option<f64>);

/// Table 1 of the paper, with approximate coordinates and our class
/// assignment. The `Option<f64>` overrides edge loss for the §4.2
/// extremes.
const RON2003_HOSTS: &[HostRow] = &[
    HostRow("Aros", HostClass::IspSmall, 40.76, -111.89, false, None),
    HostRow("AT&T", HostClass::IspLarge, 40.79, -74.39, false, None),
    HostRow("CA-DSL", HostClass::Dsl, 37.55, -122.27, false, None),
    HostRow("CCI", HostClass::Company, 40.76, -111.89, false, None),
    HostRow("CMU", HostClass::EduI2, 40.44, -79.94, true, None),
    HostRow("Coloco", HostClass::IspSmall, 39.10, -76.85, false, None),
    HostRow("Cornell", HostClass::EduI2, 42.44, -76.50, true, None),
    HostRow("Cybermesa", HostClass::IspSmall, 35.69, -105.94, false, None),
    HostRow("Digitalwest", HostClass::IspSmall, 35.28, -120.66, false, None),
    HostRow("GBLX-AMS", HostClass::IntlIsp, 52.37, 4.90, false, None),
    HostRow("GBLX-ANA", HostClass::IspLarge, 33.84, -117.91, false, None),
    HostRow("GBLX-CHI", HostClass::IspLarge, 41.88, -87.63, false, None),
    HostRow("GBLX-JFK", HostClass::IspLarge, 40.64, -73.78, false, None),
    HostRow("GBLX-LON", HostClass::IntlIsp, 51.51, -0.13, false, None),
    HostRow("Intel", HostClass::Company, 37.44, -122.14, false, None),
    HostRow("Korea", HostClass::IntlEdu, 36.37, 127.36, false, Some(0.018)),
    HostRow("Lulea", HostClass::IntlEdu, 65.58, 22.15, false, None),
    HostRow("MA-Cable", HostClass::Cable, 42.37, -71.11, false, None),
    HostRow("Mazu", HostClass::Company, 42.36, -71.06, false, None),
    HostRow("MIT", HostClass::EduI2, 42.36, -71.09, true, None),
    HostRow("MIT-main", HostClass::Edu, 42.36, -71.09, false, None),
    HostRow("NC-Cable", HostClass::Cable, 35.99, -78.90, false, None),
    HostRow("Nortel", HostClass::Company, 43.65, -79.38, false, None),
    HostRow("NYU", HostClass::EduI2, 40.73, -73.99, true, None),
    HostRow("PDI", HostClass::Company, 37.44, -122.14, false, None),
    HostRow("PSG", HostClass::IspSmall, 47.63, -122.52, false, None),
    HostRow("UCSD", HostClass::EduI2, 32.88, -117.23, true, None),
    HostRow("Utah", HostClass::EduI2, 40.76, -111.89, true, None),
    HostRow("Vineyard", HostClass::IspSmall, 42.37, -71.10, false, None),
    HostRow("VU-NL", HostClass::IntlEdu, 52.33, 4.86, false, None),
];

/// The 17 hosts of the 2002 datasets. The paper marks them in bold in
/// Table 1 (not recoverable from the text), so this is our documented
/// choice of the plausible early-RON subset.
const RON2002_NAMES: &[&str] = &[
    "Aros", "AT&T", "CA-DSL", "CCI", "CMU", "Cornell", "Cybermesa", "Intel", "Korea", "Lulea",
    "MA-Cable", "MIT", "NC-Cable", "Nortel", "NYU", "PDI", "Utah",
];

impl Topology {
    /// Number of hosts.
    pub fn n(&self) -> usize {
        self.hosts.len()
    }

    /// Host metadata.
    pub fn hosts(&self) -> &[HostInfo] {
        &self.hosts
    }

    /// Host metadata by id.
    pub fn host(&self, h: HostId) -> &HostInfo {
        &self.hosts[h.idx()]
    }

    /// The clock model of a host.
    pub fn clock(&self, h: HostId) -> &ClockModel {
        &self.clocks[h.idx()]
    }

    /// Looks a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .position(|h| h.name == name)
            .map(|i| HostId(i as u16))
    }

    /// The build parameters.
    pub fn params(&self) -> &TopologyParams {
        &self.params
    }

    /// The number of segments: 2n access segments, then n² cores.
    pub fn segments(&self) -> usize {
        self.edges.len() + self.core_inflation.len()
    }

    /// The spec of one segment, with its scripted windows attached. A
    /// core spec is derived from the pair's draws on every call.
    ///
    /// # Panics
    ///
    /// When `id` is not below [`Self::segments`].
    pub fn spec(&self, id: SegmentId) -> SegmentSpec {
        let i = id.0 as usize;
        let mut spec = match self.edges.get(i) {
            Some(edge) => edge.clone(),
            None => self.core_spec(i - self.edges.len()),
        };
        if let Some(s) = self.scripted.get(&id) {
            spec.hot.clone_from(&s.hot);
            spec.down.clone_from(&s.down);
        }
        spec
    }

    /// The spec of the core at `pair = src·n + dst`, from the pair's
    /// stored draws; the diagonal is an unused ideal segment.
    fn core_spec(&self, pair: usize) -> SegmentSpec {
        let (n, params) = (self.n(), &self.params);
        let (i, j) = (pair / n, pair % n);
        if i == j {
            return SegmentSpec::ideal(SimDuration::from_millis(1));
        }
        let (hi, hj) = (&self.hosts[i], &self.hosts[j]);
        let base = if hi.i2 && hj.i2 { params.i2_core_loss } else { params.core_loss };
        let mult = self.core_mult.get(pair).copied().unwrap_or(1.0);
        // Per-direction asymmetry: the forward (i < j) direction carries
        // the skew, the reverse its inverse, so the *pair* mean stays put
        // while the directions diverge.
        let dir_mult = if i < j { params.dir_loss_skew } else { 1.0 / params.dir_loss_skew };
        let loss = (base * mult * params.loss_scale * dir_mult).min(0.1);
        let dist = haversine_km((hi.lat, hi.lon), (hj.lat, hj.lon));
        let dir_extra_us = if i < j { params.dir_delay_skew.as_micros() as f64 } else { 0.0 };
        let prop_us = params.core_base_delay.as_micros() as f64
            + dist / 200.0 * 1000.0 * self.core_inflation[pair]
            + dir_extra_us;
        let outage = if params.outages {
            OutageParams::core(20.0 / params.outage_scale)
        } else {
            OutageParams::never()
        };
        SegmentSpec {
            loss: GeParams::from_stationary_loss(loss),
            outage,
            latency: LatencyModel::typical(SimDuration::from_micros(prop_us as u64)),
            hot: Vec::new(),
            down: Vec::new(),
        }
    }

    /// Scripts a hot window onto a segment, after the ones it has.
    pub(crate) fn push_hot(&mut self, id: SegmentId, window: (SimTime, SimTime, f64)) {
        self.scripted.entry(id).or_default().hot.push(window);
    }

    /// Scripts a down window onto a segment, after the ones it has.
    pub(crate) fn push_down(&mut self, id: SegmentId, window: (SimTime, SimTime)) {
        self.scripted.entry(id).or_default().down.push(window);
    }

    /// Heap bytes this topology holds: access specs, per-pair draws,
    /// scripted windows, hosts, clocks and the probe mesh. The scripted
    /// table's tree nodes are counted at their entries' size, so this is
    /// a close lower bound, not an allocator reading.
    pub fn approx_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let edges = heap(&self.edges)
            + self.edges.iter().map(|s| heap(&s.latency.episodes)).sum::<usize>();
        let draws = heap(&self.core_inflation) + heap(&self.core_mult);
        let scripted = self
            .scripted
            .values()
            .map(|s| std::mem::size_of::<(SegmentId, Scripted)>() + heap(&s.hot) + heap(&s.down))
            .sum::<usize>();
        let hosts = heap(&self.hosts) + self.hosts.iter().map(|h| h.name.capacity()).sum::<usize>();
        let mesh = self
            .probe_mesh
            .as_ref()
            .map_or(0, |m| heap(m) + m.iter().map(heap).sum::<usize>());
        edges + draws + scripted + hosts + heap(&self.clocks) + mesh
    }

    /// The sparse probe mesh, if one is installed: `mesh[h]` lists the
    /// hosts `h` peers with, ascending. `None` means the full clique.
    pub fn probe_mesh(&self) -> Option<&std::sync::Arc<Vec<Vec<u16>>>> {
        self.probe_mesh.as_ref()
    }

    /// Installs a sparse probe mesh (see [`sparse_mesh`]).
    ///
    /// # Panics
    ///
    /// When the mesh's shape does not fit this topology: one neighbor
    /// list per host, no empty list, no self-loops, every neighbor in
    /// range. Or when the overlay could not honour it: each list must
    /// be strictly ascending (a neighbor's slot is found by binary
    /// search, and a duplicate would be probed twice as often) and the
    /// mesh symmetric (`b ∈ mesh[a] ⇔ a ∈ mesh[b]`: a host that probes
    /// me must be one I keep state for).
    pub fn set_probe_mesh(&mut self, mesh: Vec<Vec<u16>>) {
        assert_eq!(mesh.len(), self.n(), "probe mesh must cover every host");
        for (h, nbrs) in mesh.iter().enumerate() {
            assert!(!nbrs.is_empty(), "host {h} has no probe neighbors");
            assert!(
                nbrs.iter().all(|&b| (b as usize) < self.n() && b as usize != h),
                "host {h} has an out-of-range or self neighbor"
            );
            if let Some(w) = nbrs.windows(2).find(|w| w[0] >= w[1]) {
                panic!("host {h} lists neighbor {} before {}: not strictly ascending", w[0], w[1]);
            }
        }
        for (a, nbrs) in mesh.iter().enumerate() {
            for &b in nbrs {
                assert!(
                    mesh[b as usize].binary_search(&(a as u16)).is_ok(),
                    "probe mesh is asymmetric: host {a} lists {b}, host {b} does not list {a}"
                );
            }
        }
        self.probe_mesh = Some(std::sync::Arc::new(mesh));
    }

    /// The outbound access segment of a host.
    pub fn seg_out(&self, h: HostId) -> SegmentId {
        SegmentId(2 * h.0 as u32)
    }

    /// The inbound access segment of a host.
    pub fn seg_in(&self, h: HostId) -> SegmentId {
        SegmentId(2 * h.0 as u32 + 1)
    }

    /// The core segment of the ordered pair `src → dst`.
    pub fn seg_core(&self, src: HostId, dst: HostId) -> SegmentId {
        let n = self.n() as u32;
        SegmentId(2 * n + src.0 as u32 * n + dst.0 as u32)
    }

    /// The three segments a one-way hop `src → dst` crosses, in order.
    pub fn path(&self, src: HostId, dst: HostId) -> [SegmentId; 3] {
        [self.seg_out(src), self.seg_core(src, dst), self.seg_in(dst)]
    }

    /// All ordered host pairs (the paper's ~870 one-way paths for N=30).
    pub fn ordered_pairs(&self) -> Vec<(HostId, HostId)> {
        let n = self.n() as u16;
        let mut v = Vec::with_capacity(self.n() * (self.n() - 1));
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    v.push((HostId(i), HostId(j)));
                }
            }
        }
        v
    }

    /// The build parameters of the [`Topology::ron2003`] preset.
    pub fn ron2003_params() -> TopologyParams {
        TopologyParams {
            loss_scale: 0.50,
            inflation: (2.1, 2.9),
            outage_scale: 1.5,
            pair_trouble_per_day: 60.0,
            trouble_factor: (200.0, 900.0),
            cornell_episode: true,
            ..TopologyParams::default()
        }
    }

    /// The 30-host 2003 testbed (RON2003 dataset era).
    pub fn ron2003(seed: u64) -> Topology {
        Self::from_rows(RON2003_HOSTS, Self::ron2003_params(), seed)
    }

    /// Same as [`Topology::ron2003`] but with custom parameters.
    pub fn ron2003_with(params: TopologyParams, seed: u64) -> Topology {
        Self::from_rows(RON2003_HOSTS, params, seed)
    }

    /// The build parameters of the [`Topology::ron2002`] preset.
    pub fn ron2002_params() -> TopologyParams {
        TopologyParams {
            // §4.2: 2002's overall direct loss was 0.74% against 2003's
            // 0.42% — the hotter year is encoded here structurally (not
            // left to per-seed diversity draws, which flip the ordering
            // for many seeds).
            loss_scale: 0.62,
            // 2002's losses sat deeper in the network: a bigger core share
            // makes same-pair copies through different intermediates more
            // independent, matching the year's lower indirect CLP (§4.4).
            core_loss: 0.0012,
            inflation: (2.9, 3.7),
            pair_trouble_per_day: 10.0,
            cornell_episode: false,
            hot_periods_per_day: 4.0,
            horizon: SimDuration::from_days(5),
            ..TopologyParams::default()
        }
    }

    /// The 17-host 2002 testbed (RONnarrow / RONwide era): hotter links,
    /// no Cornell pathology.
    pub fn ron2002(seed: u64) -> Topology {
        Self::ron2002_with(Self::ron2002_params(), seed)
    }

    /// Same as [`Topology::ron2002`] but with custom parameters.
    pub fn ron2002_with(params: TopologyParams, seed: u64) -> Topology {
        let rows: Vec<&HostRow> = RON2003_HOSTS
            .iter()
            .filter(|r| RON2002_NAMES.contains(&r.0))
            .collect();
        Self::from_refs(&rows, params, seed)
    }

    /// The build parameters of the [`Topology::synthetic`] preset: a
    /// fully controlled testbed — no outages, crashes, storms or
    /// diversity draws — with a core carrying a fifth of the edge loss.
    pub fn synthetic_params(edge_loss: f64) -> TopologyParams {
        TopologyParams {
            host_crashes: false,
            outages: false,
            hot_periods_per_day: 0.0,
            diversity_sigma: 0.0,
            gps_fraction: 1.0,
            core_loss: edge_loss * 0.2,
            i2_core_loss: 0.0,
            horizon: SimDuration::from_days(2),
            ..TopologyParams::default()
        }
    }

    /// A small uniform synthetic testbed for tests and examples: `n`
    /// hosts around a geographic circle, every edge with the same
    /// stationary loss.
    pub fn synthetic(n: usize, edge_loss: f64, seed: u64) -> Topology {
        Self::synthetic_with(n, edge_loss, Self::synthetic_params(edge_loss), seed)
    }

    /// Same as [`Topology::synthetic`] but with custom parameters.
    pub fn synthetic_with(n: usize, edge_loss: f64, params: TopologyParams, seed: u64) -> Topology {
        assert!(n >= 2);
        let hosts: Vec<HostInfo> = (0..n)
            .map(|i| {
                let angle = std::f64::consts::TAU * i as f64 / n as f64;
                HostInfo {
                    name: format!("node{i}"),
                    class: HostClass::IspSmall,
                    lat: 40.0 + 8.0 * angle.sin(),
                    lon: -95.0 + 18.0 * angle.cos(),
                    i2: false,
                    edge_loss_override: Some(edge_loss),
                }
            })
            .collect();
        Self::build(hosts, params, seed)
    }

    fn from_rows(rows: &[HostRow], params: TopologyParams, seed: u64) -> Topology {
        let refs: Vec<&HostRow> = rows.iter().collect();
        Self::from_refs(&refs, params, seed)
    }

    fn from_refs(rows: &[&HostRow], params: TopologyParams, seed: u64) -> Topology {
        let hosts: Vec<HostInfo> = rows
            .iter()
            .map(|r| HostInfo {
                name: r.0.to_string(),
                class: r.1,
                lat: r.2,
                lon: r.3,
                i2: r.4,
                edge_loss_override: r.5,
            })
            .collect();
        Self::build(hosts, params, seed)
    }

    /// Builds a topology from arbitrary host metadata.
    ///
    /// # Panics
    ///
    /// On more than [`MAX_HOSTS`] hosts: host and segment ids would wrap.
    pub fn build(hosts: Vec<HostInfo>, params: TopologyParams, seed: u64) -> Topology {
        let n = hosts.len();
        assert!(
            n <= MAX_HOSTS,
            "a topology holds at most {MAX_HOSTS} hosts (host ids are u16), got {n}"
        );
        let root = Rng::new(seed);
        let mut param_rng = root.derive(0xA11CE);
        let mut edges = Vec::with_capacity(2 * n);

        // Access segments: 2 per host (out, in).
        for h in &hosts {
            let mult = if params.diversity_sigma > 0.0 {
                param_rng.lognormal(1.0, params.diversity_sigma)
            } else {
                1.0
            };
            let base = h.edge_loss_override.unwrap_or_else(|| h.class.edge_loss());
            let loss = (base * mult * params.loss_scale).min(0.2);
            let mtbf = h.class.edge_mtbf_days() / params.outage_scale;
            for _dir in 0..2 {
                let mut latency = LatencyModel::typical(h.class.edge_prop());
                if params.cornell_episode && h.name == "Cornell" {
                    // §4.5: "many of the paths to the Cornell node
                    // experienced latencies of up to 1 second" around day 6.
                    let start = params.horizon.mul_f64(0.40);
                    let dur = params.horizon.mul_f64(0.09);
                    latency.episodes.push(Episode {
                        start: SimTime::ZERO + start,
                        end: SimTime::ZERO + start + dur,
                        extra: SimDuration::from_millis(750),
                    });
                }
                let outage = if params.outages {
                    OutageParams::edge(mtbf)
                } else {
                    OutageParams::never()
                };
                edges.push(SegmentSpec {
                    loss: GeParams::from_stationary_loss(loss),
                    outage,
                    latency,
                    hot: Vec::new(),
                    down: Vec::new(),
                });
            }
        }

        // Core segments: one per ordered pair (diagonal entries unused but
        // present to keep indexing O(1)). Only the draws are kept, in walk
        // order; `core_spec` derives the rest.
        let diversity = params.diversity_sigma > 0.0;
        let mut core_inflation = vec![0.0; n * n];
        let mut core_mult = if diversity { vec![0.0; n * n] } else { Vec::new() };
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                if diversity {
                    core_mult[i * n + j] = param_rng.lognormal(1.0, params.diversity_sigma);
                }
                core_inflation[i * n + j] = if hosts[i].i2 && hosts[j].i2 {
                    param_rng.uniform(1.15, 1.5)
                } else {
                    param_rng.uniform(params.inflation.0, params.inflation.1)
                };
            }
        }

        // Clocks.
        let mut clock_rng = root.derive(0xC10C);
        let clocks: Vec<ClockModel> = hosts
            .iter()
            .map(|_| {
                if clock_rng.chance(params.gps_fraction) {
                    ClockModel::gps()
                } else {
                    ClockModel::skewed(
                        clock_rng.uniform(-25_000.0, 25_000.0) as i64,
                        clock_rng.uniform(-2_000.0, 2_000.0) as i64,
                    )
                }
            })
            .collect();

        let mut topo = Topology {
            hosts,
            clocks,
            edges,
            core_inflation,
            core_mult,
            scripted: BTreeMap::new(),
            params,
            probe_mesh: None,
        };
        // The windows below go to the side table; the build's knobs are
        // read from a copy while `topo` takes them.
        let params = topo.params.clone();

        // Scripted hot periods: congestion storms hitting one host's edge
        // (both directions) or one core segment.
        let mut hot_rng = root.derive(0x1107);
        let days = params.horizon.as_secs_f64() / 86_400.0;
        let count = (params.hot_periods_per_day * days).round() as usize;
        for _ in 0..count {
            let start =
                SimTime::ZERO + SimDuration::from_secs_f64(hot_rng.uniform(0.0, params.horizon.as_secs_f64()));
            let dur = SimDuration::from_secs_f64(hot_rng.uniform(1200.0, 5400.0));
            let factor = hot_rng.uniform(params.hot_factor.0, params.hot_factor.1);
            if hot_rng.chance(0.7) {
                // Edge storm: hits everything through one host.
                let h = HostId(hot_rng.below(n as u64) as u16);
                topo.push_hot(topo.seg_out(h), (start, start + dur, factor));
                topo.push_hot(topo.seg_in(h), (start, start + dur, factor));
            } else {
                // Core storm on one ordered pair.
                let i = hot_rng.below(n as u64) as usize;
                let mut j = hot_rng.below(n as u64) as usize;
                if i == j {
                    j = (j + 1) % n;
                }
                let core = topo.seg_core(HostId(i as u16), HostId(j as u16));
                topo.push_hot(core, (start, start + dur, factor));
            }
        }

        // Per-path trouble episodes: hours of serious congestion on one
        // ordered pair's core segment (see TopologyParams docs).
        let mut trouble_rng = root.derive(0x7B0B);
        let tcount = (params.pair_trouble_per_day * days).round() as usize;
        for _ in 0..tcount {
            let start = SimTime::ZERO
                + SimDuration::from_secs_f64(trouble_rng.uniform(0.0, params.horizon.as_secs_f64()));
            let dur = SimDuration::from_secs_f64(
                trouble_rng.uniform(params.trouble_hours.0, params.trouble_hours.1) * 3600.0,
            );
            let factor = trouble_rng.uniform(params.trouble_factor.0, params.trouble_factor.1);
            let i = trouble_rng.below(n as u64) as usize;
            let mut j = trouble_rng.below(n as u64) as usize;
            if i == j {
                j = (j + 1) % n;
            }
            let core = topo.seg_core(HostId(i as u16), HostId(j as u16));
            topo.push_hot(core, (start, start + dur, factor));
        }

        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ron2003_matches_table_1_and_2() {
        let t = Topology::ron2003(1);
        assert_eq!(t.n(), 30);
        // 870 one-way paths between 30 hosts (§4).
        assert_eq!(t.ordered_pairs().len(), 870);
        // Table 2 class mix.
        let count = |c: HostClass| t.hosts().iter().filter(|h| h.class == c).count();
        assert_eq!(count(HostClass::EduI2), 6);
        assert_eq!(count(HostClass::Cable) + count(HostClass::Dsl), 3);
        assert_eq!(
            count(HostClass::IntlEdu) + count(HostClass::IntlIsp),
            5,
            "five non-US-class hosts"
        );
        assert!(t.host_by_name("Korea").is_some());
        assert!(t.host_by_name("nonexistent").is_none());
    }

    #[test]
    fn ron2002_is_the_17_host_subset() {
        let t2 = Topology::ron2002(1);
        assert_eq!(t2.n(), 17);
        assert!(t2.host_by_name("MIT").is_some());
        assert!(t2.host_by_name("GBLX-LON").is_none());
        // 2002 paths ran hotter on average (0.74% vs 0.42% in the paper):
        // the 17-host subset carries proportionally more lossy edges and a
        // dirtier core.
        let mean_path_loss = |t: &Topology| {
            let pairs = t.ordered_pairs();
            pairs
                .iter()
                .map(|&(a, b)| {
                    t.path(a, b)
                        .iter()
                        .map(|s| t.spec(*s).loss.stationary_loss(1.0))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / pairs.len() as f64
        };
        let t3 = Topology::ron2003(1);
        assert!(
            mean_path_loss(&t2) > mean_path_loss(&t3),
            "2002 quiet-state path loss must exceed 2003's"
        );
    }

    #[test]
    #[should_panic(expected = "at most 65535 hosts")]
    fn host_counts_past_u16_are_refused() {
        let _ = Topology::synthetic(MAX_HOSTS + 1, 0.01, 1);
    }

    #[test]
    fn segment_indexing_is_unique_and_in_bounds() {
        let t = Topology::ron2003(2);
        let n = t.n();
        // detlint: allow(nondet-iter) — test-side uniqueness probe; the
        // only iteration is an order-insensitive max().
        let mut seen = std::collections::HashSet::new();
        for i in 0..n as u16 {
            assert!(seen.insert(t.seg_out(HostId(i))));
            assert!(seen.insert(t.seg_in(HostId(i))));
        }
        for (a, b) in t.ordered_pairs() {
            assert!(seen.insert(t.seg_core(a, b)), "core {a:?}->{b:?} collided");
        }
        let max = seen.iter().map(|s| s.0).max().unwrap() as usize;
        assert!(max < t.segments());
    }

    /// A topology holds one `f64` draw per ordered pair, two with
    /// diversity on, and O(n) besides: no per-pair spec.
    #[test]
    fn footprint_is_the_per_pair_draws() {
        let n = 1000;
        let mib = 1 << 20;
        let plain = Topology::synthetic(n, 0.01, 1).approx_bytes();
        assert!((8 * n * n..=8 * n * n + mib).contains(&plain), "{plain} B at n={n}");
        let params = TopologyParams { diversity_sigma: 0.65, ..Topology::synthetic_params(0.01) };
        let diverse = Topology::synthetic_with(n, 0.01, params, 1).approx_bytes();
        assert!((16 * n * n..=16 * n * n + mib).contains(&diverse), "{diverse} B at n={n}");
    }

    #[test]
    fn sparse_mesh_is_exactly_k_regular_symmetric_and_deterministic() {
        for (n, k) in [(30, 6), (30, 7) /* odd k, even n */, (31, 6), (4, 1), (8, 7)] {
            let mesh = sparse_mesh(n, k, 42);
            assert_eq!(mesh.len(), n);
            for (h, nbrs) in mesh.iter().enumerate() {
                assert_eq!(nbrs.len(), k, "host {h} degree (n={n}, k={k})");
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
                for &b in nbrs {
                    assert_ne!(b as usize, h, "self-loop at {h}");
                    assert!(
                        mesh[b as usize].contains(&(h as u16)),
                        "mesh must be symmetric: {h} -> {b}"
                    );
                }
            }
            assert_eq!(mesh, sparse_mesh(n, k, 42), "pure function of (n, k, seed)");
        }
        assert_ne!(sparse_mesh(30, 6, 1), sparse_mesh(30, 6, 2), "seed-derived");
    }

    #[test]
    #[should_panic(expected = "no 3-regular graph on 5 hosts")]
    fn sparse_mesh_rejects_impossible_degree_parity() {
        sparse_mesh(5, 3, 1);
    }

    #[test]
    fn topology_carries_an_installed_probe_mesh_through_clone() {
        let mut t = Topology::synthetic(6, 0.01, 1);
        assert!(t.probe_mesh().is_none(), "clique by default");
        t.set_probe_mesh(sparse_mesh(6, 2, 9));
        let c = t.clone();
        assert_eq!(c.probe_mesh().unwrap().as_slice(), t.probe_mesh().unwrap().as_slice());
    }

    #[test]
    #[should_panic(expected = "must cover every host")]
    fn probe_mesh_shape_is_checked() {
        Topology::synthetic(6, 0.01, 1).set_probe_mesh(vec![vec![1]; 5]);
    }

    #[test]
    fn path_is_out_core_in() {
        let t = Topology::ron2003(3);
        let (a, b) = (HostId(0), HostId(5));
        let p = t.path(a, b);
        assert_eq!(p[0], t.seg_out(a));
        assert_eq!(p[1], t.seg_core(a, b));
        assert_eq!(p[2], t.seg_in(b));
    }

    #[test]
    fn i2_pairs_get_clean_cores() {
        let t = Topology::ron2003(4);
        let mit = t.host_by_name("MIT").unwrap();
        let cmu = t.host_by_name("CMU").unwrap();
        let dsl = t.host_by_name("CA-DSL").unwrap();
        let clean = t.spec(t.seg_core(mit, cmu));
        let dirty = t.spec(t.seg_core(mit, dsl));
        assert!(
            clean.loss.stationary_loss(1.0) < dirty.loss.stationary_loss(1.0),
            "Internet2 core should be cleaner"
        );
    }

    #[test]
    fn cornell_has_latency_episode_in_2003_only() {
        let t3 = Topology::ron2003(5);
        let cornell = t3.host_by_name("Cornell").unwrap();
        let spec = t3.spec(t3.seg_in(cornell));
        assert!(!spec.latency.episodes.is_empty(), "2003 Cornell episode missing");

        let t2 = Topology::ron2002(5);
        let cornell2 = t2.host_by_name("Cornell").unwrap();
        let spec2 = t2.spec(t2.seg_in(cornell2));
        assert!(spec2.latency.episodes.is_empty(), "2002 must not have the episode");
    }

    #[test]
    fn deterministic_build() {
        let a = Topology::ron2003(77);
        let b = Topology::ron2003(77);
        for i in 0..a.segments() {
            let (sa, sb) = (a.spec(SegmentId(i as u32)), b.spec(SegmentId(i as u32)));
            assert_eq!(
                sa.loss.stationary_loss(1.0),
                sb.loss.stationary_loss(1.0)
            );
        }
    }

    #[test]
    fn synthetic_is_uniform() {
        let t = Topology::synthetic(5, 0.01, 9);
        assert_eq!(t.n(), 5);
        for i in 0..5u16 {
            let s = t.spec(t.seg_out(HostId(i)));
            let loss = s.loss.stationary_loss(1.0);
            assert!((loss - 0.01).abs() < 1e-6, "loss={loss}");
        }
    }

    #[test]
    fn transatlantic_cores_are_slower_than_metro() {
        let t = Topology::ron2003(6);
        let mit = t.host_by_name("MIT").unwrap();
        let lon = t.host_by_name("GBLX-LON").unwrap();
        let mazu = t.host_by_name("Mazu").unwrap(); // also Boston
        let far = t.spec(t.seg_core(mit, lon));
        let near = t.spec(t.seg_core(mit, mazu));
        assert!(far.latency.prop > near.latency.prop * 3);
    }
}
