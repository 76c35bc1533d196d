//! Per-(path, method) loss and latency accumulation.
//!
//! The vocabulary follows Table 5 of the paper:
//!
//! * **1lp** — probability the first packet of a probe was lost;
//! * **2lp** — probability the second packet was lost;
//! * **totlp** — probability the probe failed end-to-end (every copy
//!   lost); equals 1lp for single-packet methods;
//! * **clp** — conditional loss probability of the second packet given
//!   the first was lost;
//! * **lat** — mean one-way latency of the first copy to arrive.
//!
//! An accumulator holds one row of counters per *measured* pair and
//! method — the rows of its [`PairIndex`] — not one per ordered host
//! pair: a k-regular probe mesh on n hosts costs n·k rows, the clique
//! its historical n². Its [digest](LossAccum::digest) and every reader
//! treat a pair it does not hold as a cell of zeros, so the two layouts
//! are indistinguishable except in size.

use crate::cdf::WireVersion;
use crate::latency::corrected_path_means;
use crate::pairs::{undeclared_pair, PairIndex};
use netsim::HostId;
use trace::PairOutcome;

/// Counters for one (method, src, dst) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Probe pairs observed.
    pub pairs: u64,
    /// Pairs where every copy was lost.
    pub pairs_lost: u64,
    /// First legs sent / lost.
    pub l1_sent: u64,
    /// First legs lost.
    pub l1_lost: u64,
    /// Second legs sent.
    pub l2_sent: u64,
    /// Second legs lost.
    pub l2_lost: u64,
    /// Pairs with both legs present where both were lost.
    pub both_lost: u64,
    /// Pairs with both legs present where the first was lost.
    pub first_lost_with_second: u64,
    /// Sum of best (min across received copies) one-way micros.
    pub lat_sum_us: f64,
    /// Count behind `lat_sum_us`.
    pub lat_cnt: u64,
}

/// Bytes one [`Cell`] folds into a digest: its ten 8-byte counters.
const CELL_DIGEST_BYTES: u64 = 80;

/// Summary statistics for one method (the paper's table columns, in
/// percent and milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodSummary {
    /// First-packet loss, percent.
    pub lp1: f64,
    /// Second-packet loss, percent (`None` for single-packet methods).
    pub lp2: Option<f64>,
    /// End-to-end pair loss, percent.
    pub totlp: f64,
    /// Conditional loss of packet 2 given packet 1 lost, percent.
    pub clp: Option<f64>,
    /// Mean latency, milliseconds (skew-corrected; RTT for round-trip
    /// datasets).
    pub lat_ms: f64,
    /// Number of probe pairs behind the summary.
    pub pairs: u64,
}

/// The per-cell counters of [`Cell`], structure-of-arrays: summaries,
/// curves and merges scan one counter across every cell, so each scan
/// walks a dense array instead of striding 80-byte structs. The wire
/// form is these columns, one key each.
#[derive(Debug, Default)]
struct CellArrays {
    pairs: Vec<u64>,
    pairs_lost: Vec<u64>,
    l1_sent: Vec<u64>,
    l1_lost: Vec<u64>,
    l2_sent: Vec<u64>,
    l2_lost: Vec<u64>,
    both_lost: Vec<u64>,
    first_lost_with_second: Vec<u64>,
    lat_sum_us: Vec<f64>,
    lat_cnt: Vec<u64>,
}

impl CellArrays {
    fn with_len(len: usize) -> Self {
        CellArrays {
            pairs: vec![0; len],
            pairs_lost: vec![0; len],
            l1_sent: vec![0; len],
            l1_lost: vec![0; len],
            l2_sent: vec![0; len],
            l2_lost: vec![0; len],
            both_lost: vec![0; len],
            first_lost_with_second: vec![0; len],
            lat_sum_us: vec![0.0; len],
            lat_cnt: vec![0; len],
        }
    }

    fn get(&self, i: usize) -> Cell {
        Cell {
            pairs: self.pairs[i],
            pairs_lost: self.pairs_lost[i],
            l1_sent: self.l1_sent[i],
            l1_lost: self.l1_lost[i],
            l2_sent: self.l2_sent[i],
            l2_lost: self.l2_lost[i],
            both_lost: self.both_lost[i],
            first_lost_with_second: self.first_lost_with_second[i],
            lat_sum_us: self.lat_sum_us[i],
            lat_cnt: self.lat_cnt[i],
        }
    }

    /// Every column's length, in declaration order.
    fn lens(&self) -> [(&'static str, usize); 10] {
        [
            ("pairs", self.pairs.len()),
            ("pairs_lost", self.pairs_lost.len()),
            ("l1_sent", self.l1_sent.len()),
            ("l1_lost", self.l1_lost.len()),
            ("l2_sent", self.l2_sent.len()),
            ("l2_lost", self.l2_lost.len()),
            ("both_lost", self.both_lost.len()),
            ("first_lost_with_second", self.first_lost_with_second.len()),
            ("lat_sum_us", self.lat_sum_us.len()),
            ("lat_cnt", self.lat_cnt.len()),
        ]
    }
}

/// What [`LossAccum::merge`] requires both sides to agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossShape {
    /// The measured pairs (and with them the host count).
    pub pairs: PairIndex,
    /// Analysis-method count.
    pub methods: usize,
    /// Redundancy degree (see [`LossAccum::depth`]).
    pub depth: usize,
}

/// Streaming per-path loss/latency accumulator.
#[derive(Debug)]
pub struct LossAccum {
    /// The pairs this accumulator holds a row for; the cell of `method`
    /// on a pair sits at `method * pairs.rows() + row`.
    pairs: PairIndex,
    methods: usize,
    cells: CellArrays,
    /// Redundancy degree: the maximum legs any method sends. The base
    /// [`Cell`] counters cover the paper's pair shape (legs 1–2); when
    /// `max_legs > 2` the `deep` extension tracks the full
    /// best-of-first-j loss curve.
    max_legs: usize,
    /// Per (cell, j) count of probes whose first `j` legs were all lost,
    /// `j = 1..=max_legs`, laid out `cell * max_legs + (j - 1)`. Empty
    /// when `max_legs <= 2` — there the curve is derivable from the base
    /// cells (`j=1` ↔ `l1_lost`, `j=2` ↔ `pairs_lost`), and keeping the
    /// allocation (and the digest, see [`Self::digest`]) untouched
    /// preserves every recorded pair-era fingerprint golden.
    deep: Vec<u64>,
}

impl LossAccum {
    /// Creates an accumulator for `methods` methods over the clique on
    /// `n` hosts, for method sets of at most two legs (the paper's
    /// pairs).
    pub fn new(n: usize, methods: usize) -> Self {
        Self::with_depth(n, methods, 2)
    }

    /// [`Self::with_pairs`] over the clique on `n` hosts.
    pub fn with_depth(n: usize, methods: usize, max_legs: usize) -> Self {
        Self::with_pairs(PairIndex::clique(n), methods, max_legs)
    }

    /// Creates an accumulator holding one row per pair of `pairs` and
    /// method, tracking best-of-first-j loss for methods of up to
    /// `max_legs` redundant legs.
    pub fn with_pairs(pairs: PairIndex, methods: usize, max_legs: usize) -> Self {
        let max_legs = max_legs.max(1);
        let cells = pairs.rows() * methods;
        let deep = if max_legs > 2 { vec![0; cells * max_legs] } else { Vec::new() };
        LossAccum { pairs, methods, cells: CellArrays::with_len(cells), max_legs, deep }
    }

    /// Where the cell of `method` on `src → dst` sits in the columns;
    /// `None` for a pair the accumulator holds no row for.
    #[inline]
    fn idx(&self, method: u8, src: HostId, dst: HostId) -> Option<usize> {
        debug_assert!((method as usize) < self.methods);
        Some(method as usize * self.pairs.rows() + self.pairs.row(src, dst)?)
    }

    /// Ingests one resolved probe pair (discarded samples are skipped).
    ///
    /// # Panics
    ///
    /// On an outcome for a pair outside the accumulator's [`PairIndex`]:
    /// the driver measured something the scenario did not declare.
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let Some(i) = self.idx(o.method, o.src, o.dst) else { undeclared_pair(o) };
        let c = &mut self.cells;
        c.pairs[i] += 1;
        if o.all_lost() {
            c.pairs_lost[i] += 1;
        }
        if let Some(l1) = o.leg(0) {
            c.l1_sent[i] += 1;
            if l1.lost {
                c.l1_lost[i] += 1;
            }
            if let Some(l2) = o.leg(1) {
                if l1.lost {
                    c.first_lost_with_second[i] += 1;
                    if l2.lost {
                        c.both_lost[i] += 1;
                    }
                }
            }
        }
        if let Some(l2) = o.leg(1) {
            c.l2_sent[i] += 1;
            if l2.lost {
                c.l2_lost[i] += 1;
            }
        }
        if let Some(us) = o.best_one_way_us() {
            c.lat_sum_us[i] += us as f64;
            c.lat_cnt[i] += 1;
        }
        if !self.deep.is_empty() {
            let base = i * self.max_legs;
            for j in 1..=self.max_legs {
                if o.prefix_all_lost(j) {
                    self.deep[base + j - 1] += 1;
                }
            }
        }
    }

    /// Folds another accumulator into this one, cell by cell.
    ///
    /// This is the sharded-run merge: each workload slice streams its
    /// outcomes into a private `LossAccum`, and the slices are merged in
    /// slice order. Counter sums are exact; the latency sums are f64, so
    /// the *order* of merging is part of the result's byte identity —
    /// callers must merge in a fixed order (the shard runner always
    /// merges ascending by slice index).
    ///
    /// Panics if the shapes (pair index, method count, depth) differ.
    pub fn merge(&mut self, other: &LossAccum) {
        assert!(self.pairs == other.pairs, "pair indexes must match");
        assert_eq!(self.methods, other.methods, "method counts must match");
        assert_eq!(self.max_legs, other.max_legs, "redundancy depths must match");
        for (a, b) in self.deep.iter_mut().zip(&other.deep) {
            *a += b;
        }
        // Array-at-a-time instead of cell-at-a-time: every addition is
        // elementwise per cell, so the result (including the f64 latency
        // sums) is bit-identical to the struct-wise fold — what matters
        // for byte identity is the order *accumulators* merge in, which
        // is the caller's contract above.
        let (a, b) = (&mut self.cells, &other.cells);
        let sum = |x: &mut Vec<u64>, y: &Vec<u64>| {
            for (xa, yb) in x.iter_mut().zip(y) {
                *xa += yb;
            }
        };
        sum(&mut a.pairs, &b.pairs);
        sum(&mut a.pairs_lost, &b.pairs_lost);
        sum(&mut a.l1_sent, &b.l1_sent);
        sum(&mut a.l1_lost, &b.l1_lost);
        sum(&mut a.l2_sent, &b.l2_sent);
        sum(&mut a.l2_lost, &b.l2_lost);
        sum(&mut a.both_lost, &b.both_lost);
        sum(&mut a.first_lost_with_second, &b.first_lost_with_second);
        for (xa, yb) in a.lat_sum_us.iter_mut().zip(&b.lat_sum_us) {
            *xa += yb;
        }
        sum(&mut a.lat_cnt, &b.lat_cnt);
    }

    /// The largest counter [`Self::merge`] adds up: a cell's (the latency
    /// sums are floats, which do not wrap) or a deep prefix count.
    pub fn max_count(&self) -> u64 {
        let c = &self.cells;
        let columns = [
            &c.pairs,
            &c.pairs_lost,
            &c.l1_sent,
            &c.l1_lost,
            &c.l2_sent,
            &c.l2_lost,
            &c.both_lost,
            &c.first_lost_with_second,
            &c.lat_cnt,
            &self.deep,
        ];
        columns.into_iter().flatten().copied().max().unwrap_or(0)
    }

    /// Feeds the accumulator's exact state (every counter and the bit
    /// patterns of every latency sum) into a fingerprint fold.
    ///
    /// The stream is the one a dense `n · n · methods` accumulator
    /// emits, whatever is held: per method, every cell id `src · n +
    /// dst` ascending, and a pair the index has no row for folds as the
    /// zeros it would hold ([`Fnv::write_zeros`](crate::Fnv::write_zeros),
    /// one multiplication per gap). So a mesh-indexed run and a clique
    /// one that measured the same pairs fingerprint alike, and no
    /// recorded golden depends on the layout.
    ///
    /// The depth extension is folded only when it exists (`max_legs >
    /// 2`): pair-shaped accumulators must keep producing the exact
    /// digest stream they did before k-leg probes existed, so every
    /// recorded scenario fingerprint golden stays valid.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.pairs.n() as u64);
        fnv.write_u64(self.methods as u64);
        if !self.deep.is_empty() {
            fnv.write_u64(self.max_legs as u64);
            self.fold_cells(fnv, 8 * self.max_legs as u64, |fnv, i| {
                for &v in &self.deep[i * self.max_legs..(i + 1) * self.max_legs] {
                    fnv.write_u64(v);
                }
            });
        }
        // The fold order is the pair-era per-cell interleaving — every
        // recorded fingerprint golden depends on it — so this gathers
        // across the arrays rather than streaming each in turn.
        self.fold_cells(fnv, CELL_DIGEST_BYTES, |fnv, i| {
            fnv.write_u64(self.cells.pairs[i]);
            fnv.write_u64(self.cells.pairs_lost[i]);
            fnv.write_u64(self.cells.l1_sent[i]);
            fnv.write_u64(self.cells.l1_lost[i]);
            fnv.write_u64(self.cells.l2_sent[i]);
            fnv.write_u64(self.cells.l2_lost[i]);
            fnv.write_u64(self.cells.both_lost[i]);
            fnv.write_u64(self.cells.first_lost_with_second[i]);
            fnv.write_f64(self.cells.lat_sum_us[i]);
            fnv.write_u64(self.cells.lat_cnt[i]);
        });
    }

    /// Walks the dense cell ids of every method in order: `held` folds
    /// the cell at a column position, and each run of ids the index
    /// skips folds as `cell_bytes` zeros apiece.
    fn fold_cells(
        &self,
        fnv: &mut crate::fingerprint::Fnv,
        cell_bytes: u64,
        held: impl Fn(&mut crate::fingerprint::Fnv, usize),
    ) {
        let (n, rows) = (self.pairs.n(), self.pairs.rows());
        for method in 0..self.methods {
            let mut next = 0; // the first cell id of `method` not yet folded
            for (row, id) in self.pairs.ids().enumerate() {
                fnv.write_zeros((id - next) as u64 * cell_bytes);
                held(fnv, method * rows + row);
                next = id + 1;
            }
            fnv.write_zeros((n * n - next) as u64 * cell_bytes);
        }
    }

    /// Read access to one cell (assembled from the per-counter arrays);
    /// all zeros for a pair the accumulator holds no row for.
    pub fn cell(&self, method: u8, src: HostId, dst: HostId) -> Cell {
        self.idx(method, src, dst).map_or_else(Cell::default, |i| self.cells.get(i))
    }

    /// Host count.
    pub fn n(&self) -> usize {
        self.pairs.n()
    }

    /// The pairs the accumulator holds a row for.
    pub fn pairs(&self) -> &PairIndex {
        &self.pairs
    }

    /// The accumulator's redundancy degree (maximum legs any method
    /// sends; 2 for the paper's pair-shaped sets).
    pub fn depth(&self) -> usize {
        self.max_legs
    }

    /// The dimensions a merge partner must share. Deserialization has
    /// already tied the cell arrays to them, so equal shapes are all
    /// [`Self::merge`] needs.
    pub fn shape(&self) -> LossShape {
        LossShape { pairs: self.pairs.clone(), methods: self.methods, depth: self.max_legs }
    }

    /// Heap bytes held: ten 8-byte columns and the depth extension per
    /// (row, method), plus the index.
    pub fn approx_bytes(&self) -> usize {
        8 * (10 * self.cells.pairs.len() + self.deep.len()) + self.pairs.approx_bytes()
    }

    /// The column positions of `method`'s cells, in row order.
    fn cells_of(&self, method: u8) -> std::ops::Range<usize> {
        let rows = self.pairs.rows();
        method as usize * rows..(method as usize + 1) * rows
    }

    /// `method`'s measured paths, ascending by `(src, dst)`, each with
    /// the position of its cell in the columns.
    fn paths(&self, method: u8) -> impl Iterator<Item = (HostId, HostId, usize)> + '_ {
        self.pairs
            .pairs()
            .zip(self.cells_of(method))
            .filter(|((s, d), _)| s != d)
            .map(|((s, d), i)| (s, d, i))
    }

    /// The best-of-first-j loss curve for a method: element `j - 1` is
    /// the percentage of probes whose first `j` copies were *all* lost,
    /// for `j = 1..=depth()`.
    ///
    /// `j = 1` is the paper's first-packet loss over all probes and the
    /// last element is `totlp` — the curve's drop from j=1 to j=k is
    /// exactly what the k-th redundant copy buys. Single-packet methods
    /// yield a flat curve. Denominator: probes observed (the summary's
    /// `pairs`).
    pub fn best_of_first_pct(&self, method: u8) -> Vec<f64> {
        let range = self.cells_of(method);
        let pairs: u64 = self.cells.pairs[range.clone()].iter().sum();
        let pct = |num: u64| if pairs == 0 { 0.0 } else { 100.0 * num as f64 / pairs as f64 };
        if self.deep.is_empty() {
            // Pair-shaped sets: the curve lives in the base counters.
            let l1: u64 = self.cells.l1_lost[range.clone()].iter().sum();
            let all: u64 = self.cells.pairs_lost[range].iter().sum();
            return match self.max_legs {
                1 => vec![pct(all)],
                _ => vec![pct(l1), pct(all)],
            };
        }
        (1..=self.max_legs)
            .map(|j| {
                let lost: u64 =
                    range.clone().map(|cell| self.deep[cell * self.max_legs + j - 1]).sum();
                pct(lost)
            })
            .collect()
    }

    /// Summary row for a method (the Table 5 / Table 7 columns).
    pub fn summary(&self, method: u8) -> MethodSummary {
        let range = self.cells_of(method);
        let c = &self.cells;
        let t = Cell {
            pairs: c.pairs[range.clone()].iter().sum(),
            pairs_lost: c.pairs_lost[range.clone()].iter().sum(),
            l1_sent: c.l1_sent[range.clone()].iter().sum(),
            l1_lost: c.l1_lost[range.clone()].iter().sum(),
            l2_sent: c.l2_sent[range.clone()].iter().sum(),
            l2_lost: c.l2_lost[range.clone()].iter().sum(),
            both_lost: c.both_lost[range.clone()].iter().sum(),
            first_lost_with_second: c.first_lost_with_second[range].iter().sum(),
            ..Cell::default()
        };
        let pct = |num: u64, den: u64| if den == 0 { 0.0 } else { 100.0 * num as f64 / den as f64 };
        let lat_ms = {
            let means = self.per_path_latency_ms(method);
            if means.is_empty() {
                0.0
            } else {
                means.iter().map(|&(_, _, m)| m).sum::<f64>() / means.len() as f64
            }
        };
        MethodSummary {
            lp1: pct(t.l1_lost, t.l1_sent),
            lp2: if t.l2_sent > 0 { Some(pct(t.l2_lost, t.l2_sent)) } else { None },
            totlp: pct(t.pairs_lost, t.pairs),
            clp: if t.first_lost_with_second > 0 {
                Some(pct(t.both_lost, t.first_lost_with_second))
            } else {
                None
            },
            lat_ms,
            pairs: t.pairs,
        }
    }

    /// Per-path end-to-end loss rates (fraction), for Figure 2.
    pub fn per_path_loss(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
        let c = &self.cells;
        self.paths(method)
            .filter(|&(_, _, i)| c.pairs[i] > 0)
            .map(|(s, d, i)| (s, d, c.pairs_lost[i] as f64 / c.pairs[i] as f64))
            .collect()
    }

    /// Per-path conditional loss probabilities (percent) for paths that
    /// observed at least `min_first_losses` first-packet losses — the
    /// population of Figure 4.
    pub fn per_path_clp(&self, method: u8, min_first_losses: u64) -> Vec<f64> {
        let c = &self.cells;
        self.paths(method)
            .filter(|&(_, _, i)| c.first_lost_with_second[i] >= min_first_losses.max(1))
            .map(|(_, _, i)| 100.0 * c.both_lost[i] as f64 / c.first_lost_with_second[i] as f64)
            .collect()
    }

    /// Per-path mean latency in milliseconds, clock-skew corrected by
    /// averaging with the reverse path (§4.1).
    pub fn per_path_latency_ms(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
        let c = &self.cells;
        let raw: Vec<(u16, u16, f64)> = self
            .paths(method)
            .filter(|&(_, _, i)| c.lat_cnt[i] > 0)
            .map(|(s, d, i)| (s.0, d.0, c.lat_sum_us[i] / c.lat_cnt[i] as f64))
            .collect();
        corrected_path_means(&raw)
            .into_iter()
            .map(|(s, d, us)| (HostId(s), HostId(d), us / 1_000.0))
            .collect()
    }
}

// Versioned wire format (v2): what is held is what crosses — the index
// as `rows` (`null` for the clique, else the ascending cell ids), then
// one key per counter column, each `rows · methods` long. Every private
// counter (and the exact f64 bit pattern of each latency sum, via
// serde_json's shortest-round-trip float writer) is there, so a
// deserialized accumulator merges byte-identically to one that never
// left memory. Unknown fields and versions are rejected loudly. (v1
// shipped a ten-key map per cell of the dense n² grid.)
impl serde::Serialize for LossAccum {
    fn serialize(&self, out: &mut String) {
        let c = &self.cells;
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<2>);
        m.field("n", &self.pairs.n());
        m.field("methods", &self.methods);
        m.field("max_legs", &self.max_legs);
        self.pairs.write_rows(m.key("rows"));
        m.field("pairs", &c.pairs);
        m.field("pairs_lost", &c.pairs_lost);
        m.field("l1_sent", &c.l1_sent);
        m.field("l1_lost", &c.l1_lost);
        m.field("l2_sent", &c.l2_sent);
        m.field("l2_lost", &c.l2_lost);
        m.field("both_lost", &c.both_lost);
        m.field("first_lost_with_second", &c.first_lost_with_second);
        m.field("lat_sum_us", &c.lat_sum_us);
        m.field("lat_cnt", &c.lat_cnt);
        m.field("deep", &self.deep);
        m.end();
    }
}

impl serde::Deserialize for LossAccum {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (
            WireVersion::<2>,
            n,
            methods,
            max_legs,
            rows,
            pairs,
            pairs_lost,
            l1_sent,
            l1_lost,
            l2_sent,
            l2_lost,
            both_lost,
            first_lost_with_second,
            lat_sum_us,
            lat_cnt,
            deep,
        ) = serde::read_fields!(
            r,
            "LossAccum",
            [
                v,
                n,
                methods,
                max_legs,
                rows,
                pairs,
                pairs_lost,
                l1_sent,
                l1_lost,
                l2_sent,
                l2_lost,
                both_lost,
                first_lost_with_second,
                lat_sum_us,
                lat_cnt,
                deep
            ]
        );
        let pairs_index = PairIndex::from_wire(n, rows)
            .map_err(|e| serde::Error::new(format!("LossAccum: {e}")))?;
        let cells = CellArrays {
            pairs,
            pairs_lost,
            l1_sent,
            l1_lost,
            l2_sent,
            l2_lost,
            both_lost,
            first_lost_with_second,
            lat_sum_us,
            lat_cnt,
        };
        LossAccum { pairs: pairs_index, methods, cells, max_legs, deep }.validated()
    }
}

impl LossAccum {
    /// What an accumulator off the wire must satisfy ([`PairIndex::from_wire`]
    /// has vetted the index). The products are checked: `n`, `methods`
    /// and `max_legs` are numbers from outside the process.
    fn validated(self) -> Result<Self, serde::Error> {
        if self.max_legs == 0 {
            return Err(serde::Error::new("LossAccum: max_legs must be >= 1"));
        }
        let overflows = || {
            serde::Error::new(format!(
                "LossAccum: {:?} x {} methods x {} legs is more cells than can be addressed",
                self.pairs, self.methods, self.max_legs
            ))
        };
        // `rows()` is at most MAX_HOSTS², which fits.
        let cells = self.pairs.rows().checked_mul(self.methods).ok_or_else(overflows)?;
        if let Some((column, len)) = self.cells.lens().into_iter().find(|&(_, len)| len != cells) {
            return Err(serde::Error::new(format!(
                "LossAccum: column `{column}` holds {len} cells, {:?} x {} methods hold {cells}",
                self.pairs, self.methods
            )));
        }
        // The depth extension exists exactly when max_legs > 2 (the
        // pair-era digest invariant depends on this).
        let deep =
            if self.max_legs > 2 { cells.checked_mul(self.max_legs).ok_or_else(overflows)? } else { 0 };
        if self.deep.len() != deep {
            return Err(serde::Error::new(format!(
                "LossAccum: {} deep counters for {cells} cells at max_legs={}",
                self.deep.len(),
                self.max_legs
            )));
        }
        if self.cells.lat_sum_us.iter().any(|s| !s.is_finite()) {
            return Err(serde::Error::new("LossAccum: non-finite latency sum"));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use trace::LegOutcome;

    fn outcome(
        method: u8,
        src: u16,
        dst: u16,
        legs: [Option<(bool, Option<i64>)>; 2],
        discarded: bool,
    ) -> PairOutcome {
        let mk = |x: Option<(bool, Option<i64>)>| {
            x.map(|(lost, ow)| LegOutcome { route: 0, lost, one_way_us: ow })
        };
        PairOutcome::from_legs(
            0,
            method,
            HostId(src),
            HostId(dst),
            SimTime::ZERO,
            [mk(legs[0]), mk(legs[1]), None, None],
            discarded,
        )
    }

    #[test]
    fn single_leg_method_totlp_equals_lp1() {
        let mut a = LossAccum::new(3, 2);
        for i in 0..100 {
            a.on_outcome(&outcome(
                0,
                0,
                1,
                [Some((i < 10, if i < 10 { None } else { Some(50_000) })), None],
                false,
            ));
        }
        let s = a.summary(0);
        assert_eq!(s.lp1, 10.0);
        assert_eq!(s.totlp, 10.0);
        assert_eq!(s.lp2, None);
        assert_eq!(s.clp, None);
        assert_eq!(s.pairs, 100);
    }

    #[test]
    fn pair_method_counts_clp_and_totlp() {
        let mut a = LossAccum::new(3, 1);
        // 10 pairs: 4 both-lost, 2 first-lost-only, 1 second-lost-only,
        // 3 clean.
        for _ in 0..4 {
            a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        }
        for _ in 0..2 {
            a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(70_000)))], false));
        }
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(50_000))), Some((true, None))], false));
        for _ in 0..3 {
            a.on_outcome(&outcome(
                0,
                0,
                1,
                [Some((false, Some(50_000))), Some((false, Some(60_000)))],
                false,
            ));
        }
        let s = a.summary(0);
        assert_eq!(s.lp1, 60.0); // 6/10
        assert_eq!(s.lp2, Some(50.0)); // 5/10
        assert_eq!(s.totlp, 40.0); // 4/10
        assert_eq!(s.clp, Some(100.0 * 4.0 / 6.0));
    }

    #[test]
    fn latency_uses_first_arriving_copy() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(
            0,
            0,
            1,
            [Some((false, Some(80_000))), Some((false, Some(30_000)))],
            false,
        ));
        // Reverse direction so skew correction has both sides.
        a.on_outcome(&outcome(
            0,
            1,
            0,
            [Some((false, Some(40_000))), Some((false, Some(50_000)))],
            false,
        ));
        let s = a.summary(0);
        // Forward best = 30 ms, reverse best = 40 ms; corrected both to 35.
        assert!((s.lat_ms - 35.0).abs() < 1e-9, "lat={}", s.lat_ms);
    }

    #[test]
    fn discarded_samples_are_ignored() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], true));
        let s = a.summary(0);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.totlp, 0.0);
    }

    #[test]
    fn per_path_loss_lists_only_observed_paths() {
        let mut a = LossAccum::new(3, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(1_000))), None], false));
        let v = a.per_path_loss(0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, HostId(0));
        assert_eq!(v[0].1, HostId(1));
        assert!((v[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_path_clp_requires_first_losses() {
        let mut a = LossAccum::new(3, 1);
        // Path 0→1: first losses present (CLP 50%).
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(1_000)))], false));
        // Path 0→2: clean.
        a.on_outcome(&outcome(0, 0, 2, [Some((false, Some(1))), Some((false, Some(1)))], false));
        let v = a.per_path_clp(0, 1);
        assert_eq!(v, vec![50.0]);
    }

    fn deep_outcome(method: u8, lost: [bool; 4]) -> PairOutcome {
        let legs = lost.map(|l| {
            Some(LegOutcome { route: 0, lost: l, one_way_us: if l { None } else { Some(1_000) } })
        });
        PairOutcome::from_legs(0, method, HostId(0), HostId(1), SimTime::ZERO, legs, false)
    }

    #[test]
    fn best_of_first_curve_tracks_every_depth() {
        let mut a = LossAccum::with_depth(2, 1, 4);
        assert_eq!(a.depth(), 4);
        // 10 probes: 2 lose all 4 copies, 3 lose the first 2 only, 1
        // loses the first only, 4 lose nothing.
        for _ in 0..2 {
            a.on_outcome(&deep_outcome(0, [true, true, true, true]));
        }
        for _ in 0..3 {
            a.on_outcome(&deep_outcome(0, [true, true, false, false]));
        }
        a.on_outcome(&deep_outcome(0, [true, false, false, false]));
        for _ in 0..4 {
            a.on_outcome(&deep_outcome(0, [false, false, false, false]));
        }
        let curve = a.best_of_first_pct(0);
        assert_eq!(curve, vec![60.0, 50.0, 20.0, 20.0]);
        // The curve is monotone nonincreasing: extra copies never hurt.
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(a.summary(0).totlp, 20.0, "last point equals totlp");
    }

    #[test]
    fn pair_depth_curve_is_derived_from_the_base_cells() {
        let mut a = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((true, None))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), Some((false, Some(1)))], false));
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(1))), Some((false, Some(1)))], false));
        assert_eq!(a.depth(), 2);
        let curve = a.best_of_first_pct(0);
        assert!((curve[0] - 200.0 / 3.0).abs() < 1e-9, "j=1: 2 of 3 first copies lost");
        assert!((curve[1] - 100.0 / 3.0).abs() < 1e-9, "j=2: 1 of 3 probes fully lost");
    }

    #[test]
    fn deep_merge_equals_sequential_feed_and_moves_the_digest() {
        let feed = |a: &mut LossAccum, range: std::ops::Range<u64>| {
            for i in range {
                a.on_outcome(&deep_outcome(0, [i % 2 == 0, i % 3 == 0, i % 5 == 0, i % 7 == 0]));
            }
        };
        let mut whole = LossAccum::with_depth(2, 1, 4);
        feed(&mut whole, 0..30);
        let mut first = LossAccum::with_depth(2, 1, 4);
        let mut second = LossAccum::with_depth(2, 1, 4);
        feed(&mut first, 0..15);
        feed(&mut second, 15..30);
        first.merge(&second);
        assert_eq!(whole.best_of_first_pct(0), first.best_of_first_pct(0));
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        first.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish(), "deep merge must be exact");
        // And the deep counters are part of the digest.
        let mut tweaked = LossAccum::with_depth(2, 1, 4);
        feed(&mut tweaked, 0..29);
        let (mut fc, mut fd) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fc);
        tweaked.digest(&mut fd);
        assert_ne!(fc.finish(), fd.finish());
    }

    #[test]
    #[should_panic(expected = "redundancy depths must match")]
    fn merge_rejects_depth_mismatch() {
        let mut a = LossAccum::with_depth(2, 1, 4);
        let b = LossAccum::with_depth(2, 1, 3);
        a.merge(&b);
    }

    #[test]
    fn merge_equals_sequential_feed() {
        // Outcomes split across two accumulators and merged must equal
        // one accumulator fed everything in the same order.
        let outcomes: Vec<PairOutcome> = (0..40)
            .map(|i| {
                outcome(
                    (i % 2) as u8,
                    (i % 3) as u16,
                    ((i + 1) % 3) as u16,
                    [
                        Some((i % 5 == 0, if i % 5 == 0 { None } else { Some(1_000 + i) })),
                        if i % 2 == 0 { Some((i % 7 == 0, Some(2_000 + i))) } else { None },
                    ],
                    i % 11 == 0,
                )
            })
            .collect();
        let mut whole = LossAccum::new(3, 2);
        for o in &outcomes {
            whole.on_outcome(o);
        }
        let mut first = LossAccum::new(3, 2);
        let mut second = LossAccum::new(3, 2);
        for (i, o) in outcomes.iter().enumerate() {
            if i < 20 {
                first.on_outcome(o);
            } else {
                second.on_outcome(o);
            }
        }
        first.merge(&second);
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        first.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish(), "merge must be exact");
    }

    #[test]
    fn digest_sees_every_counter() {
        let mut a = LossAccum::new(2, 1);
        let b = LossAccum::new(2, 1);
        a.on_outcome(&outcome(0, 0, 1, [Some((true, None)), None], false));
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        a.digest(&mut fa);
        b.digest(&mut fb);
        assert_ne!(fa.finish(), fb.finish());
    }

    #[test]
    #[should_panic(expected = "pair indexes must match")]
    fn merge_rejects_shape_mismatch() {
        let mut a = LossAccum::new(2, 1);
        let b = LossAccum::new(3, 1);
        a.merge(&b);
    }

    /// Hosts 0–3 on a ring: each probes its two neighbours.
    fn ring4() -> PairIndex {
        PairIndex::new(4, Some(&[vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]]))
    }

    #[test]
    #[should_panic(expected = "pair indexes must match")]
    fn merge_rejects_another_mesh_of_the_same_size() {
        let other = PairIndex::new(4, Some(&[vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]]));
        assert_eq!(other.rows(), ring4().rows());
        LossAccum::with_pairs(ring4(), 1, 2).merge(&LossAccum::with_pairs(other, 1, 2));
    }

    #[test]
    #[should_panic(expected = "pair indexes must match")]
    fn merge_rejects_the_clique_for_a_mesh() {
        LossAccum::with_pairs(ring4(), 1, 2).merge(&LossAccum::new(4, 1));
    }

    #[test]
    #[should_panic(expected = "undeclared pair 0 -> 2")]
    fn an_outcome_for_an_undeclared_pair_is_a_bug_in_the_driver() {
        let mut a = LossAccum::with_pairs(ring4(), 1, 2);
        a.on_outcome(&outcome(0, 0, 2, [Some((true, None)), None], false));
    }

    #[test]
    fn a_mesh_holds_its_rows_and_reads_every_other_pair_as_zeros() {
        let mut a = LossAccum::with_pairs(ring4(), 2, 2);
        assert_eq!(a.approx_bytes(), 8 * 10 * 8 * 2 + ring4().approx_bytes());
        a.on_outcome(&outcome(1, 2, 3, [Some((true, None)), None], false));
        assert_eq!(a.cell(1, HostId(2), HostId(3)).pairs_lost, 1);
        assert_eq!(a.cell(0, HostId(2), HostId(3)).pairs, 0, "methods do not mix");
        let undeclared = a.cell(1, HostId(0), HostId(2));
        assert_eq!((undeclared.pairs, undeclared.lat_cnt), (0, 0));
        assert_eq!(a.cell(1, HostId(9), HostId(0)).pairs, 0, "nor is an unknown host a panic");
        assert_eq!(a.summary(1).pairs, 1);
        assert_eq!(a.per_path_loss(1), vec![(HostId(2), HostId(3), 1.0)]);
        // The same outcome into the clique digests alike.
        let mut dense = LossAccum::new(4, 2);
        dense.on_outcome(&outcome(1, 2, 3, [Some((true, None)), None], false));
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        a.digest(&mut fa);
        dense.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish());
    }

    #[test]
    fn clock_skew_cancels_in_latency() {
        let mut a = LossAccum::new(2, 1);
        // True one-way 50 ms both directions; dst clock +20 ms.
        a.on_outcome(&outcome(0, 0, 1, [Some((false, Some(70_000))), None], false));
        a.on_outcome(&outcome(0, 1, 0, [Some((false, Some(30_000))), None], false));
        let v = a.per_path_latency_ms(0);
        for (_, _, ms) in v {
            assert!((ms - 50.0).abs() < 1e-9, "ms={ms}");
        }
    }
}
