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

use crate::cdf::WireVersion;
use crate::latency::corrected_path_means;
use netsim::HostId;
use trace::PairOutcome;

/// Counters for one (method, src, dst) cell.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
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
/// walks a dense array instead of striding 80-byte structs.
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

    fn len(&self) -> usize {
        self.pairs.len()
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

    fn push(&mut self, c: Cell) {
        self.pairs.push(c.pairs);
        self.pairs_lost.push(c.pairs_lost);
        self.l1_sent.push(c.l1_sent);
        self.l1_lost.push(c.l1_lost);
        self.l2_sent.push(c.l2_sent);
        self.l2_lost.push(c.l2_lost);
        self.both_lost.push(c.both_lost);
        self.first_lost_with_second.push(c.first_lost_with_second);
        self.lat_sum_us.push(c.lat_sum_us);
        self.lat_cnt.push(c.lat_cnt);
    }
}

// In memory the cells are SoA; the wire keeps the v1 `Vec<Cell>` shape,
// written and read one cell at a time with no AoS copy in between.
impl serde::Serialize for CellArrays {
    fn serialize(&self, out: &mut String) {
        serde::write_seq(out, (0..self.len()).map(|i| self.get(i)));
    }
}

impl serde::Deserialize for CellArrays {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut cells = CellArrays::default();
        r.seq(|r| {
            cells.push(serde::Deserialize::deserialize(r)?);
            Ok(())
        })?;
        Ok(cells)
    }
}

/// What [`LossAccum::merge`] requires both sides to agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossShape {
    /// Host count.
    pub n: usize,
    /// Analysis-method count.
    pub methods: usize,
    /// Redundancy degree (see [`LossAccum::depth`]).
    pub depth: usize,
}

/// Streaming per-path loss/latency accumulator.
#[derive(Debug)]
pub struct LossAccum {
    n: usize,
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
    /// Creates an accumulator for `methods` methods over `n` hosts, for
    /// method sets of at most two legs (the paper's pairs).
    pub fn new(n: usize, methods: usize) -> Self {
        Self::with_depth(n, methods, 2)
    }

    /// Creates an accumulator tracking best-of-first-j loss for methods
    /// of up to `max_legs` redundant legs.
    pub fn with_depth(n: usize, methods: usize, max_legs: usize) -> Self {
        let max_legs = max_legs.max(1);
        let deep =
            if max_legs > 2 { vec![0; n * n * methods * max_legs] } else { Vec::new() };
        LossAccum { n, methods, cells: CellArrays::with_len(n * n * methods), max_legs, deep }
    }

    #[inline]
    fn idx(&self, method: u8, src: HostId, dst: HostId) -> usize {
        debug_assert!((method as usize) < self.methods);
        method as usize * self.n * self.n + src.idx() * self.n + dst.idx()
    }

    /// Ingests one resolved probe pair (discarded samples are skipped).
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let i = self.idx(o.method, o.src, o.dst);
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
    /// Panics if the shapes (host count, method count) differ.
    pub fn merge(&mut self, other: &LossAccum) {
        assert_eq!(self.n, other.n, "host counts must match");
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

    /// Feeds the accumulator's exact state (every counter and the bit
    /// patterns of every latency sum) into a fingerprint fold.
    ///
    /// The depth extension is folded only when it exists (`max_legs >
    /// 2`): pair-shaped accumulators must keep producing the exact
    /// digest stream they did before k-leg probes existed, so every
    /// recorded scenario fingerprint golden stays valid.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.n as u64);
        fnv.write_u64(self.methods as u64);
        if !self.deep.is_empty() {
            fnv.write_u64(self.max_legs as u64);
            for &v in &self.deep {
                fnv.write_u64(v);
            }
        }
        // The fold order is the pair-era per-cell interleaving — every
        // recorded fingerprint golden depends on it — so this gathers
        // across the arrays rather than streaming each in turn.
        for i in 0..self.cells.len() {
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
        }
    }

    /// Read access to one cell (assembled from the per-counter arrays).
    pub fn cell(&self, method: u8, src: HostId, dst: HostId) -> Cell {
        self.cells.get(self.idx(method, src, dst))
    }

    /// Host count.
    pub fn n(&self) -> usize {
        self.n
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
        LossShape { n: self.n, methods: self.methods, depth: self.max_legs }
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
        let base = method as usize * self.n * self.n;
        let range = base..base + self.n * self.n;
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
                let lost: u64 = (base..base + self.n * self.n)
                    .map(|cell| self.deep[cell * self.max_legs + j - 1])
                    .sum();
                pct(lost)
            })
            .collect()
    }

    /// Summary row for a method (the Table 5 / Table 7 columns).
    pub fn summary(&self, method: u8) -> MethodSummary {
        let base = method as usize * self.n * self.n;
        let range = base..base + self.n * self.n;
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
        let mut v = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                let c = self.cell(method, HostId(s as u16), HostId(d as u16));
                if c.pairs > 0 {
                    v.push((
                        HostId(s as u16),
                        HostId(d as u16),
                        c.pairs_lost as f64 / c.pairs as f64,
                    ));
                }
            }
        }
        v
    }

    /// Per-path conditional loss probabilities (percent) for paths that
    /// observed at least `min_first_losses` first-packet losses — the
    /// population of Figure 4.
    pub fn per_path_clp(&self, method: u8, min_first_losses: u64) -> Vec<f64> {
        let mut v = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                let c = self.cell(method, HostId(s as u16), HostId(d as u16));
                if c.first_lost_with_second >= min_first_losses.max(1) {
                    v.push(100.0 * c.both_lost as f64 / c.first_lost_with_second as f64);
                }
            }
        }
        v
    }

    /// Per-path mean latency in milliseconds, clock-skew corrected by
    /// averaging with the reverse path (§4.1).
    pub fn per_path_latency_ms(&self, method: u8) -> Vec<(HostId, HostId, f64)> {
        let mut raw = Vec::new();
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                let c = self.cell(method, HostId(s as u16), HostId(d as u16));
                if c.lat_cnt > 0 {
                    raw.push((s as u16, d as u16, c.lat_sum_us / c.lat_cnt as f64));
                }
            }
        }
        corrected_path_means(&raw)
            .into_iter()
            .map(|(s, d, us)| (HostId(s), HostId(d), us / 1_000.0))
            .collect()
    }
}

// Versioned wire format (v1): every private counter (and the exact f64
// bit pattern of each latency sum, via serde_json's shortest-round-trip
// float writer) crosses the wire, so a deserialized accumulator merges
// byte-identically to one that never left memory. Unknown fields and
// versions are rejected loudly.
impl serde::Serialize for LossAccum {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<1>);
        m.field("n", &self.n);
        m.field("methods", &self.methods);
        m.field("max_legs", &self.max_legs);
        m.field("cells", &self.cells);
        m.field("deep", &self.deep);
        m.end();
    }
}

impl serde::Deserialize for LossAccum {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (WireVersion::<1>, n, methods, max_legs, cells, deep) =
            serde::read_fields!(r, "LossAccum", [v, n, methods, max_legs, cells, deep]);
        LossAccum { n, methods, cells, max_legs, deep }.validated()
    }
}

impl LossAccum {
    /// What an accumulator off the wire must satisfy. The products are
    /// checked: `n`, `methods` and `max_legs` are numbers from outside
    /// the process.
    fn validated(self) -> Result<Self, serde::Error> {
        if self.max_legs == 0 {
            return Err(serde::Error::new("LossAccum: max_legs must be >= 1"));
        }
        let cells = self.n.checked_mul(self.n).and_then(|nn| nn.checked_mul(self.methods));
        if Some(self.cells.len()) != cells {
            return Err(serde::Error::new(format!(
                "LossAccum: {} cells for shape n={} methods={}",
                self.cells.len(),
                self.n,
                self.methods
            )));
        }
        // The depth extension exists exactly when max_legs > 2 (the
        // pair-era digest invariant depends on this).
        let deep =
            if self.max_legs > 2 { self.cells.len().checked_mul(self.max_legs) } else { Some(0) };
        if Some(self.deep.len()) != deep {
            return Err(serde::Error::new(format!(
                "LossAccum: {} deep counters for {} cells at max_legs={}",
                self.deep.len(),
                self.cells.len(),
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
    #[should_panic(expected = "host counts must match")]
    fn merge_rejects_shape_mismatch() {
        let mut a = LossAccum::new(2, 1);
        let b = LossAccum::new(3, 1);
        a.merge(&b);
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
