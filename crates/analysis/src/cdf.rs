//! Empirical cumulative distribution functions and fixed-bin histograms.

/// An empirical CDF over a finite sample.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; NaNs are dropped.
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.retain(|v| !v.is_nan());
        // total_cmp, not partial_cmp().unwrap(): the retain above drops
        // NaNs, but a sort comparator must not be one upstream bug away
        // from panicking mid-campaign.
        values.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (0.0 for an empty CDF).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Sample mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Step points `(value, cumulative fraction)`, downsampled to at most
    /// `max_points` points for plotting.
    pub fn points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        if n == 0 || max_points == 0 {
            return Vec::new();
        }
        let step = (n as f64 / max_points as f64).max(1.0);
        let mut pts = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            pts.push((self.sorted[idx], (idx + 1) as f64 / n as f64));
            i += step;
        }
        if pts.last().map(|p| p.1) != Some(1.0) {
            pts.push((self.sorted[n - 1], 1.0));
        }
        pts
    }
}

/// A fixed-bin histogram over `[0, 1]` (loss rates).
///
/// Exact zeros are tracked separately: in the paper's data over 95% of
/// the 20-minute windows have a 0% loss rate, and that mass must not be
/// blurred into the first bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    zeros: u64,
    bins: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(Self::DEFAULT_BINS)
    }
}

impl Histogram {
    /// Bin count of [`Histogram::default`] — and of every window
    /// histogram, whose bins must line up to merge.
    pub const DEFAULT_BINS: usize = 200;

    /// Creates a histogram with `bins` equal-width bins over `(0, 1]`
    /// plus a dedicated zero bucket.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0);
        Histogram { zeros: 0, bins: vec![0; bins], count: 0 }
    }

    /// Records a value (clamped into `[0, 1]`).
    pub fn push(&mut self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v.clamp(0.0, 1.0) };
        self.count += 1;
        if v == 0.0 {
            self.zeros += 1;
            return;
        }
        // Bin i covers (i/n, (i+1)/n].
        let n = self.bins.len();
        let idx = ((v * n as f64).ceil() as usize - 1).min(n - 1);
        self.bins[idx] += 1;
    }

    /// Folds another histogram into this one (sharded-run merge).
    ///
    /// Panics if the bin counts differ; since every value lands in
    /// exactly one bucket, merging is an exact bucket-wise sum.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "histogram shapes must match");
        self.zeros += other.zeros;
        self.count += other.count;
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Feeds the histogram's exact state into a fingerprint fold.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.zeros);
        fnv.write_u64(self.count);
        for &b in &self.bins {
            fnv.write_u64(b);
        }
    }

    /// Number of bins over `(0, 1]` (the zero bucket not counted).
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// The largest counter [`Self::merge`] adds up: the total, the zero
    /// bucket or a bin.
    pub fn max_count(&self) -> u64 {
        self.bins.iter().fold(self.count.max(self.zeros), |m, &b| m.max(b))
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact zeros recorded.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Fraction of values ≤ `x` (bin-resolution approximation; exact at
    /// zero and at bin edges).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if x < 0.0 {
            return 0.0;
        }
        let n = self.bins.len();
        let lim = ((x.min(1.0) * n as f64).ceil() as usize).min(n);
        let below: u64 = self.zeros + self.bins[..lim].iter().sum::<u64>();
        below as f64 / self.count as f64
    }

    /// CDF points starting with `(0, zero fraction)` then one point per
    /// bin upper edge.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut pts = Vec::with_capacity(self.bins.len() + 1);
        let mut acc = self.zeros;
        pts.push((0.0, acc as f64 / self.count as f64));
        let w = 1.0 / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            pts.push(((i + 1) as f64 * w, acc as f64 / self.count as f64));
        }
        pts
    }
}

/// The `"v"` entry of a versioned wire type that speaks version `N`:
/// writes `N`, and reads nothing else. The refusal happens at the key,
/// so a payload that leads with its version (every encoder does) is
/// turned away naming the version it carries, before any of its other —
/// possibly unknown — fields is looked at.
#[derive(Debug, Clone, Copy)]
pub struct WireVersion<const N: u32>;

impl<const N: u32> serde::Serialize for WireVersion<N> {
    fn serialize(&self, out: &mut String) {
        N.serialize(out);
    }
}

impl<const N: u32> serde::Deserialize for WireVersion<N> {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        match u32::deserialize(r)? {
            v if v == N => Ok(WireVersion),
            v => Err(serde::Error::new(format!(
                "unsupported wire version {v} (this build speaks {N})"
            ))),
        }
    }
}

// Versioned wire format (v1): slices computed on one host must merge on
// another with the exact semantics of the in-memory path, so the full
// private state crosses the wire and unknown fields or versions are
// rejected loudly instead of being guessed at.
impl serde::Serialize for Histogram {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<1>);
        m.field("zeros", &self.zeros);
        m.field("bins", &self.bins);
        m.field("count", &self.count);
        m.end();
    }
}

impl serde::Deserialize for Histogram {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (WireVersion::<1>, zeros, bins, count) =
            serde::read_fields!(r, "Histogram", [v, zeros, bins, count]);
        Histogram { zeros, bins, count }.validated()
    }
}

impl Histogram {
    /// What a histogram off the wire must satisfy.
    fn validated(self) -> Result<Self, serde::Error> {
        if self.bins.is_empty() {
            return Err(serde::Error::new("Histogram: bins must be non-empty"));
        }
        // Checked: these are numbers from outside the process.
        let total = self.bins.iter().try_fold(self.zeros, |acc, &b| acc.checked_add(b));
        if total != Some(self.count) {
            return Err(serde::Error::new(format!(
                "Histogram: count {} != zeros {} + the binned values",
                self.count, self.zeros
            )));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaves() {
        let c = Cdf::from_values(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.mean(), None);
        assert!(c.points(10).is_empty());
    }

    #[test]
    fn fraction_is_monotone_and_exact() {
        let c = Cdf::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(1.0), 0.25);
        assert_eq!(c.fraction_at_or_below(2.5), 0.5);
        assert_eq!(c.fraction_at_or_below(4.0), 1.0);
        assert_eq!(c.fraction_at_or_below(9.0), 1.0);
    }

    #[test]
    fn nan_dropped() {
        let c = Cdf::from_values(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nan_heavy_input_sorts_without_panicking() {
        // Regression: the sort comparator used to be
        // `partial_cmp(..).unwrap()`, which panics the moment a NaN
        // reaches it. The retain() guards that today; total_cmp
        // guarantees it even if the guard is ever reordered away.
        let mut vals = Vec::new();
        for i in 0..100 {
            vals.push(if i % 3 == 0 { f64::NAN } else { (100 - i) as f64 });
        }
        vals.push(f64::INFINITY);
        vals.push(f64::NEG_INFINITY);
        vals.push(-0.0);
        let c = Cdf::from_values(vals);
        assert_eq!(c.len(), 69, "66 finite + inf + -inf + -0.0");
        assert_eq!(c.quantile(0.0), Some(f64::NEG_INFINITY));
        assert_eq!(c.quantile(1.0), Some(f64::INFINITY));
        // Sorted order is total: every adjacent pair is non-decreasing.
        let pts = c.points(usize::MAX);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn quantiles() {
        let c = Cdf::from_values((1..=101).map(|i| i as f64).collect());
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(0.5), Some(51.0));
        assert_eq!(c.quantile(1.0), Some(101.0));
    }

    #[test]
    fn mean_matches() {
        let c = Cdf::from_values(vec![2.0, 4.0, 6.0]);
        assert_eq!(c.mean(), Some(4.0));
    }

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let c = Cdf::from_values((0..1000).map(|i| (i % 37) as f64).collect());
        let pts = c.points(50);
        assert!(pts.len() <= 52);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "x monotone");
            assert!(w[1].1 >= w[0].1, "y monotone");
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_counts_and_cdf() {
        let mut h = Histogram::new(10);
        for v in [0.0, 0.05, 0.15, 0.95, 1.0, 2.0, -1.0] {
            h.push(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.zeros(), 2, "0.0 and clamped -1.0");
        // ≤ 0.1: the two zeros plus 0.05 (bin (0, 0.1]).
        assert!((h.fraction_at_or_below(0.1) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.fraction_at_or_below(1.0), 1.0);
        let pts = h.cdf_points();
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0], (0.0, 2.0 / 7.0));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_zero_mass_is_exact() {
        let mut h = Histogram::new(200);
        for _ in 0..95 {
            h.push(0.0);
        }
        for _ in 0..5 {
            h.push(0.3);
        }
        assert_eq!(h.fraction_at_or_below(0.0), 0.95);
        assert_eq!(h.fraction_at_or_below(0.29), 0.95);
        assert_eq!(h.fraction_at_or_below(0.31), 1.0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(5);
        assert_eq!(h.fraction_at_or_below(0.5), 0.0);
        assert!(h.cdf_points().is_empty());
    }
}
