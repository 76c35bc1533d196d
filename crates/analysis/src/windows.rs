//! Windowed loss-rate accumulation.
//!
//! Two consumers in the paper:
//!
//! * **Figure 3** — the CDF of 20-minute loss-rate samples per method;
//! * **Table 6** — counts of hour-long (path, window) periods whose loss
//!   rate exceeds 0%, 10%, …, 90%, per method.
//!
//! Windows are per (method, path) and aligned to absolute time; a window
//! closes when a later sample for the same cell arrives (or at
//! [`WindowAccum::finish`]) and its end-to-end pair loss rate feeds a
//! per-method histogram and the threshold counters.
//!
//! Like [`crate::LossAccum`], an accumulator holds open-window state per
//! *measured* pair — the rows of its [`PairIndex`] — and only while a
//! window is open: the three open-window columns appear with the first
//! outcome, and a finished accumulator off the wire carries none.

use crate::cdf::{Histogram, WireVersion};
use crate::pairs::{undeclared_pair, PairIndex};
use netsim::SimDuration;
use trace::PairOutcome;

/// What [`WindowAccum::merge`] requires both sides to agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowShape {
    /// Window width, microseconds.
    pub width_us: u64,
    /// The measured pairs (and with them the host count).
    pub pairs: PairIndex,
    /// Analysis-method count.
    pub methods: usize,
    /// No window is open ([`WindowAccum::finish`] ran after the last
    /// outcome); a merge needs this true on both sides.
    pub finished: bool,
}

/// Streaming fixed-width window accumulator.
///
/// The open-window cells are stored structure-of-arrays: the hot
/// same-window path reads one `u64` per outcome and the close scan at a
/// window boundary (or [`finish`](Self::finish)) walks a dense 8-byte
/// array. The wire form is those columns as they are held.
#[derive(Debug)]
pub struct WindowAccum {
    width_us: u64,
    /// Start (µs) and index of the most recently computed window — pure
    /// strength reduction: outcomes arrive in near-time-order, so a
    /// range check replaces the per-outcome u64 division almost always.
    /// Not serialized (it is derivable and never observable): a
    /// round-tripped accumulator starts at window 0, which is exactly
    /// what `(0, 0)` encodes.
    cached_start_us: u64,
    cached_idx: u64,
    /// The pairs this accumulator keeps a window for; the cell of
    /// `method` on a pair sits at `method * pairs.rows() + row`.
    pairs: PairIndex,
    /// `0` = cell unused, else the open window's index plus one. The
    /// bias keeps "unused" and "open at window 0" distinct without a
    /// separate `used` array. This column and the two below are either
    /// empty — no outcome has arrived yet — or one entry per cell.
    win: Vec<u64>,
    sent: Vec<u32>,
    lost: Vec<u32>,
    hist: Vec<Histogram>,
    /// Per method: windows with loss > 0%, >10%, …, >90%.
    thresholds: Vec<[u64; 10]>,
    windows: Vec<u64>,
}

impl WindowAccum {
    /// [`Self::with_pairs`] over the clique on `n` hosts.
    pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
        Self::with_pairs(PairIndex::clique(n), methods, width)
    }

    /// Creates an accumulator of `width`-wide windows, one per pair of
    /// `pairs` and method.
    pub fn with_pairs(pairs: PairIndex, methods: usize, width: SimDuration) -> Self {
        assert!(width.as_micros() > 0);
        WindowAccum {
            width_us: width.as_micros(),
            cached_start_us: 0,
            cached_idx: 0,
            pairs,
            win: Vec::new(),
            sent: Vec::new(),
            lost: Vec::new(),
            hist: (0..methods).map(|_| Histogram::default()).collect(),
            thresholds: vec![[0; 10]; methods],
            windows: vec![0; methods],
        }
    }

    fn close(&mut self, cell: usize) {
        let (sent, lost) = (self.sent[cell], self.lost[cell]);
        if self.win[cell] == 0 || sent == 0 {
            return;
        }
        let method = cell / self.pairs.rows();
        let rate = lost as f64 / sent as f64;
        self.hist[method].push(rate);
        self.windows[method] += 1;
        let th = &mut self.thresholds[method];
        if lost > 0 {
            th[0] += 1;
        }
        for (i, t) in th.iter_mut().enumerate().skip(1) {
            if rate > i as f64 / 10.0 {
                *t += 1;
            }
        }
    }

    /// Ingests one resolved pair (discarded samples are skipped).
    ///
    /// # Panics
    ///
    /// On an outcome for a pair outside the accumulator's [`PairIndex`]:
    /// the driver measured something the scenario did not declare.
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let rows = self.pairs.rows();
        let Some(row) = self.pairs.row(o.src, o.dst) else { undeclared_pair(o) };
        let cell = o.method as usize * rows + row;
        if self.win.is_empty() {
            let cells = rows * self.hist.len();
            (self.win, self.sent, self.lost) = (vec![0; cells], vec![0; cells], vec![0; cells]);
        }
        let sent_us = o.sent.as_micros();
        // Same-window fast path: a wrapping range check against the
        // cached window start. `wrapping_sub` sends out-of-order sends
        // (sent < cached start) far above `width_us`, into the slow
        // path, so the cache can never mis-assign a window.
        let idx = if sent_us.wrapping_sub(self.cached_start_us) < self.width_us {
            self.cached_idx
        } else {
            let idx = sent_us / self.width_us;
            self.cached_start_us = idx * self.width_us;
            self.cached_idx = idx;
            idx
        };
        // `idx + 1` cannot wrap: idx == sent_us / width_us with
        // width_us >= 1, and a simulated send time of u64::MAX µs is
        // half a million millennia in.
        let tag = idx + 1;
        if self.win[cell] != tag {
            // Covers both "unused" (close is a no-op on win == 0) and
            // "open at an older window" (close, then start fresh).
            self.close(cell);
            self.win[cell] = tag;
            self.sent[cell] = 0;
            self.lost[cell] = 0;
        }
        self.sent[cell] += 1;
        if o.all_lost() {
            self.lost[cell] += 1;
        }
    }

    /// Closes every open window (end of run).
    pub fn finish(&mut self) {
        for cell in 0..self.win.len() {
            self.close(cell);
        }
        self.win.fill(0);
        self.sent.fill(0);
        self.lost.fill(0);
    }

    /// True when no window is open (i.e. [`finish`](Self::finish) ran
    /// after the last outcome).
    fn is_finished(&self) -> bool {
        self.win.iter().all(|&w| w == 0)
    }

    /// The pairs the accumulator keeps a window for.
    pub fn pairs(&self) -> &PairIndex {
        &self.pairs
    }

    /// The dimensions and state a merge partner must share.
    /// Deserialization has already tied the cell and per-method arrays
    /// to them, so equal (finished) shapes are all [`Self::merge`] needs.
    pub fn shape(&self) -> WindowShape {
        WindowShape {
            width_us: self.width_us,
            pairs: self.pairs.clone(),
            methods: self.hist.len(),
            finished: self.is_finished(),
        }
    }

    /// Heap bytes held: the open-window columns (16 per cell once an
    /// outcome has arrived), the per-method histograms and counters,
    /// and the index.
    pub fn approx_bytes(&self) -> usize {
        16 * self.win.len()
            + self.hist.len() * (8 * Histogram::DEFAULT_BINS + 80 + 8)
            + self.pairs.approx_bytes()
    }

    /// Folds another *finished* accumulator into this one.
    ///
    /// Sharded runs close every window at their slice boundary (slices
    /// are independent sub-experiments), so merging is a plain sum of
    /// the per-method histograms, threshold counters and window counts.
    /// Panics if either side still has open windows or the shapes
    /// (width, pair index, method count) differ.
    pub fn merge(&mut self, other: &WindowAccum) {
        assert_eq!(self.width_us, other.width_us, "window widths must match");
        assert!(self.pairs == other.pairs, "pair indexes must match");
        assert_eq!(self.hist.len(), other.hist.len(), "method counts must match");
        assert!(
            self.is_finished() && other.is_finished(),
            "merge requires finished accumulators (no open windows)"
        );
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            a.merge(b);
        }
        for (a, b) in self.thresholds.iter_mut().zip(&other.thresholds) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            *a += b;
        }
    }

    /// Feeds the accumulator's exact closed-window state into a
    /// fingerprint fold.
    pub fn digest(&self, fnv: &mut crate::fingerprint::Fnv) {
        fnv.write_u64(self.width_us);
        fnv.write_u64(self.pairs.n() as u64);
        for h in &self.hist {
            h.digest(fnv);
        }
        for t in &self.thresholds {
            for &v in t {
                fnv.write_u64(v);
            }
        }
        for &w in &self.windows {
            fnv.write_u64(w);
        }
    }

    /// The per-method loss-rate histogram (Figure 3's raw material).
    pub fn histogram(&self, method: u8) -> &Histogram {
        &self.hist[method as usize]
    }

    /// Windows whose loss exceeded `10·i` percent, for i = 0..10
    /// (`i = 0` means "any loss at all": the paper's `> 0` row).
    pub fn threshold_counts(&self, method: u8) -> [u64; 10] {
        self.thresholds[method as usize]
    }

    /// Total closed windows for a method.
    pub fn window_count(&self, method: u8) -> u64 {
        self.windows[method as usize]
    }
}

// Versioned wire format (v2): the index as `rows` (`null` for the
// clique, else the ascending cell ids) and the open-window columns as
// they are held — `null` when no window is open, which every slice
// result is (slices close every window at their boundary), and one entry
// per cell otherwise. Open windows cross the wire with full fidelity
// all the same: a round-tripped accumulator must be indistinguishable
// from the original in *every* state, or the serde-fidelity proptests
// could not pin the wire format to the in-memory merge semantics. (v1
// shipped a four-key map per cell of the dense n² grid.)
impl serde::Serialize for WindowAccum {
    fn serialize(&self, out: &mut String) {
        let open = !self.is_finished();
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<2>);
        m.field("width_us", &self.width_us);
        m.field("n", &self.pairs.n());
        self.pairs.write_rows(m.key("rows"));
        m.field("win", &open.then_some(&self.win));
        m.field("sent", &open.then_some(&self.sent));
        m.field("lost", &open.then_some(&self.lost));
        m.field("hist", &self.hist);
        m.field("thresholds", &self.thresholds);
        m.field("windows", &self.windows);
        m.end();
    }
}

impl serde::Deserialize for WindowAccum {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (WireVersion::<2>, width_us, n, rows, win, sent, lost, hist, thresholds, windows) = serde::read_fields!(
            r,
            "WindowAccum",
            [v, width_us, n, rows, win, sent, lost, hist, thresholds, windows]
        );
        WindowAccum {
            width_us,
            cached_start_us: 0,
            cached_idx: 0,
            pairs: PairIndex::from_wire(n, rows)
                .map_err(|e| serde::Error::new(format!("WindowAccum: {e}")))?,
            win: Option::unwrap_or_default(win),
            sent: Option::unwrap_or_default(sent),
            lost: Option::unwrap_or_default(lost),
            hist,
            thresholds,
            windows,
        }
        .validated()
    }
}

impl WindowAccum {
    /// What an accumulator off the wire must satisfy
    /// ([`PairIndex::from_wire`] has vetted the index).
    fn validated(self) -> Result<Self, serde::Error> {
        if self.width_us == 0 {
            return Err(serde::Error::new("WindowAccum: width_us must be > 0"));
        }
        let methods = self.hist.len();
        if self.thresholds.len() != methods || self.windows.len() != methods {
            return Err(serde::Error::new(format!(
                "WindowAccum: per-method lengths disagree (hist {methods}, thresholds {}, windows {})",
                self.thresholds.len(),
                self.windows.len()
            )));
        }
        if let Some(h) = self.hist.iter().find(|h| h.bin_count() != Histogram::DEFAULT_BINS) {
            return Err(serde::Error::new(format!(
                "WindowAccum: a histogram has {} bins, every window histogram has {}",
                h.bin_count(),
                Histogram::DEFAULT_BINS
            )));
        }
        if self.win.is_empty() && self.sent.is_empty() && self.lost.is_empty() {
            return Ok(self); // finished: nothing is held per cell
        }
        // Otherwise all three are columns (a `null` beside two columns
        // reads as a column of no cells, and fails here).
        // Checked: both factors are numbers from outside the process.
        let cells = self.pairs.rows().checked_mul(methods).ok_or_else(|| {
            serde::Error::new(format!(
                "WindowAccum: {:?} x {methods} methods is more cells than can be addressed",
                self.pairs
            ))
        })?;
        for (column, len) in
            [("win", self.win.len()), ("sent", self.sent.len()), ("lost", self.lost.len())]
        {
            if len != cells {
                return Err(serde::Error::new(format!(
                    "WindowAccum: column `{column}` holds {len} cells, {:?} x {methods} methods \
                     hold {cells}",
                    self.pairs
                )));
            }
        }
        // An open window saw at least one pair and lost no more than it
        // saw (`close` divides them into a rate), an unused cell none;
        // and the encoder ships columns only while something is open.
        for cell in 0..self.win.len() {
            let (tag, sent, lost) = (self.win[cell], self.sent[cell], self.lost[cell]);
            if lost > sent || (tag == 0) != (sent == 0) {
                return Err(serde::Error::new(format!(
                    "WindowAccum: open cell {cell} has window tag {tag}, sent {sent}, lost {lost}"
                )));
            }
        }
        if self.is_finished() {
            return Err(serde::Error::new(
                "WindowAccum: open-window columns present but no window is open",
            ));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HostId, SimTime};
    use trace::LegOutcome;

    fn outcome(method: u8, src: u16, dst: u16, t_secs: u64, lost: bool) -> PairOutcome {
        PairOutcome::from_legs(
            0,
            method,
            HostId(src),
            HostId(dst),
            SimTime::from_secs(t_secs),
            [
                Some(LegOutcome { route: 0, lost, one_way_us: if lost { None } else { Some(1) } }),
                None,
                None,
                None,
            ],
            false,
        )
    }

    #[test]
    fn windows_split_on_boundaries() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        // Window 1: 2 sent, 1 lost. Window 2: 1 sent, 0 lost.
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 1, 20, false));
        w.on_outcome(&outcome(0, 0, 1, 1_500, false));
        w.finish();
        assert_eq!(w.window_count(0), 2);
        assert_eq!(w.threshold_counts(0)[0], 1, "one window saw loss");
        // 50% loss > 40% threshold (index 4) but not > 50% (index 5).
        assert_eq!(w.threshold_counts(0)[4], 1);
        assert_eq!(w.threshold_counts(0)[5], 0);
    }

    #[test]
    fn separate_paths_do_not_mix() {
        let mut w = WindowAccum::new(3, 1, SimDuration::from_hours(1));
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 2, 10, false));
        w.finish();
        assert_eq!(w.window_count(0), 2, "two (path, window) cells");
        assert_eq!(w.threshold_counts(0)[0], 1);
    }

    #[test]
    fn separate_methods_do_not_mix() {
        let mut w = WindowAccum::new(2, 2, SimDuration::from_hours(1));
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(1, 0, 1, 10, false));
        w.finish();
        assert_eq!(w.threshold_counts(0)[0], 1);
        assert_eq!(w.threshold_counts(1)[0], 0);
    }

    #[test]
    fn discarded_outcomes_skip_windows() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_hours(1));
        let mut o = outcome(0, 0, 1, 10, true);
        o.discarded = true;
        w.on_outcome(&o);
        w.finish();
        assert_eq!(w.window_count(0), 0);
    }

    #[test]
    fn histogram_collects_rates() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        // One fully lossy window, one clean window.
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 1, 2_000, false));
        w.finish();
        let h = w.histogram(0);
        assert_eq!(h.count(), 2);
        assert!((h.fraction_at_or_below(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_closed_windows() {
        // Two disjoint time ranges accumulated separately and merged
        // must equal one accumulator that saw both ranges.
        let mk = |range: std::ops::Range<u64>| {
            let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
            for t in range {
                w.on_outcome(&outcome(0, 0, 1, t * 700, t % 3 == 0));
            }
            w.finish();
            w
        };
        let mut whole = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        for t in 0..12 {
            whole.on_outcome(&outcome(0, 0, 1, t * 700, t % 3 == 0));
        }
        whole.finish();
        let mut a = mk(0..6);
        let b = mk(6..12);
        a.merge(&b);
        // Window boundaries at 1200 s: samples at 0..4200 s in steps of
        // 700 s. The split at t=6 (4200 s) coincides with a window edge,
        // so the merged statistics are identical.
        let (mut fa, mut fb) = (crate::Fnv::new(), crate::Fnv::new());
        whole.digest(&mut fa);
        a.digest(&mut fb);
        assert_eq!(fa.finish(), fb.finish());
    }

    #[test]
    #[should_panic(expected = "finished accumulators")]
    fn merge_rejects_open_windows() {
        let mut a = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        let mut b = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        b.on_outcome(&outcome(0, 0, 1, 10, false));
        // b not finished: must panic.
        a.merge(&b);
    }

    fn ring4() -> PairIndex {
        PairIndex::new(4, Some(&[vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]]))
    }

    #[test]
    #[should_panic(expected = "pair indexes must match")]
    fn merge_rejects_another_index() {
        let mut a = WindowAccum::with_pairs(ring4(), 1, SimDuration::from_mins(20));
        a.merge(&WindowAccum::new(4, 1, SimDuration::from_mins(20)));
    }

    #[test]
    #[should_panic(expected = "undeclared pair 0 -> 2")]
    fn an_outcome_for_an_undeclared_pair_is_a_bug_in_the_driver() {
        let mut w = WindowAccum::with_pairs(ring4(), 1, SimDuration::from_mins(20));
        w.on_outcome(&outcome(0, 0, 2, 10, false));
    }

    #[test]
    fn open_columns_are_held_from_the_first_outcome_and_per_declared_pair() {
        let mut w = WindowAccum::with_pairs(ring4(), 2, SimDuration::from_mins(20));
        let idle = w.approx_bytes();
        assert!(w.is_finished());
        w.on_outcome(&outcome(1, 2, 3, 10, true));
        assert!(!w.is_finished());
        assert_eq!(w.approx_bytes(), idle + 16 * 8 * 2, "8 rows x 2 methods");
        w.finish();
        assert!(w.is_finished());
        assert_eq!((w.window_count(0), w.window_count(1)), (0, 1));
    }

    #[test]
    fn an_open_window_off_the_wire_must_add_up() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        w.on_outcome(&outcome(0, 0, 1, 10, true));
        w.on_outcome(&outcome(0, 0, 1, 20, false));
        let json = serde_json::to_string(&w).unwrap();
        assert!(json.contains(r#""win":[0,1,0,0],"sent":[0,2,0,0],"lost":[0,1,0,0]"#), "{json}");
        assert!(serde_json::from_str::<WindowAccum>(&json).is_ok());
        let refused = |from: &str, to: &str| {
            let bent = json.replacen(from, to, 1);
            assert_ne!(bent, json);
            serde_json::from_str::<WindowAccum>(&bent).expect_err(to).to_string()
        };
        // More lost than sent: `close` would push a rate above 1.
        assert!(refused(r#""lost":[0,1,"#, r#""lost":[0,3,"#).contains("open cell 1"));
        // A window that is open but saw nothing, and the reverse.
        assert!(refused(r#""sent":[0,2,"#, r#""sent":[0,0,"#).contains("open cell 1"));
        assert!(refused(r#""sent":[0,2,0"#, r#""sent":[0,2,1"#).contains("open cell 2"));
        // Columns of another length, columns for nothing, half the columns.
        assert!(refused(r#""win":[0,1,0,0]"#, r#""win":[0,1,0]"#).contains("column `win`"));
        assert!(refused(r#""lost":[0,1,0,0]"#, r#""lost":null"#).contains("column `lost`"));
        w.finish();
        let finished = serde_json::to_string(&w).unwrap();
        assert!(finished.contains(r#""win":null,"sent":null,"lost":null"#), "{finished}");
        let zeros = finished
            .replace(r#""win":null"#, r#""win":[0,0,0,0]"#)
            .replace(r#""sent":null"#, r#""sent":[0,0,0,0]"#)
            .replace(r#""lost":null"#, r#""lost":[0,0,0,0]"#);
        let err = serde_json::from_str::<WindowAccum>(&zeros).expect_err("not canonical");
        assert!(err.to_string().contains("no window is open"), "{err}");
    }

    #[test]
    fn empty_windows_are_not_counted() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        w.finish();
        assert_eq!(w.window_count(0), 0);
        assert_eq!(w.histogram(0).count(), 0);
    }
}
