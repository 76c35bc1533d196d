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

use crate::cdf::{Histogram, WireVersion};
use netsim::SimDuration;
use trace::PairOutcome;

#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
struct OpenWin {
    window_idx: u64,
    sent: u32,
    lost: u32,
    used: bool,
}

/// What [`WindowAccum::merge`] requires both sides to agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowShape {
    /// Window width, microseconds.
    pub width_us: u64,
    /// Host count.
    pub n: usize,
    /// Analysis-method count.
    pub methods: usize,
    /// No window is open (see [`WindowAccum::is_finished`]); a merge
    /// needs this true on both sides.
    pub finished: bool,
}

/// Streaming fixed-width window accumulator.
///
/// The open-window cells are stored structure-of-arrays: the hot
/// same-window path reads one `u64` per outcome and the close scan at a
/// window boundary (or [`finish`](Self::finish)) walks a dense 8-byte
/// array instead of 24-byte `OpenWin` structs. The wire format still
/// speaks `Vec<OpenWin>` — serialization reconstructs it, so the v1
/// shape is unchanged.
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
    n: usize,
    /// `0` = cell unused, else the open window's index plus one. The
    /// bias keeps "unused" and "open at window 0" distinct without a
    /// separate `used` array.
    win: Vec<u64>,
    sent: Vec<u32>,
    lost: Vec<u32>,
    hist: Vec<Histogram>,
    /// Per method: windows with loss > 0%, >10%, …, >90%.
    thresholds: Vec<[u64; 10]>,
    windows: Vec<u64>,
}

impl WindowAccum {
    /// Creates an accumulator with the given window width.
    pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
        assert!(width.as_micros() > 0);
        let cells = n * n * methods;
        WindowAccum {
            width_us: width.as_micros(),
            cached_start_us: 0,
            cached_idx: 0,
            n,
            win: vec![0; cells],
            sent: vec![0; cells],
            lost: vec![0; cells],
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
        let method = cell / (self.n * self.n);
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
    pub fn on_outcome(&mut self, o: &PairOutcome) {
        if o.discarded {
            return;
        }
        let cell = o.method as usize * self.n * self.n
            + o.src.idx() * self.n
            + o.dst.idx();
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
    pub fn is_finished(&self) -> bool {
        self.win.iter().all(|&w| w == 0)
    }

    /// The dimensions and state a merge partner must share.
    /// Deserialization has already tied the cell and per-method arrays
    /// to them, so equal (finished) shapes are all [`Self::merge`] needs.
    pub fn shape(&self) -> WindowShape {
        WindowShape {
            width_us: self.width_us,
            n: self.n,
            methods: self.hist.len(),
            finished: self.is_finished(),
        }
    }

    /// Folds another *finished* accumulator into this one.
    ///
    /// Sharded runs close every window at their slice boundary (slices
    /// are independent sub-experiments), so merging is a plain sum of
    /// the per-method histograms, threshold counters and window counts.
    /// Panics if either side still has open windows or the shapes
    /// (width, host count, method count) differ.
    pub fn merge(&mut self, other: &WindowAccum) {
        assert_eq!(self.width_us, other.width_us, "window widths must match");
        assert_eq!(self.n, other.n, "host counts must match");
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
        fnv.write_u64(self.n as u64);
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

// Versioned wire format (v1). The open windows cross the wire too —
// full fidelity, not just the closed statistics — even though slice
// results arrive finished (slices close every window at their boundary):
// a round-tripped accumulator must be indistinguishable from the
// original in *every* state, or the serde-fidelity proptests could not
// pin the wire format to the in-memory merge semantics.
impl serde::Serialize for WindowAccum {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<1>);
        m.field("width_us", &self.width_us);
        m.field("n", &self.n);
        // The in-memory layout is SoA; the wire still speaks the v1
        // `Vec<OpenWin>` shape, reconstructed cell by cell.
        let open = (0..self.win.len()).map(|i| match self.win[i] {
            0 => OpenWin::default(),
            tag => {
                OpenWin { window_idx: tag - 1, sent: self.sent[i], lost: self.lost[i], used: true }
            }
        });
        serde::write_seq(m.key("open"), open);
        m.field("hist", &self.hist);
        m.field("thresholds", &self.thresholds);
        m.field("windows", &self.windows);
        m.end();
    }
}

/// The open-window columns as they come off the wire: the v1
/// `Vec<OpenWin>`, decomposed cell by cell into the SoA arrays. A cell
/// with `used == false` is normalized to all-zero: the encoder only
/// ever writes default values there, so nothing real is dropped.
#[derive(Default)]
struct OpenColumns {
    win: Vec<u64>,
    sent: Vec<u32>,
    lost: Vec<u32>,
}

impl serde::Deserialize for OpenColumns {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut open = OpenColumns::default();
        r.seq(|r| {
            let o = OpenWin::deserialize(r)?;
            let (tag, sent, lost) = match o.window_idx.checked_add(1) {
                _ if !o.used => (0, 0, 0),
                Some(tag) => (tag, o.sent, o.lost),
                None => return Err(serde::Error::new("OpenWin: window_idx out of range")),
            };
            open.win.push(tag);
            open.sent.push(sent);
            open.lost.push(lost);
            Ok(())
        })?;
        Ok(open)
    }
}

impl serde::Deserialize for WindowAccum {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (WireVersion::<1>, width_us, n, open, hist, thresholds, windows) = serde::read_fields!(
            r,
            "WindowAccum",
            [v, width_us, n, open, hist, thresholds, windows]
        );
        let OpenColumns { win, sent, lost } = open;
        WindowAccum {
            width_us,
            cached_start_us: 0,
            cached_idx: 0,
            n,
            win,
            sent,
            lost,
            hist,
            thresholds,
            windows,
        }
        .validated()
    }
}

impl WindowAccum {
    /// What an accumulator off the wire must satisfy.
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
        // Checked: `n` is a number from outside the process.
        let cells = self.n.checked_mul(self.n).and_then(|nn| nn.checked_mul(methods));
        if Some(self.win.len()) != cells {
            return Err(serde::Error::new(format!(
                "WindowAccum: {} open cells for shape n={} methods={methods}",
                self.win.len(),
                self.n
            )));
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

    #[test]
    fn empty_windows_are_not_counted() {
        let mut w = WindowAccum::new(2, 1, SimDuration::from_mins(20));
        w.finish();
        assert_eq!(w.window_count(0), 0);
        assert_eq!(w.histogram(0).count(), 0);
    }
}
