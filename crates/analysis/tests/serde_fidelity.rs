//! Serde-fidelity property tests: an accumulator that crossed the wire
//! must be indistinguishable — to the bit — from one that never left
//! the process.
//!
//! This is the invariant the distributed campaign runner leans on: a
//! worker streams random outcomes into a private accumulator, ships it
//! as JSON, and the coordinator merges the deserialized copy into a
//! sibling. If any counter, histogram bucket, open-window fragment or
//! f64 latency sum loses precision in transit, the merged digest here
//! diverges from the never-serialized path long before a campaign
//! fingerprint would.
//!
//! Every property runs the same shape: random outcomes → accumulate →
//! JSON round-trip → merge into a sibling → [`Fnv`] digest equals the
//! digest of merging the originals directly. Outcomes include 3- and
//! 4-leg probes so the `max_legs > 2` best-of-first-j extension (the
//! k-leg depth guard) crosses the wire too, not just the paper's pairs.

use analysis::loss::Cell;
use analysis::{Fnv, Histogram, LossAccum, WindowAccum};
use netsim::{HostId, NetCounters, SimDuration, SimTime};
use proptest::prelude::*;
use trace::record::MAX_PROBE_LEGS;
use trace::{CollectorStats, LegOutcome, PairOutcome};

const HOSTS: u16 = 4;
const METHODS: u8 = 3;

fn arb_leg() -> impl Strategy<Value = LegOutcome> {
    (0u8..4, any::<bool>(), any::<Option<i64>>()).prop_map(|(route, lost, one_way)| LegOutcome {
        route,
        lost,
        // Lost legs never observed a one-way time.
        one_way_us: if lost { None } else { one_way },
    })
}

fn arb_outcome() -> impl Strategy<Value = PairOutcome> {
    (
        any::<u64>(),
        0..METHODS,
        0..HOSTS,
        0..HOSTS,
        0u64..3_600_000_000, // send instants inside one hour
        1usize..=MAX_PROBE_LEGS,
        proptest::collection::vec(arb_leg(), MAX_PROBE_LEGS..MAX_PROBE_LEGS + 1),
    )
        .prop_map(|(id, method, src, dst_raw, sent_us, present, legs)| {
            let dst = if dst_raw == src { (src + 1) % HOSTS } else { dst_raw };
            let mut slots = [None; MAX_PROBE_LEGS];
            for (slot, leg) in slots.iter_mut().zip(&legs).take(present) {
                *slot = Some(*leg);
            }
            PairOutcome::from_legs(
                id,
                method,
                HostId(src),
                HostId(dst),
                SimTime::from_micros(sent_us),
                slots,
                // Deterministic-but-arbitrary sprinkling of §4.1 discards.
                id % 11 == 0,
            )
        })
}

fn digest(write: impl FnOnce(&mut Fnv)) -> u64 {
    let mut fnv = Fnv::new();
    write(&mut fnv);
    fnv.finish()
}

fn round_trip<T: serde::Serialize + serde::Deserialize>(v: &T) -> T {
    let json = serde_json::to_string(v).expect("accumulators always serialize");
    serde_json::from_str(&json).expect("own JSON must parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loss_accum_merges_identically_after_the_wire(
        depth in 2usize..=MAX_PROBE_LEGS,
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let feed = |outs: &[PairOutcome]| {
            let mut acc = LossAccum::with_depth(HOSTS as usize, METHODS as usize, depth);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        // Never-serialized reference merge.
        let mut local = feed(&a);
        local.merge(&feed(&b));
        // The distributed path: both sides cross the wire first.
        let mut wired = round_trip(&feed(&a));
        wired.merge(&round_trip(&feed(&b)));
        prop_assert_eq!(
            digest(|f| local.digest(f)),
            digest(|f| wired.digest(f)),
            "depth {} merge diverged after JSON round-trip", depth
        );
        // The k-leg depth guard: the deep best-of-first-j curve itself
        // must survive, not just the digest fold.
        prop_assert_eq!(local.depth(), wired.depth());
        if depth > 2 {
            for m in 0..METHODS {
                prop_assert_eq!(
                    local.best_of_first_pct(m),
                    wired.best_of_first_pct(m)
                );
            }
        }
    }

    #[test]
    fn window_accum_round_trips_open_windows_exactly(
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let feed = |outs: &[PairOutcome]| {
            let mut acc =
                WindowAccum::new(HOSTS as usize, METHODS as usize, SimDuration::from_mins(20));
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        // Round-trip *before* finish: the open-window fragments must
        // cross the wire with full fidelity, so closing them afterwards
        // lands on identical statistics.
        let mut direct = feed(&a);
        let mut wired = round_trip(&direct);
        direct.finish();
        wired.finish();
        prop_assert_eq!(
            digest(|f| direct.digest(f)),
            digest(|f| wired.digest(f)),
            "open windows lost fidelity in transit"
        );
        // And the slice-shaped merge (finished sides only).
        let mut other = feed(&b);
        other.finish();
        direct.merge(&other);
        wired.merge(&round_trip(&other));
        prop_assert_eq!(digest(|f| direct.digest(f)), digest(|f| wired.digest(f)));
    }

    #[test]
    fn histogram_round_trips_and_merges_exactly(
        a in proptest::collection::vec(-0.5f64..1.5, 0..200),
        b in proptest::collection::vec(-0.5f64..1.5, 0..200),
    ) {
        let feed = |vals: &[f64]| {
            let mut h = Histogram::new(50);
            for &v in vals {
                h.push(v);
            }
            h
        };
        let mut local = feed(&a);
        local.merge(&feed(&b));
        let mut wired = round_trip(&feed(&a));
        wired.merge(&round_trip(&feed(&b)));
        prop_assert_eq!(digest(|f| local.digest(f)), digest(|f| wired.digest(f)));
    }

    #[test]
    fn net_counters_round_trip_and_merge(
        a in proptest::collection::vec(any::<u32>(), 6..7),
        b in proptest::collection::vec(any::<u32>(), 6..7),
    ) {
        let mk = |v: &[u32]| NetCounters {
            sent: v[0] as u64,
            delivered: v[1] as u64,
            dropped_outage: v[2] as u64,
            dropped_congestion: v[3] as u64,
            lsa_bytes: v[4] as u64,
            lsa_entries: v[5] as u64,
        };
        let (ca, cb) = (mk(&a), mk(&b));
        prop_assert_eq!(round_trip(&ca), ca);
        let mut local = ca;
        local.merge(&cb);
        let mut wired = round_trip(&ca);
        wired.merge(&round_trip(&cb));
        prop_assert_eq!(local, wired);
    }

    #[test]
    fn window_accum_soa_matches_the_aos_reference(
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let width = SimDuration::from_mins(20);
        let feed_soa = |outs: &[PairOutcome]| {
            let mut acc = WindowAccum::new(HOSTS as usize, METHODS as usize, width);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let feed_aos = |outs: &[PairOutcome]| {
            let mut acc = aos::WindowAccum::new(HOSTS as usize, METHODS as usize, width);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        // Mid-stream, open windows and all: the SoA layout must emit
        // byte-identical wire JSON to the array-of-structs original.
        let (mut soa, mut aos) = (feed_soa(&a), feed_aos(&a));
        prop_assert_eq!(
            serde_json::to_string(&soa).unwrap(),
            serde_json::to_string(&aos).unwrap(),
            "open-window wire bytes diverged from the AoS layout"
        );
        // ... and the close/merge semantics must match too.
        soa.finish();
        aos.finish();
        let (mut soa_b, mut aos_b) = (feed_soa(&b), feed_aos(&b));
        soa_b.finish();
        aos_b.finish();
        soa.merge(&soa_b);
        aos.merge(&aos_b);
        prop_assert_eq!(
            serde_json::to_string(&soa).unwrap(),
            serde_json::to_string(&aos).unwrap()
        );
        prop_assert_eq!(digest(|f| soa.digest(f)), digest(|f| aos.digest(f)));
    }

    #[test]
    fn loss_accum_soa_matches_the_aos_reference(
        depth in 2usize..=MAX_PROBE_LEGS,
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let feed_soa = |outs: &[PairOutcome]| {
            let mut acc = LossAccum::with_depth(HOSTS as usize, METHODS as usize, depth);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let feed_aos = |outs: &[PairOutcome]| {
            let mut acc = aos::LossAccum::with_depth(HOSTS as usize, METHODS as usize, depth);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
        };
        let (mut soa, mut aos) = (feed_soa(&a), feed_aos(&a));
        prop_assert_eq!(
            serde_json::to_string(&soa).unwrap(),
            serde_json::to_string(&aos).unwrap(),
            "cell wire bytes diverged from the AoS layout at depth {}", depth
        );
        soa.merge(&feed_soa(&b));
        aos.merge(&feed_aos(&b));
        prop_assert_eq!(
            serde_json::to_string(&soa).unwrap(),
            serde_json::to_string(&aos).unwrap()
        );
        prop_assert_eq!(
            digest(|f| soa.digest(f)),
            digest(|f| aos.digest(f)),
            "depth {} merge digest diverged from the AoS reference", depth
        );
        // Spot the accessor too: every cell the public API exposes must
        // carry the AoS counters bit-for-bit.
        for m in 0..METHODS {
            for s in 0..HOSTS {
                for d in 0..HOSTS {
                    let got = soa.cell(m, HostId(s), HostId(d));
                    let want = &aos.cells[aos.idx(m, HostId(s), HostId(d))];
                    prop_assert_eq!(
                        serde_json::to_string(&got).unwrap(),
                        serde_json::to_string(want).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn collector_stats_round_trip_and_merge(
        a in proptest::collection::vec(any::<u32>(), 6..7),
        b in proptest::collection::vec(any::<u32>(), 6..7),
    ) {
        let mk = |v: &[u32]| CollectorStats {
            resolved: v[0] as u64,
            discarded: v[1] as u64,
            late_receives: v[2] as u64,
            malformed_receives: v[3] as u64,
            malformed_sends: v[4] as u64,
            peak_pending: v[5] as u64,
        };
        let (sa, sb) = (mk(&a), mk(&b));
        prop_assert_eq!(round_trip(&sa), sa);
        let mut local = sa;
        local.merge(&sb);
        let mut wired = round_trip(&sa);
        wired.merge(&round_trip(&sb));
        prop_assert_eq!(local, wired);
    }
}

/// The pre-SoA array-of-structs accumulators, kept verbatim as
/// reference models: the production code now stores parallel arrays for
/// cache density, and these originals pin both the wire bytes (the v1
/// serde shape *is* the AoS layout) and the merge/digest semantics the
/// rewrite must preserve.
mod aos {
    use super::{Cell, Fnv, Histogram};
    use netsim::{HostId, SimDuration};
    use trace::PairOutcome;

    #[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
    struct OpenWin {
        window_idx: u64,
        sent: u32,
        lost: u32,
        used: bool,
    }

    pub struct WindowAccum {
        width_us: u64,
        n: usize,
        open: Vec<OpenWin>,
        hist: Vec<Histogram>,
        thresholds: Vec<[u64; 10]>,
        windows: Vec<u64>,
    }

    impl WindowAccum {
        pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
            WindowAccum {
                width_us: width.as_micros(),
                n,
                open: vec![OpenWin::default(); n * n * methods],
                hist: (0..methods).map(|_| Histogram::new(200)).collect(),
                thresholds: vec![[0; 10]; methods],
                windows: vec![0; methods],
            }
        }

        fn close(&mut self, cell: usize) {
            let w = self.open[cell];
            if !w.used || w.sent == 0 {
                return;
            }
            let method = cell / (self.n * self.n);
            let rate = w.lost as f64 / w.sent as f64;
            self.hist[method].push(rate);
            self.windows[method] += 1;
            let th = &mut self.thresholds[method];
            if w.lost > 0 {
                th[0] += 1;
            }
            for (i, t) in th.iter_mut().enumerate().skip(1) {
                if rate > i as f64 / 10.0 {
                    *t += 1;
                }
            }
        }

        pub fn on_outcome(&mut self, o: &PairOutcome) {
            if o.discarded {
                return;
            }
            let cell =
                o.method as usize * self.n * self.n + o.src.idx() * self.n + o.dst.idx();
            let idx = o.sent.as_micros() / self.width_us;
            if self.open[cell].used && self.open[cell].window_idx != idx {
                self.close(cell);
                self.open[cell] = OpenWin::default();
            }
            let w = &mut self.open[cell];
            w.used = true;
            w.window_idx = idx;
            w.sent += 1;
            if o.all_lost() {
                w.lost += 1;
            }
        }

        pub fn finish(&mut self) {
            for cell in 0..self.open.len() {
                self.close(cell);
                self.open[cell] = OpenWin::default();
            }
        }

        pub fn merge(&mut self, other: &WindowAccum) {
            assert_eq!(self.width_us, other.width_us);
            assert_eq!(self.n, other.n);
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

        pub fn digest(&self, fnv: &mut Fnv) {
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
    }

    impl serde::Serialize for WindowAccum {
        fn serialize(&self, out: &mut String) {
            let mut m = serde::MapWriter::new(out);
            m.field("v", &1u32);
            m.field("width_us", &self.width_us);
            m.field("n", &self.n);
            m.field("open", &self.open);
            m.field("hist", &self.hist);
            m.field("thresholds", &self.thresholds);
            m.field("windows", &self.windows);
            m.end();
        }
    }

    pub struct LossAccum {
        n: usize,
        methods: usize,
        pub cells: Vec<Cell>,
        max_legs: usize,
        deep: Vec<u64>,
    }

    impl LossAccum {
        pub fn with_depth(n: usize, methods: usize, max_legs: usize) -> Self {
            let max_legs = max_legs.max(1);
            let deep =
                if max_legs > 2 { vec![0; n * n * methods * max_legs] } else { Vec::new() };
            LossAccum { n, methods, cells: vec![Cell::default(); n * n * methods], max_legs, deep }
        }

        pub fn idx(&self, method: u8, src: HostId, dst: HostId) -> usize {
            method as usize * self.n * self.n + src.idx() * self.n + dst.idx()
        }

        pub fn on_outcome(&mut self, o: &PairOutcome) {
            if o.discarded {
                return;
            }
            let i = self.idx(o.method, o.src, o.dst);
            let c = &mut self.cells[i];
            c.pairs += 1;
            if o.all_lost() {
                c.pairs_lost += 1;
            }
            if let Some(l1) = o.leg(0) {
                c.l1_sent += 1;
                if l1.lost {
                    c.l1_lost += 1;
                }
                if let Some(l2) = o.leg(1) {
                    if l1.lost {
                        c.first_lost_with_second += 1;
                        if l2.lost {
                            c.both_lost += 1;
                        }
                    }
                }
            }
            if let Some(l2) = o.leg(1) {
                c.l2_sent += 1;
                if l2.lost {
                    c.l2_lost += 1;
                }
            }
            if let Some(us) = o.best_one_way_us() {
                c.lat_sum_us += us as f64;
                c.lat_cnt += 1;
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

        pub fn merge(&mut self, other: &LossAccum) {
            assert_eq!(self.n, other.n);
            assert_eq!(self.methods, other.methods);
            assert_eq!(self.max_legs, other.max_legs);
            for (a, b) in self.deep.iter_mut().zip(&other.deep) {
                *a += b;
            }
            for (a, b) in self.cells.iter_mut().zip(&other.cells) {
                a.pairs += b.pairs;
                a.pairs_lost += b.pairs_lost;
                a.l1_sent += b.l1_sent;
                a.l1_lost += b.l1_lost;
                a.l2_sent += b.l2_sent;
                a.l2_lost += b.l2_lost;
                a.both_lost += b.both_lost;
                a.first_lost_with_second += b.first_lost_with_second;
                a.lat_sum_us += b.lat_sum_us;
                a.lat_cnt += b.lat_cnt;
            }
        }

        pub fn digest(&self, fnv: &mut Fnv) {
            fnv.write_u64(self.n as u64);
            fnv.write_u64(self.methods as u64);
            if !self.deep.is_empty() {
                fnv.write_u64(self.max_legs as u64);
                for &v in &self.deep {
                    fnv.write_u64(v);
                }
            }
            for c in &self.cells {
                fnv.write_u64(c.pairs);
                fnv.write_u64(c.pairs_lost);
                fnv.write_u64(c.l1_sent);
                fnv.write_u64(c.l1_lost);
                fnv.write_u64(c.l2_sent);
                fnv.write_u64(c.l2_lost);
                fnv.write_u64(c.both_lost);
                fnv.write_u64(c.first_lost_with_second);
                fnv.write_f64(c.lat_sum_us);
                fnv.write_u64(c.lat_cnt);
            }
        }
    }

    impl serde::Serialize for LossAccum {
        fn serialize(&self, out: &mut String) {
            let mut m = serde::MapWriter::new(out);
            m.field("v", &1u32);
            m.field("n", &self.n);
            m.field("methods", &self.methods);
            m.field("max_legs", &self.max_legs);
            m.field("cells", &self.cells);
            m.field("deep", &self.deep);
            m.end();
        }
    }
}
