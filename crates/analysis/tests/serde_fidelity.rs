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
//!
//! Outcomes land on the pairs of a random probe mesh, and every
//! property runs over both index kinds — rows for that mesh's pairs, and
//! the clique — which must not differ in anything but size. The dense
//! array-of-structs accumulators at the bottom are the oracle for that:
//! whatever an accumulator holds, it digests like they do.

use analysis::loss::Cell;
use analysis::{Fnv, Histogram, LossAccum, PairIndex, WindowAccum};
use netsim::{HostId, NetCounters, SimDuration, SimTime};
use proptest::prelude::*;
use trace::record::MAX_PROBE_LEGS;
use trace::{CollectorStats, LegOutcome, PairOutcome};

const HOSTS: u16 = 6;
const METHODS: u8 = 3;

fn arb_leg() -> impl Strategy<Value = LegOutcome> {
    (0u8..4, any::<bool>(), any::<Option<i64>>()).prop_map(|(route, lost, one_way)| LegOutcome {
        route,
        lost,
        // Lost legs never observed a one-way time.
        one_way_us: if lost { None } else { one_way },
    })
}

/// A `k`-regular probe mesh on [`HOSTS`] hosts, `k` from 1 to "every
/// other host".
fn arb_mesh() -> impl Strategy<Value = Vec<Vec<u16>>> {
    (1..HOSTS as usize, any::<u64>())
        .prop_map(|(k, seed)| netsim::sparse_mesh(HOSTS as usize, k, seed))
}

/// An outcome whose `dst` is still a draw, not a host: [`onto`] turns it
/// into one of the source's peers.
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
        .prop_map(|(id, method, src, draw, sent_us, present, legs)| {
            let mut slots = [None; MAX_PROBE_LEGS];
            for (slot, leg) in slots.iter_mut().zip(&legs).take(present) {
                *slot = Some(*leg);
            }
            PairOutcome::from_legs(
                id,
                method,
                HostId(src),
                HostId(draw),
                SimTime::from_micros(sent_us),
                slots,
                // Deterministic-but-arbitrary sprinkling of §4.1 discards.
                id % 11 == 0,
            )
        })
}

/// `outs` as a run over `mesh` would produce them: every outcome on a
/// pair the mesh declares.
fn onto(mesh: &[Vec<u16>], outs: &[PairOutcome]) -> Vec<PairOutcome> {
    outs.iter()
        .map(|o| {
            let peers = &mesh[o.src.idx()];
            let mut o = *o;
            o.dst = HostId(peers[o.dst.idx() % peers.len()]);
            o
        })
        .collect()
}

/// Both index kinds that can hold a run over `mesh`: its rows, and the
/// clique.
fn indexes(mesh: &[Vec<u16>]) -> [PairIndex; 2] {
    [PairIndex::new(HOSTS as usize, Some(mesh)), PairIndex::clique(HOSTS as usize)]
}

fn feed_loss(pairs: &PairIndex, depth: usize, outs: &[PairOutcome]) -> LossAccum {
    let mut acc = LossAccum::with_pairs(pairs.clone(), METHODS as usize, depth);
    for o in outs {
        acc.on_outcome(o);
    }
    acc
}

fn feed_windows(pairs: &PairIndex, outs: &[PairOutcome]) -> WindowAccum {
    let mut acc =
        WindowAccum::with_pairs(pairs.clone(), METHODS as usize, SimDuration::from_mins(20));
    for o in outs {
        acc.on_outcome(o);
    }
    acc
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
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let (a, b) = (onto(&mesh, &a), onto(&mesh, &b));
        for pairs in indexes(&mesh) {
            // Never-serialized reference merge.
            let mut local = feed_loss(&pairs, depth, &a);
            local.merge(&feed_loss(&pairs, depth, &b));
            // The distributed path: both sides cross the wire first.
            let mut wired = round_trip(&feed_loss(&pairs, depth, &a));
            wired.merge(&round_trip(&feed_loss(&pairs, depth, &b)));
            prop_assert_eq!(
                digest(|f| local.digest(f)),
                digest(|f| wired.digest(f)),
                "depth {} merge over {:?} diverged after JSON round-trip", depth, pairs
            );
            // The wire carried the index itself, not just its size.
            prop_assert_eq!(local.shape(), wired.shape());
            // The k-leg depth guard: the deep best-of-first-j curve itself
            // must survive, not just the digest fold.
            if depth > 2 {
                for m in 0..METHODS {
                    prop_assert_eq!(
                        local.best_of_first_pct(m),
                        wired.best_of_first_pct(m)
                    );
                }
            }
        }
    }

    #[test]
    fn window_accum_round_trips_open_windows_exactly(
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let (a, b) = (onto(&mesh, &a), onto(&mesh, &b));
        for pairs in indexes(&mesh) {
            // Round-trip *before* finish: the open-window fragments must
            // cross the wire with full fidelity, so closing them afterwards
            // lands on identical statistics.
            let mut direct = feed_windows(&pairs, &a);
            let mut wired = round_trip(&direct);
            prop_assert_eq!(direct.shape(), wired.shape());
            direct.finish();
            wired.finish();
            prop_assert_eq!(
                digest(|f| direct.digest(f)),
                digest(|f| wired.digest(f)),
                "open windows over {:?} lost fidelity in transit", pairs
            );
            // And the slice-shaped merge (finished sides only), into a
            // side that itself crossed finished.
            let mut other = feed_windows(&pairs, &b);
            other.finish();
            direct.merge(&other);
            let mut wired = round_trip(&wired);
            wired.merge(&round_trip(&other));
            prop_assert_eq!(digest(|f| direct.digest(f)), digest(|f| wired.digest(f)));
            prop_assert_eq!(direct.shape(), wired.shape());
        }
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
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let (a, b) = (onto(&mesh, &a), onto(&mesh, &b));
        let feed_aos = |outs: &[PairOutcome]| {
            let mut acc = aos::WindowAccum::new(
                HOSTS as usize,
                METHODS as usize,
                SimDuration::from_mins(20),
            );
            for o in outs {
                acc.on_outcome(o);
            }
            acc.finish();
            acc
        };
        // The close/merge semantics of the dense array-of-structs
        // original, whichever rows are held.
        let mut aos = feed_aos(&a);
        aos.merge(&feed_aos(&b));
        for pairs in indexes(&mesh) {
            let (mut soa, mut soa_b) = (feed_windows(&pairs, &a), feed_windows(&pairs, &b));
            soa.finish();
            soa_b.finish();
            soa.merge(&soa_b);
            prop_assert_eq!(digest(|f| soa.digest(f)), digest(|f| aos.digest(f)), "{:?}", pairs);
        }
    }

    #[test]
    fn loss_accum_soa_matches_the_aos_reference(
        depth in 2usize..=MAX_PROBE_LEGS,
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let (a, b) = (onto(&mesh, &a), onto(&mesh, &b));
        let pairs = PairIndex::clique(HOSTS as usize);
        let mut soa = feed_loss(&pairs, depth, &a);
        let mut aos = aos::LossAccum::feed(depth, &a);
        soa.merge(&feed_loss(&pairs, depth, &b));
        aos.merge(&aos::LossAccum::feed(depth, &b));
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
                    let want = aos.cells[aos.idx(m, HostId(s), HostId(d))];
                    prop_assert_eq!(bits(got), bits(want));
                }
            }
        }
    }

    /// The sparse rows are pinned to the dense reference, not to luck:
    /// whatever mesh a run declares, an accumulator rowed by it, the
    /// clique one and the dense array-of-structs original digest alike —
    /// a single accumulator and one merged from two halves — and the
    /// mesh rows answer every reader the way the clique does.
    #[test]
    fn sparse_rows_digest_like_the_dense_reference(
        deep in any::<bool>(),
        mesh in arb_mesh(),
        a in proptest::collection::vec(arb_outcome(), 0..80),
        b in proptest::collection::vec(arb_outcome(), 0..80),
    ) {
        let depth = if deep { 4 } else { 2 };
        let (a, b) = (onto(&mesh, &a), onto(&mesh, &b));
        let [rows, clique] = indexes(&mesh);
        let mut sparse = feed_loss(&rows, depth, &a);
        let mut dense = feed_loss(&clique, depth, &a);
        let mut aos = aos::LossAccum::feed(depth, &a);
        for merged in [false, true] {
            if merged {
                sparse.merge(&feed_loss(&rows, depth, &b));
                dense.merge(&feed_loss(&clique, depth, &b));
                aos.merge(&aos::LossAccum::feed(depth, &b));
            }
            let want = digest(|f| aos.digest(f));
            prop_assert_eq!(digest(|f| sparse.digest(f)), want, "rows, merged: {}", merged);
            prop_assert_eq!(digest(|f| dense.digest(f)), want, "clique, merged: {}", merged);
        }
        prop_assert!(sparse.approx_bytes() <= dense.approx_bytes());
        for m in 0..METHODS {
            prop_assert_eq!(sparse.summary(m), dense.summary(m));
            prop_assert_eq!(sparse.best_of_first_pct(m), dense.best_of_first_pct(m));
            prop_assert_eq!(sparse.per_path_loss(m), dense.per_path_loss(m));
            prop_assert_eq!(sparse.per_path_clp(m, 1), dense.per_path_clp(m, 1));
            prop_assert_eq!(sparse.per_path_latency_ms(m), dense.per_path_latency_ms(m));
            for s in 0..HOSTS {
                for d in 0..HOSTS {
                    let (s, d) = (HostId(s), HostId(d));
                    prop_assert_eq!(bits(sparse.cell(m, s, d)), bits(dense.cell(m, s, d)));
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

/// A cell's counters as comparable bits (`Cell` holds an f64).
fn bits(c: Cell) -> [u64; 10] {
    [
        c.pairs,
        c.pairs_lost,
        c.l1_sent,
        c.l1_lost,
        c.l2_sent,
        c.l2_lost,
        c.both_lost,
        c.first_lost_with_second,
        c.lat_sum_us.to_bits(),
        c.lat_cnt,
    ]
}

/// The pre-SoA array-of-structs accumulators over the dense n² grid,
/// kept as reference models: the production code stores parallel arrays
/// and only the rows of its pair index, and these originals pin the
/// merge/digest semantics every such layout must preserve. (They used to
/// pin the v1 wire bytes too — the v1 shape *was* the AoS layout — until
/// the wire became the columns.)
mod aos {
    use super::{Cell, Fnv, Histogram, HOSTS, METHODS};
    use netsim::{HostId, SimDuration};
    use trace::PairOutcome;

    #[derive(Debug, Clone, Copy, Default)]
    struct Open {
        window_idx: u64,
        sent: u32,
        lost: u32,
        used: bool,
    }

    pub struct WindowAccum {
        width_us: u64,
        n: usize,
        open: Vec<Open>,
        hist: Vec<Histogram>,
        thresholds: Vec<[u64; 10]>,
        windows: Vec<u64>,
    }

    impl WindowAccum {
        pub fn new(n: usize, methods: usize, width: SimDuration) -> Self {
            WindowAccum {
                width_us: width.as_micros(),
                n,
                open: vec![Open::default(); n * n * methods],
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
                self.open[cell] = Open::default();
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
                self.open[cell] = Open::default();
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

        /// The test file's testbed, fed `outs`.
        pub fn feed(max_legs: usize, outs: &[PairOutcome]) -> Self {
            let mut acc = Self::with_depth(HOSTS as usize, METHODS as usize, max_legs);
            for o in outs {
                acc.on_outcome(o);
            }
            acc
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
}
