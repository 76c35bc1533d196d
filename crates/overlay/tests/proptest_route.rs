//! Property test for route selection: `route` and `route_avoiding`
//! under `MinLoss` and `MinLat` against a brute-force scan written here,
//! which reads every candidate in full and shares no code with the
//! table's scans (those skip candidates whose first hop cannot win, and
//! ask some filters only of a would-be winner).
//!
//! The generated tables aim at the edges of those skips: direct paths
//! whose loss sits below, inside and above the hysteresis band; dead,
//! never-sampled, loss-only and stale candidates; `!alive` entries;
//! `loss_e4` up to `u16::MAX` (a live peer can send it); `lat_us = 0`;
//! and values drawn from short lists, so scores tie.

use netsim::{HostId, Rng, SimDuration, SimTime};
use overlay::{LinkStateTable, MetricEntry, PathStats, Policy, Route};
use proptest::prelude::*;
use std::collections::BTreeMap;

const N: usize = 9;
const ME: u16 = 4;
const STALENESS: SimDuration = SimDuration::from_secs(90);
const LOSS_HYSTERESIS: f64 = 0.05;
const LAT_HYSTERESIS: f64 = 0.10;
/// Consecutive losses that declare a path dead.
const DEAD: u32 = 5;

/// Successes recorded on a direct path: loss estimates from 0.5 (none)
/// through 0.005 (a full window of clean probes). Some differ by less
/// than a detour adds, so a first hop can come within a hair of the
/// best score and still beat it.
const SUCCESSES: [u32; 7] = [0, 1, 3, 12, 40, 50, 100];
const LAT_MS: [u64; 5] = [10, 20, 20, 30, 35];
const LOSS_E4: [u16; 7] = [0, 50, 499, 500, 10_000, u16::MAX, 1_200];
const LAT_US: [u32; 5] = [0, 1_000, 10_000, 20_000, 20_000];
/// Seconds between an entry being learned and the query: 90 is the
/// last second it is trusted, 91 the first it is not.
const AGE_S: [u64; 5] = [0, 30, 90, 91, 300];

/// One direct path: `(losses, successes, trailing losses, latency)`,
/// the last three as indices. Five trailing losses kill the path; all
/// zero leaves it never sampled.
type PathSpec = (u8, usize, u32, usize);

/// One advertised entry: `(loss, latency, alive, age)`, loss, latency and
/// age as indices.
type EntrySpec = (usize, usize, bool, usize);

/// One peer's advertisement: whether it arrives whole (one stamp, by
/// `adopt_full`) or entry by entry (each with its own age, by
/// `ingest_delta`), the whole vector's age, and an optional entry per
/// destination.
type AdvertSpec = (bool, usize, Vec<Option<EntrySpec>>);

fn arb_path() -> impl Strategy<Value = PathSpec> {
    (0u8..3, 0..SUCCESSES.len(), prop_oneof![Just(0u32), 0u32..7], 0..LAT_MS.len())
}

fn arb_entry() -> impl Strategy<Value = Option<EntrySpec>> {
    // One in three `!alive`.
    let entry = || {
        (0..LOSS_E4.len(), 0..LAT_US.len(), 0u8..3, 0..AGE_S.len())
            .prop_map(|(loss, lat, alive, age)| Some((loss, lat, alive != 0, age)))
    };
    prop_oneof![Just(None), entry(), entry()]
}

fn arb_advert() -> impl Strategy<Value = AdvertSpec> {
    (any::<bool>(), 0..AGE_S.len(), proptest::collection::vec(arb_entry(), N..N + 1))
}

/// The peers of `ME`, ascending.
fn peers() -> impl Iterator<Item = u16> {
    (0..N as u16).filter(|&k| k != ME)
}

/// What the test knows independently of the table: every stored
/// entry with the instant it was learned.
struct Model {
    adverts: BTreeMap<(u16, u16), (MetricEntry, SimTime)>,
    now: SimTime,
}

/// Builds the table and the model from the drawn specs.
fn build(paths: &[PathSpec], adverts: &[AdvertSpec]) -> (LinkStateTable, Model) {
    const NOW_S: u64 = 10_000;
    let learned = |age: usize| SimTime::from_secs(NOW_S - AGE_S[age]);
    let (window, alpha) = (100, 0.1);
    let mut t =
        LinkStateTable::new(HostId(ME), N, window, alpha, DEAD, STALENESS, LOSS_HYSTERESIS, LAT_HYSTERESIS);
    let mut adverts_seen = BTreeMap::new();
    let specs = paths.iter().zip(adverts);
    for (k, (&(losses, ok, trailing, lat), (whole, age, entries))) in peers().zip(specs) {
        let stats = t.direct_mut(HostId(k));
        for _ in 0..losses {
            stats.record_loss();
        }
        for _ in 0..SUCCESSES[ok] {
            stats.record_success(learned(0), SimDuration::from_millis(LAT_MS[lat]));
        }
        for _ in 0..trailing {
            stats.record_loss();
        }
        let mut vector = Vec::new();
        for (dst, spec) in (0..N as u16).zip(entries) {
            let Some((loss, lat_us, alive, entry_age)) = *spec else { continue };
            let (loss_e4, lat_us) = (LOSS_E4[loss], LAT_US[lat_us]);
            let e = MetricEntry { peer: HostId(dst), loss_e4, lat_us, alive };
            let at = learned(if *whole { *age } else { entry_age });
            if !*whole {
                t.ingest_delta(HostId(k), &[e], at);
            }
            vector.push(e);
            adverts_seen.insert((k, dst), (e, at));
        }
        if *whole {
            t.adopt_full(HostId(k), vector, learned(*age));
        }
    }
    (t, Model { adverts: adverts_seen, now: learned(0) })
}

impl Model {
    /// `k`'s entry toward `dst`, when one is stored and still trusted.
    fn advertised(&self, k: u16, dst: u16) -> Option<MetricEntry> {
        let (e, at) = self.adverts.get(&(k, dst))?;
        (self.now.since(*at) <= STALENESS).then_some(*e)
    }

    /// Every detour toward `dst` with my stats toward its first hop and
    /// the trusted, alive entry its second hop advertised.
    fn detours<'a>(
        &'a self,
        t: &'a LinkStateTable,
        dst: u16,
    ) -> impl Iterator<Item = (u16, &'a PathStats, MetricEntry)> + 'a {
        let alive = move |k| self.advertised(k, dst).filter(|e| e.alive);
        peers().filter(move |&k| k != dst).filter_map(move |k| Some((k, t.direct(HostId(k)), alive(k)?)))
    }

    /// `route` under `MinLoss`, every candidate read.
    fn min_loss(&self, t: &LinkStateTable, dst: u16) -> Route {
        let direct = t.direct(HostId(dst)).loss_estimate();
        let (mut best, mut best_score) = (Route::Direct, (direct - LOSS_HYSTERESIS).max(0.0));
        for (k, mine, e) in self.detours(t, dst) {
            let p = 1.0 - (1.0 - mine.loss_estimate()) * (1.0 - e.loss_e4 as f64 / 10_000.0);
            if !mine.is_dead() && mine.samples() > 0 && p < best_score {
                (best, best_score) = (Route::Via(HostId(k)), p);
            }
        }
        best
    }

    /// `route` under `MinLat`, every candidate read.
    fn min_lat(&self, t: &LinkStateTable, dst: u16) -> Route {
        let d = t.direct(HostId(dst));
        let direct = if d.is_dead() { f64::INFINITY } else { d.latency_us().unwrap_or(f64::INFINITY) };
        let (mut best, mut best_score) = (Route::Direct, direct * (1.0 - LAT_HYSTERESIS));
        for (k, mine, e) in self.detours(t, dst) {
            let usable = !mine.is_dead() && e.lat_us > 0;
            let Some(lat1) = mine.latency_us().filter(|_| usable) else { continue };
            let lat = lat1 + e.lat_us as f64;
            if lat < best_score {
                (best, best_score) = (Route::Via(HostId(k)), lat);
            }
        }
        best
    }

    /// `route_avoiding` with a non-empty `avoid`: the best route by
    /// `score(first hop, second hop's entry)` outside `avoid`, direct
    /// scored with a perfect second hop, else a random detour.
    fn avoiding(
        &self,
        t: &LinkStateTable,
        dst: u16,
        policy: Policy,
        avoid: &[Route],
        rng: &mut Rng,
    ) -> Route {
        let score = |mine: &PathStats, e: Option<MetricEntry>| {
            let (loss, lat) = e.map_or((0.0, 0.0), |e| (e.loss_e4 as f64 / 10_000.0, e.lat_us as f64));
            match policy {
                Policy::MinLoss => 1.0 - (1.0 - mine.loss_estimate()) * (1.0 - loss),
                _ => mine.latency_us().unwrap_or(f64::INFINITY) + lat,
            }
        };
        let (mut best, mut best_score) = (None, f64::INFINITY);
        let d = t.direct(HostId(dst));
        if !avoid.contains(&Route::Direct) && !d.is_dead() && score(d, None) < best_score {
            (best, best_score) = (Some(Route::Direct), score(d, None));
        }
        for (k, mine, e) in self.detours(t, dst) {
            let s = score(mine, Some(e));
            let allowed = !avoid.contains(&Route::Via(HostId(k)));
            if allowed && !mine.is_dead() && mine.samples() > 0 && s < best_score {
                (best, best_score) = (Some(Route::Via(HostId(k))), s);
            }
        }
        let candidate = best.unwrap_or(avoid[0]);
        if !avoid.contains(&candidate) {
            return candidate;
        }
        // Up to eight uniform draws over my peers other than `dst` for
        // one outside `avoid`, then one more taken as it falls.
        let others: Vec<u16> = peers().filter(|&k| k != dst).collect();
        let mut draw = || Route::Via(HostId(others[rng.below(others.len() as u64) as usize]));
        for _ in 0..8 {
            let r = draw();
            if !avoid.contains(&r) {
                return r;
            }
        }
        draw()
    }
}

fn arb_avoid() -> impl Strategy<Value = Vec<u16>> {
    // A route per draw: N stands for direct, anything else for a detour
    // through that host (the table's own id and `dst` included).
    proptest::collection::vec(0..N as u16 + 1, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn routes_equal_a_scan_that_reads_every_candidate(
        paths in proptest::collection::vec(arb_path(), N - 1..N),
        adverts in proptest::collection::vec(arb_advert(), N - 1..N),
        avoids in proptest::collection::vec(arb_avoid(), N..N + 1),
        seed in 0u64..1_000,
    ) {
        let (t, model) = build(&paths, &adverts);
        let now = model.now;
        for (dst, avoid) in (0..N as u16).filter(|&d| d != ME).zip(&avoids) {
            let mut rng = Rng::new(seed);
            let min_loss = t.route(HostId(dst), Policy::MinLoss, now, &mut rng);
            prop_assert_eq!(min_loss, model.min_loss(&t, dst), "min-loss toward {}", dst);
            let min_lat = t.route(HostId(dst), Policy::MinLat, now, &mut rng);
            prop_assert_eq!(min_lat, model.min_lat(&t, dst), "min-lat toward {}", dst);
            let route = |k| if k == N as u16 { Route::Direct } else { Route::Via(HostId(k)) };
            let avoid: Vec<Route> = avoid.iter().map(|&k| route(k)).collect();
            for policy in [Policy::MinLoss, Policy::MinLat] {
                let (mut table_rng, mut model_rng) = (Rng::new(seed), Rng::new(seed));
                let expect = if avoid.is_empty() {
                    if policy == Policy::MinLoss { model.min_loss(&t, dst) } else { model.min_lat(&t, dst) }
                } else {
                    model.avoiding(&t, dst, policy, &avoid, &mut model_rng)
                };
                let got = t.route_avoiding(HostId(dst), policy, now, &mut table_rng, &avoid);
                prop_assert_eq!(got, expect, "{:?} toward {} avoiding {:?}", policy, dst, avoid);
                // And the same number of draws behind it.
                prop_assert_eq!(table_rng.next_u64(), model_rng.next_u64());
            }
        }
    }
}
