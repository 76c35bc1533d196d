//! The link-state table and route selection.
//!
//! Each node measures its *direct* paths with the prober and learns every
//! peer's direct-path metrics from the vectors piggybacked on probe
//! traffic. A *peer* is a member of the node's [`PeerSet`] — every other
//! host of a clique, the declared neighbours of a sparse mesh — and
//! everything here is per peer, indexed by the set's slots: one
//! direct-path [`PathStats`], one advertised vector, one cached snapshot
//! entry each. Nothing is sized by the mesh. Routing considers the direct
//! path and all two-hop paths through a single peer (§3.1):
//!
//! * **min-loss**: minimise `1 - (1-p₁)(1-p₂)`, the composed loss of the
//!   two overlay hops, against the direct path's windowed loss rate;
//! * **min-latency**: minimise the sum of hop latency estimates while
//!   avoiding paths declared failed;
//! * **random**: a uniformly random intermediate — the mesh-routing
//!   building block, requiring no probe data at all.
//!
//! A small hysteresis keeps routes from flapping between statistically
//! indistinguishable alternatives (the RON implementation does the same).

use crate::peers::PeerSet;
use crate::stats::PathStats;
use crate::wire::MetricEntry;
use netsim::{HostId, Rng, SimDuration, SimTime};

/// Route selection policy (§3, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Always the direct Internet path.
    Direct,
    /// A uniformly random single intermediate.
    Random,
    /// Probe-based loss minimisation.
    MinLoss,
    /// Probe-based latency minimisation (avoiding failed links).
    MinLat,
}

/// A routing decision: the overlay uses at most one intermediate node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Send on the direct Internet path.
    Direct,
    /// Forward through this intermediate node.
    Via(HostId),
}

/// A peer's claimed metric toward some destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteMetric {
    /// Claimed loss rate (0..1).
    pub loss: f64,
    /// Claimed one-way latency, microseconds.
    pub lat_us: f64,
    /// Claimed liveness.
    pub alive: bool,
}

impl RemoteMetric {
    /// A second hop that adds nothing: composed behind a first hop it
    /// scores that hop alone, and no advertised metric scores better
    /// (see [`LinkStateTable::argmin_avoiding`]).
    const PERFECT: RemoteMetric = RemoteMetric { loss: 0.0, lat_us: 0.0, alive: true };

    fn from_entry(e: &MetricEntry) -> RemoteMetric {
        RemoteMetric {
            loss: e.loss_e4 as f64 / 10_000.0,
            lat_us: e.lat_us as f64,
            alive: e.alive,
        }
    }
}

/// One peer's advertised entries, stored sparse and as they arrived:
/// the wire entries sorted by destination, one per destination the peer
/// has actually *advertised*, looked up by binary search. Under a sparse
/// probe mesh a peer advertises O(k) destinations, so a node's full
/// table is O(n·k) instead of the dense layout's O(n²) — the dominant
/// per-node allocation at thousands of hosts.
///
/// Staleness is per *entry*, not per vector: delta dissemination
/// refreshes entries individually, and an entry a silent peer last
/// advertised long ago must age out of route selection even if the peer
/// still chatters about other destinations. But a full advertisement
/// stamps every entry with one instant, so the vector keeps one stamp
/// (`learned`) and builds the per-entry column (`stamps`) only when a
/// merge stamps entries one by one at another instant.
///
/// A peer that has advertised nothing is the empty vector (no heap).
/// Advertisements arrive sorted by destination — senders emit them in
/// [`LinkStateTable::snapshot`] order — so a full one is kept whole
/// ([`LinkStateTable::adopt_full`]) and [`Self::merge`] walks the stored
/// and the arriving list side by side instead of searching per entry.
/// Reads convert an entry through [`RemoteMetric::from_entry`].
#[derive(Debug, Clone, Default)]
struct PeerVector {
    entries: Vec<MetricEntry>,
    /// When `entries[i]` was learned; empty when every entry was
    /// learned at `learned`.
    stamps: Vec<SimTime>,
    /// When every entry was learned, while `stamps` is empty.
    learned: SimTime,
}

/// Whether `entries` is what every sender emits: strictly ascending by
/// destination, every destination inside the `n`-node mesh. Such a list
/// is stored as it is; [`PeerVector::merge`] of it into an empty vector
/// would store exactly the same entries.
fn well_formed(entries: &[MetricEntry], n: usize) -> bool {
    let ascending = entries.windows(2).all(|w| w[0].peer.0 < w[1].peer.0);
    ascending && entries.last().is_none_or(|e| e.peer.idx() < n)
}

impl PeerVector {
    /// The entry toward `dst` and when it was learned.
    #[inline]
    fn get(&self, dst: u16) -> Option<(&MetricEntry, SimTime)> {
        // A verified hint: a peer that advertises everyone but itself
        // (a clique's steady state) keeps `dst` at index `dst` or one
        // below. Whatever the contents, a hit is checked by key and a
        // miss falls through to the search.
        let guess = usize::from(dst).min(self.entries.len().saturating_sub(1));
        let at = [guess, guess.wrapping_sub(1)]
            .into_iter()
            .find(|&at| self.entries.get(at).is_some_and(|e| e.peer.0 == dst))
            .or_else(|| self.entries.binary_search_by_key(&dst, |e| e.peer.0).ok())?;
        Some((&self.entries[at], self.stamps.get(at).copied().unwrap_or(self.learned)))
    }

    /// Empties the vector for a full advertisement learned `now`,
    /// keeping its buffers.
    fn reset(&mut self, now: SimTime) {
        self.entries.clear();
        self.stamps.clear();
        self.learned = now;
    }

    /// Stores `e` at index `at`, over the entry there when it has the
    /// same destination; with a stamp column, stamps it `now`.
    fn put(&mut self, at: usize, e: &MetricEntry, now: SimTime) {
        let column = !self.stamps.is_empty();
        if self.entries.get(at).is_some_and(|old| old.peer == e.peer) {
            self.entries[at] = *e;
            if column {
                self.stamps[at] = now;
            }
        } else {
            self.entries.insert(at, *e);
            if column {
                self.stamps.insert(at, now);
            }
        }
    }

    /// Merges an advertisement into the vector, stamping every entry
    /// `now`: destinations outside the `n`-node mesh are skipped and the
    /// last write to a destination wins. A forward merge-join: the scan
    /// resumes at `at`, the slot after the one the previous ascending
    /// entry landed in, so an ascending list costs one pass over the
    /// stored entries (and pure appends into an empty vector). The
    /// vector is sorted, so a destination above the key in slot
    /// `at - 1` belongs at `at` or later whatever came before; any
    /// other entry — shuffled or duplicated input — is placed by binary
    /// search.
    ///
    /// A vector whose entries were all learned `now` (an empty one
    /// included) stays on its one stamp; any other builds its column.
    fn merge(&mut self, entries: &[MetricEntry], n: usize, now: SimTime) {
        if self.entries.is_empty() {
            self.reset(now);
        } else if self.stamps.is_empty() && self.learned != now {
            self.stamps.reserve_exact(self.entries.len());
            self.stamps.resize(self.entries.len(), self.learned);
        }
        let mut at = 0;
        for e in entries {
            if e.peer.idx() >= n {
                continue;
            }
            let dst = e.peer.0;
            if at > 0 && dst <= self.entries[at - 1].peer.0 {
                let i = self.entries.binary_search_by_key(&dst, |s| s.peer.0).unwrap_or_else(|i| i);
                self.put(i, e, now);
                continue;
            }
            while at < self.entries.len() && self.entries[at].peer.0 < dst {
                at += 1;
            }
            self.put(at, e, now);
            at += 1;
        }
    }
}

/// Everything one node knows about the mesh.
#[derive(Debug)]
pub struct LinkStateTable {
    me: HostId,
    peers: PeerSet,
    /// Direct-path stats toward each peer, by slot.
    direct: Vec<PathStats>,
    /// What each peer advertised, by slot; the entries inside stay keyed
    /// by destination *host id*, as they arrived.
    vectors: Vec<PeerVector>,
    /// A never-sampled path: what [`Self::direct`] says of a non-peer.
    unsampled: PathStats,
    staleness: SimDuration,
    /// Absolute loss-rate advantage an indirect path must show.
    loss_hysteresis: f64,
    /// Relative latency advantage an indirect path must show.
    lat_hysteresis: f64,
    /// Cached [`Self::snapshot`] vector, by slot. Probes snapshot far
    /// more often than the prober records outcomes, so the cache turns
    /// the per-probe allocate-and-summarise into a slice borrow, and a
    /// recorded outcome costs one re-summarised slot, not all of them.
    /// Empty means "rebuild all of it": never built, or dropped because
    /// more touches than there are peers accumulated between two
    /// snapshots.
    snap_cache: Vec<MetricEntry>,
    /// Slots handed out by [`Self::direct_mut`] since a non-empty cache
    /// was last brought up to date: the only ones that can differ from
    /// it. Never longer than the peer set.
    snap_touched: Vec<u16>,
    /// Counts [`Self::direct_mut`] calls, so the disseminator can tell
    /// "nothing measured since I last looked" without diffing vectors.
    direct_epoch: u64,
}

/// The entry a node advertises for its direct path toward `peer`.
fn advertised(peer: HostId, s: &PathStats) -> MetricEntry {
    MetricEntry {
        peer,
        // Advertise the smoothed routing estimate, not the raw
        // window: peers compose it into two-hop predictions.
        loss_e4: (s.loss_estimate() * 10_000.0).round().min(10_000.0) as u16,
        lat_us: s.latency_us().unwrap_or(0.0).min(u32::MAX as f64) as u32,
        alive: !s.is_dead() && s.samples() > 0,
    }
}

impl LinkStateTable {
    /// Creates a table for a clique of `n` nodes: [`Self::with_peers`]
    /// over [`PeerSet::everyone`].
    #[allow(clippy::too_many_arguments, reason = "mirrors with_peers, whose parameters are the table's knobs")]
    pub fn new(
        me: HostId,
        n: usize,
        window: usize,
        ewma_alpha: f64,
        dead_threshold: u32,
        staleness: SimDuration,
        loss_hysteresis: f64,
        lat_hysteresis: f64,
    ) -> Self {
        Self::with_peers(
            me,
            PeerSet::everyone(me, n),
            window,
            ewma_alpha,
            dead_threshold,
            staleness,
            loss_hysteresis,
            lat_hysteresis,
        )
    }

    /// Creates the table of node `me`, which peers with `peers`.
    ///
    /// # Panics
    ///
    /// When `me` is one of its own peers.
    #[allow(clippy::too_many_arguments, reason = "one parameter per knob of the node's overlay configuration")]
    pub fn with_peers(
        me: HostId,
        peers: PeerSet,
        window: usize,
        ewma_alpha: f64,
        dead_threshold: u32,
        staleness: SimDuration,
        loss_hysteresis: f64,
        lat_hysteresis: f64,
    ) -> Self {
        assert!(peers.slot(me).is_none(), "host {} cannot peer with itself", me.0);
        let unsampled = PathStats::new(window, ewma_alpha, dead_threshold);
        LinkStateTable {
            me,
            direct: vec![unsampled.clone(); peers.len()],
            vectors: vec![PeerVector::default(); peers.len()],
            peers,
            unsampled,
            staleness,
            loss_hysteresis,
            lat_hysteresis,
            snap_cache: Vec::new(),
            snap_touched: Vec::new(),
            direct_epoch: 0,
        }
    }

    /// Mesh size.
    pub fn n(&self) -> usize {
        self.peers.n()
    }

    /// The hosts this table keeps state for.
    pub fn peers(&self) -> &PeerSet {
        &self.peers
    }

    /// Approximate resident bytes of this table's state: the struct
    /// itself, the peer set, the direct-path stats (including each loss
    /// window's lazy buffer), every stored peer vector, the snapshot
    /// cache and its touched list. The scaling harness reports this per
    /// host, so the sparse-vs-dense storage win is measurable instead of
    /// asserted.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // The node's prober and disseminator share the set's ids; they
        // are counted here, once.
        let mut b = size_of::<Self>() + self.peers.len() * size_of::<u16>();
        b += self.direct.capacity() * size_of::<PathStats>();
        for s in &self.direct {
            b += s.heap_bytes();
        }
        b += self.vectors.capacity() * size_of::<PeerVector>();
        for v in &self.vectors {
            b += v.entries.capacity() * size_of::<MetricEntry>() + v.stamps.capacity() * size_of::<SimTime>();
        }
        b += self.snap_cache.capacity() * size_of::<MetricEntry>();
        b += self.snap_touched.capacity() * size_of::<u16>();
        b
    }

    /// Mutable access to the direct-path stats toward `peer` (the prober
    /// records outcomes through this). The advertised vector summarises
    /// exactly these stats, so `peer`'s slot of the snapshot cache is
    /// marked for re-summarising; once as many marks as peers are
    /// outstanding the list and the cache are dropped in favour of one
    /// full rebuild, which bounds the list.
    ///
    /// # Panics
    ///
    /// When `peer` is not in the peer set: there is nothing to record
    /// into. Packets never get here — the prober only measures its own
    /// peers and drops answers from anyone else.
    pub fn direct_mut(&mut self, peer: HostId) -> &mut PathStats {
        let Some(slot) = self.peers.slot(peer) else {
            panic!("host {} is not a peer of host {}", peer.0, self.me.0)
        };
        self.direct_epoch += 1;
        if !self.snap_cache.is_empty() {
            if self.snap_touched.len() < self.direct.len() {
                self.snap_touched.push(slot as u16);
            } else {
                self.snap_touched.clear();
                self.snap_cache.clear();
            }
        }
        &mut self.direct[slot]
    }

    /// How many times [`Self::direct_mut`] has been called: unchanged
    /// between two reads means [`Self::snapshot`] is unchanged too.
    pub(crate) fn direct_epoch(&self) -> u64 {
        self.direct_epoch
    }

    /// Direct-path stats toward `peer`; a host outside the peer set
    /// reads as a path that was never sampled, which it is.
    pub fn direct(&self, peer: HostId) -> &PathStats {
        self.peers.slot(peer).map_or(&self.unsampled, |slot| &self.direct[slot])
    }

    /// Ingests a *complete* advertisement from `from`: every previously
    /// known entry is discarded and the new ones are stamped `now`.
    pub fn ingest_full(&mut self, from: HostId, entries: &[MetricEntry], now: SimTime) {
        let Some(slot) = self.peers.slot(from) else { return };
        // Reuse the buffer; grow it (rarely, and to the exact size, as a
        // fresh vector would be) only when the peer advertises more than
        // it ever has. Every entry is learned `now`: one stamp.
        let v = &mut self.vectors[slot];
        v.reset(now);
        v.entries.reserve_exact(entries.len());
        v.merge(entries, self.peers.n(), now);
    }

    /// [`Self::ingest_full`] of an advertisement the caller owns: a
    /// well-formed list is kept as it arrived — its buffer becomes the
    /// peer's stored vector, so nothing is copied or converted — and
    /// anything else is ingested as `ingest_full` would, ending in the
    /// same state.
    pub fn adopt_full(&mut self, from: HostId, entries: Vec<MetricEntry>, now: SimTime) {
        let Some(slot) = self.peers.slot(from) else { return };
        if !well_formed(&entries, self.peers.n()) {
            return self.ingest_full(from, &entries, now);
        }
        let v = &mut self.vectors[slot];
        v.reset(now);
        v.entries = entries;
    }

    /// Ingests a *partial* advertisement from `from`: only the listed
    /// destinations are updated (stamped `now`); everything else keeps
    /// its previous value and timestamp, so unrefreshed entries age out
    /// of route selection on their own.
    ///
    /// An advertisement from a host with no slot is not stored, by this
    /// or either full ingest.
    pub fn ingest_delta(&mut self, from: HostId, entries: &[MetricEntry], now: SimTime) {
        let Some(slot) = self.peers.slot(from) else { return };
        self.vectors[slot].merge(entries, self.peers.n(), now);
    }

    /// Snapshot of my direct metrics for piggybacking on probe packets:
    /// one entry per peer, ascending. Served from a cache that
    /// [`Self::direct_mut`] keeps a to-do list for — only the slots it
    /// handed out since the last call are re-summarised (all of them on
    /// the first call, or when the list overflowed); callers that need
    /// an owned copy clone the slice.
    pub fn snapshot(&mut self) -> &[MetricEntry] {
        if self.snap_cache.is_empty() {
            let summaries = self.peers.ids().iter().zip(&self.direct);
            self.snap_cache.extend(summaries.map(|(&j, s)| advertised(HostId(j), s)));
        } else {
            for slot in self.snap_touched.drain(..).map(usize::from) {
                self.snap_cache[slot] = advertised(self.peers.id(slot), &self.direct[slot]);
            }
        }
        &self.snap_cache
    }

    /// The freshest non-stale metric `from` has advertised toward `dst`,
    /// if any — exactly the view route selection composes over. Public
    /// so convergence tests can compare tables fed by different
    /// dissemination strategies.
    pub fn remote_metric(&self, from: HostId, dst: HostId, now: SimTime) -> Option<RemoteMetric> {
        let (e, at) = self.vectors[self.peers.slot(from)?].get(dst.0)?;
        self.is_fresh(at, now).then(|| RemoteMetric::from_entry(e))
    }

    /// Whether an entry learned `at` is still trusted `now`.
    fn is_fresh(&self, at: SimTime, now: SimTime) -> bool {
        now.since(at) <= self.staleness
    }

    /// The peers a packet for `dst` could detour through, ascending:
    /// each with my direct stats toward it and the vector it advertised.
    fn intermediates(
        &self,
        dst: HostId,
    ) -> impl Iterator<Item = (HostId, &PathStats, &PeerVector)> {
        let per_peer = self.peers.ids().iter().zip(&self.direct).zip(&self.vectors);
        per_peer.filter(move |((&k, _), _)| k != dst.0).map(|((&k, mine), v)| (HostId(k), mine, v))
    }

    /// Selects a route toward `dst` under `policy`. `rng` supplies the
    /// randomness for [`Policy::Random`].
    pub fn route(&self, dst: HostId, policy: Policy, now: SimTime, rng: &mut Rng) -> Route {
        debug_assert_ne!(dst, self.me);
        match policy {
            Policy::Direct => Route::Direct,
            Policy::Random => self.random_via(dst, rng),
            Policy::MinLoss => self.min_loss(dst, now),
            Policy::MinLat => self.min_lat(dst, now),
        }
    }

    /// Selects a route toward `dst` distinct from *every* route in
    /// `avoid` — the later copies of a redundant probe must travel "on
    /// each distinct paths" (§3.2). One entry is the paper's 2-redundant
    /// pair (avoid the first copy's path), more are leg k under full
    /// prior-leg diversity, and an empty slice is plain [`Self::route`].
    /// When the policy's best route is excluded the best allowed
    /// alternative is taken, even if it is worse; with no information at
    /// all, or no unused path left, the fallback is a random detour
    /// (possibly colliding).
    pub fn route_avoiding(
        &self,
        dst: HostId,
        policy: Policy,
        now: SimTime,
        rng: &mut Rng,
        avoid: &[Route],
    ) -> Route {
        debug_assert_ne!(dst, self.me);
        if avoid.is_empty() {
            return self.route(dst, policy, now, rng);
        }
        let candidate = match policy {
            Policy::Direct => Route::Direct,
            Policy::Random => self.random_avoiding(dst, rng, avoid),
            Policy::MinLoss => self.argmin_avoiding(
                dst,
                now,
                avoid,
                |mine| 1.0 - mine.loss_estimate(),
                |delivered, rm| 1.0 - delivered * (1.0 - rm.loss),
            ),
            Policy::MinLat => self.argmin_avoiding(
                dst,
                now,
                avoid,
                |mine| mine.latency_us().unwrap_or(f64::INFINITY),
                |lat1, rm| lat1 + rm.lat_us,
            ),
        };
        if avoid.contains(&candidate) {
            // Direct policy with direct excluded, or a degenerate mesh:
            // force a random detour (any diversity beats none).
            self.random_avoiding(dst, rng, avoid)
        } else {
            candidate
        }
    }

    fn random_avoiding(&self, dst: HostId, rng: &mut Rng, avoid: &[Route]) -> Route {
        for _ in 0..8 {
            let r = self.random_via(dst, rng);
            if !avoid.contains(&r) {
                return r;
            }
        }
        // Tiny meshes may have no alternative.
        self.random_via(dst, rng)
    }

    /// Best route by `score` (lower is better) among direct and one-hop
    /// candidates, skipping everything in `avoid`: a route scores
    /// `score(hop(first hop's stats), second hop)`. No hysteresis: when
    /// routes are excluded the question is "what is the best *other*
    /// path", not "is a detour worth the risk".
    ///
    /// `score` must rate no advertised second hop better than
    /// [`RemoteMetric::PERFECT`]. Both callers' scores are monotone in
    /// the second hop, and so is their rounding: `1 − (1−a)(1−b)` with
    /// `0 ≤ 1−a ≤ 1` and `b ≥ 0` (`loss_e4` may exceed 10 000) rounds
    /// to at least `1 − (1−a)`, and `lat₁ + l₂` with `l₂ ≥ 0` to at least
    /// `lat₁`. So a candidate whose first hop alone does not beat the
    /// best so far cannot win (a win is strictly lower), and is skipped
    /// without reading its vector. Nothing here draws randomness or has
    /// a side effect, so the skip changes no result.
    ///
    /// For the same reason the order of the filters is free, and the
    /// ones a loser need not pass — staleness and, here, `avoid` — are
    /// asked last, of a candidate that would otherwise win. When every
    /// detour scores alike (a clean mesh) almost none does.
    fn argmin_avoiding<H, F>(&self, dst: HostId, now: SimTime, avoid: &[Route], hop: H, score: F) -> Route
    where
        H: Fn(&PathStats) -> f64,
        F: Fn(f64, &RemoteMetric) -> f64,
    {
        let mut best = None;
        let mut best_score = f64::INFINITY;
        if !avoid.contains(&Route::Direct) {
            let d = self.direct(dst);
            if !d.is_dead() {
                // Score direct as a one-hop with a perfect second hop.
                let s = score(hop(d), &RemoteMetric::PERFECT);
                if s < best_score {
                    best_score = s;
                    best = Some(Route::Direct);
                }
            }
        }
        for (kh, mine, vector) in self.intermediates(dst) {
            if mine.is_dead() || mine.samples() == 0 {
                continue;
            }
            let first = hop(mine);
            if score(first, &RemoteMetric::PERFECT) >= best_score {
                continue;
            }
            let Some((e, at)) = vector.get(dst.0) else { continue };
            let rm = RemoteMetric::from_entry(e);
            if !rm.alive {
                continue;
            }
            let s = score(first, &rm);
            if s < best_score && self.is_fresh(at, now) && !avoid.contains(&Route::Via(kh)) {
                best_score = s;
                best = Some(Route::Via(kh));
            }
        }
        best.unwrap_or(avoid[0]) // caller resolves the collision
    }

    fn random_via(&self, dst: HostId, rng: &mut Rng) -> Route {
        // Uniform over my peers other than dst: one draw, the slots at
        // and above dst's sitting one higher.
        let dst_slot = self.peers.slot(dst);
        let candidates = self.peers.len() - usize::from(dst_slot.is_some());
        if candidates == 0 {
            return Route::Direct;
        }
        let k = rng.below(candidates as u64) as usize;
        Route::Via(self.peers.id(k + usize::from(dst_slot.is_some_and(|d| k >= d))))
    }

    fn min_loss(&self, dst: HostId, now: SimTime) -> Route {
        let direct_loss = self.direct(dst).loss_estimate();
        let mut best = Route::Direct;
        // Hysteresis: an indirect path must beat direct by a margin.
        let mut best_score = (direct_loss - self.loss_hysteresis).max(0.0);
        for (kh, mine, vector) in self.intermediates(dst) {
            if mine.is_dead() || mine.samples() == 0 {
                continue;
            }
            // The first hop with a perfect second one: a bound no
            // advertised second hop can beat (see `argmin_avoiding`).
            let first = 1.0 - mine.loss_estimate();
            if 1.0 - first >= best_score {
                continue;
            }
            let Some((e, at)) = vector.get(dst.0) else { continue };
            let rm = RemoteMetric::from_entry(e);
            if !rm.alive {
                continue;
            }
            let p = 1.0 - first * (1.0 - rm.loss);
            if p < best_score && self.is_fresh(at, now) {
                best_score = p;
                best = Route::Via(kh);
            }
        }
        best
    }

    fn min_lat(&self, dst: HostId, now: SimTime) -> Route {
        let d = self.direct(dst);
        let direct_lat = if d.is_dead() { f64::INFINITY } else { d.latency_us().unwrap_or(f64::INFINITY) };
        let mut best = Route::Direct;
        let mut best_score = direct_lat * (1.0 - self.lat_hysteresis);
        for (kh, mine, vector) in self.intermediates(dst) {
            if mine.is_dead() {
                continue;
            }
            let Some(lat1) = mine.latency_us() else { continue };
            // `lat1 + l2 ≥ lat1` for every advertised `l2` (see
            // `argmin_avoiding`).
            if lat1 >= best_score {
                continue;
            }
            let Some((e, at)) = vector.get(dst.0) else { continue };
            let rm = RemoteMetric::from_entry(e);
            if !rm.alive || rm.lat_us <= 0.0 {
                continue;
            }
            let lat = lat1 + rm.lat_us;
            if lat < best_score && self.is_fresh(at, now) {
                best_score = lat;
                best = Route::Via(kh);
            }
        }
        // An unusable direct path with no alternative still routes direct
        // (there is nothing better to try).
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn table(n: usize) -> LinkStateTable {
        LinkStateTable::new(
            HostId(0),
            n,
            100,
            0.1,
            5,
            SimDuration::from_secs(90),
            0.01,
            0.05,
        )
    }

    pub(super) fn feed_direct(t: &mut LinkStateTable, peer: u16, losses: usize, successes: usize, lat_ms: u64) {
        for _ in 0..losses {
            t.direct_mut(HostId(peer)).record_loss();
        }
        for _ in 0..successes {
            t.direct_mut(HostId(peer))
                .record_success(SimTime::from_secs(1), SimDuration::from_millis(lat_ms));
        }
    }

    pub(super) fn vector_from(t: &mut LinkStateTable, from: u16, toward: u16, loss: f64, lat_ms: u32, at: SimTime) {
        t.ingest_full(
            HostId(from),
            &[MetricEntry {
                peer: HostId(toward),
                loss_e4: (loss * 10_000.0) as u16,
                lat_us: lat_ms * 1000,
                alive: true,
            }],
            at,
        );
    }

    #[test]
    fn fresh_table_routes_direct() {
        let t = table(5);
        let mut rng = Rng::new(1);
        let now = SimTime::from_secs(10);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, now, &mut rng), Route::Direct);
        assert_eq!(t.route(HostId(3), Policy::MinLat, now, &mut rng), Route::Direct);
        assert_eq!(t.route(HostId(3), Policy::Direct, now, &mut rng), Route::Direct);
    }

    #[test]
    fn min_loss_takes_clean_detour() {
        let mut t = table(4);
        let now = SimTime::from_secs(100);
        // Direct 0→3 is 30% lossy; 0→1 clean and 1 reports 1→3 clean.
        feed_direct(&mut t, 3, 30, 70, 50);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 3, 0.0, 10, now);
        let mut rng = Rng::new(2);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, now, &mut rng), Route::Via(HostId(1)));
    }

    #[test]
    fn min_loss_stays_direct_when_detour_is_worse() {
        let mut t = table(4);
        let now = SimTime::from_secs(100);
        feed_direct(&mut t, 3, 2, 98, 50); // 2% direct
        feed_direct(&mut t, 1, 10, 90, 10); // 10% to the candidate hop
        vector_from(&mut t, 1, 3, 0.0, 10, now);
        let mut rng = Rng::new(3);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, now, &mut rng), Route::Direct);
    }

    #[test]
    fn hysteresis_keeps_marginal_detours_out() {
        let mut t = table(4);
        let now = SimTime::from_secs(100);
        // Direct 1% lossy; detour 0.8% — inside the 0.5% hysteresis band.
        feed_direct(&mut t, 3, 1, 99, 50);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 3, 0.008, 10, now);
        let mut rng = Rng::new(4);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, now, &mut rng), Route::Direct);
    }

    #[test]
    fn a_detour_whose_first_hop_nearly_ties_the_best_is_still_scored() {
        // The scans skip a detour only when its first hop alone cannot
        // beat the best so far. Hop 2 comes within a hair of hop 1's
        // score on its first hop alone, and its perfect second hop wins.
        let mut t = table(5);
        let now = SimTime::from_secs(100);
        feed_direct(&mut t, 4, 2, 98, 100); // loss 2.5/101, 100 ms
        feed_direct(&mut t, 1, 0, 100, 10); // loss 0.5/101, 10 ms
        feed_direct(&mut t, 2, 0, 50, 88); // loss 0.5/51, 88 ms
        vector_from(&mut t, 1, 4, 0.005, 80, now); // 0.00993, 90 ms
        vector_from(&mut t, 2, 4, 0.0, 1, now); // 0.00980, 89 ms
        let mut rng = Rng::new(12);
        for policy in [Policy::MinLoss, Policy::MinLat] {
            assert_eq!(t.route(HostId(4), policy, now, &mut rng), Route::Via(HostId(2)), "{policy:?}");
            let avoiding = t.route_avoiding(HostId(4), policy, now, &mut rng, &[Route::Direct]);
            assert_eq!(avoiding, Route::Via(HostId(2)), "{policy:?} avoiding direct");
        }
    }

    #[test]
    fn stale_vectors_are_ignored() {
        let mut t = table(4);
        feed_direct(&mut t, 3, 30, 70, 50);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 3, 0.0, 10, SimTime::from_secs(100));
        let much_later = SimTime::from_secs(100 + 600);
        let mut rng = Rng::new(5);
        assert_eq!(
            t.route(HostId(3), Policy::MinLoss, much_later, &mut rng),
            Route::Direct,
            "a ten-minute-old vector must not be trusted"
        );
    }

    #[test]
    fn min_lat_picks_faster_two_hop() {
        let mut t = table(4);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 3, 0, 50, 100); // direct: 100 ms
        feed_direct(&mut t, 1, 0, 50, 20); // to hop: 20 ms
        vector_from(&mut t, 1, 3, 0.0, 30, now); // hop to dst: 30 ms
        let mut rng = Rng::new(6);
        assert_eq!(t.route(HostId(3), Policy::MinLat, now, &mut rng), Route::Via(HostId(1)));
    }

    #[test]
    fn min_lat_avoids_dead_direct() {
        let mut t = table(4);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 3, 0, 10, 10); // fast direct...
        for _ in 0..5 {
            t.direct_mut(HostId(3)).record_loss(); // ...then it dies
        }
        feed_direct(&mut t, 1, 0, 50, 40);
        vector_from(&mut t, 1, 3, 0.0, 40, now);
        let mut rng = Rng::new(7);
        assert_eq!(
            t.route(HostId(3), Policy::MinLat, now, &mut rng),
            Route::Via(HostId(1)),
            "lat policy must avoid completely failed links"
        );
    }

    #[test]
    fn random_never_picks_endpoints_and_is_uniform() {
        let t = table(6);
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 6];
        for _ in 0..8_000 {
            match t.route(HostId(3), Policy::Random, SimTime::ZERO, &mut rng) {
                Route::Via(k) => counts[k.idx()] += 1,
                Route::Direct => panic!("random with n>2 must pick an intermediate"),
            }
        }
        assert_eq!(counts[0], 0, "never via self");
        assert_eq!(counts[3], 0, "never via destination");
        for k in [1usize, 2, 4, 5] {
            assert!(
                (1_600..2_400).contains(&counts[k]),
                "intermediate {k} count {} not uniform",
                counts[k]
            );
        }
    }

    #[test]
    fn random_on_two_nodes_degrades_to_direct() {
        let t = table(2);
        let mut rng = Rng::new(9);
        assert_eq!(t.route(HostId(1), Policy::Random, SimTime::ZERO, &mut rng), Route::Direct);
    }

    #[test]
    fn dead_intermediate_excluded_from_min_loss() {
        let mut t = table(4);
        let now = SimTime::from_secs(100);
        feed_direct(&mut t, 3, 30, 70, 50);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 3, 0.0, 10, now);
        for _ in 0..5 {
            t.direct_mut(HostId(1)).record_loss(); // hop 1 dies
        }
        let mut rng = Rng::new(10);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, now, &mut rng), Route::Direct);
    }

    #[test]
    fn delta_ingest_merges_and_keeps_old_entries() {
        let mut t = table(5);
        let t0 = SimTime::from_secs(100);
        let t1 = SimTime::from_secs(110);
        vector_from(&mut t, 1, 3, 0.1, 10, t0);
        // A later delta about a *different* destination must not erase
        // the entry toward 3 (full-snapshot ingest would).
        t.ingest_delta(
            HostId(1),
            &[MetricEntry { peer: HostId(4), loss_e4: 500, lat_us: 7_000, alive: true }],
            t1,
        );
        let toward3 = t.remote_metric(HostId(1), HostId(3), t1).expect("kept");
        assert!((toward3.loss - 0.1).abs() < 1e-9);
        let toward4 = t.remote_metric(HostId(1), HostId(4), t1).expect("merged");
        assert!((toward4.loss - 0.05).abs() < 1e-9);
    }

    #[test]
    fn unrefreshed_delta_entries_age_out_individually() {
        let mut t = table(5);
        let t0 = SimTime::from_secs(100);
        t.ingest_delta(
            HostId(1),
            &[MetricEntry { peer: HostId(3), loss_e4: 0, lat_us: 10_000, alive: true }],
            t0,
        );
        // The peer keeps refreshing its entry toward 4 but goes silent
        // about 3; past the staleness horizon only 4 survives.
        let late = SimTime::from_secs(100 + 200);
        t.ingest_delta(
            HostId(1),
            &[MetricEntry { peer: HostId(4), loss_e4: 0, lat_us: 10_000, alive: true }],
            late,
        );
        assert!(t.remote_metric(HostId(1), HostId(3), late).is_none(), "stale entry kept");
        assert!(t.remote_metric(HostId(1), HostId(4), late).is_some());
    }

    #[test]
    fn silenced_peer_stops_attracting_via_routes() {
        let mut t = table(4);
        let t0 = SimTime::from_secs(100);
        // Direct 0→3 is 30% lossy; hop 1 is clean and claims a clean
        // path onward, so MinLoss detours via 1.
        feed_direct(&mut t, 3, 30, 70, 50);
        feed_direct(&mut t, 1, 0, 100, 10);
        t.ingest_delta(
            HostId(1),
            &[MetricEntry { peer: HostId(3), loss_e4: 0, lat_us: 10_000, alive: true }],
            t0,
        );
        let mut rng = Rng::new(11);
        assert_eq!(t.route(HostId(3), Policy::MinLoss, t0, &mut rng), Route::Via(HostId(1)));
        // Node 1 then falls silent about destination 3 (its deltas only
        // cover 2). Past the staleness horizon the detour must vanish
        // even though node 1 itself is still heard from.
        let late = SimTime::from_secs(100 + 200);
        t.ingest_delta(
            HostId(1),
            &[MetricEntry { peer: HostId(2), loss_e4: 0, lat_us: 10_000, alive: true }],
            late,
        );
        assert_eq!(
            t.route(HostId(3), Policy::MinLoss, late, &mut rng),
            Route::Direct,
            "a silenced peer must stop attracting Via routes"
        );
    }

    #[test]
    fn snapshot_cache_tracks_direct_mutations() {
        let mut t = table(3);
        feed_direct(&mut t, 1, 0, 10, 25);
        let first = t.snapshot().to_vec();
        assert_eq!(first, t.snapshot().to_vec(), "cached snapshot must be stable");
        feed_direct(&mut t, 1, 5, 0, 25);
        let second = t.snapshot().to_vec();
        assert_ne!(first, second, "direct_mut must invalidate the cache");
    }

    #[test]
    fn snapshot_reflects_direct_state() {
        let mut t = table(3);
        feed_direct(&mut t, 1, 1, 9, 25);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        let e1 = snap.iter().find(|e| e.peer == HostId(1)).unwrap();
        // The advertised metric is the Laplace-smoothed routing estimate:
        // (1 + 0.5) / (10 + 1) ≈ 13.64%.
        assert_eq!(e1.loss_e4, 1364);
        assert!(e1.alive);
        assert!(e1.lat_us > 0);
        let e2 = snap.iter().find(|e| e.peer == HostId(2)).unwrap();
        assert!(!e2.alive, "no samples yet → not claimed alive");
    }

    #[test]
    fn a_stored_entry_costs_its_wire_bytes_and_a_stamp() {
        // Every peer of a 30-host clique advertises the other 29 hosts,
        // ascending, as senders do; owned and borrowed ingest alike
        // store 12 bytes per entry beside the empty table, whose vectors
        // already hold their one stamp each.
        const N: u16 = 30;
        let now = SimTime::from_secs(5);
        let vector = |from: u16| {
            let mut v = Vec::with_capacity(usize::from(N) - 1);
            let entry = |j| MetricEntry { peer: HostId(j), loss_e4: 120, lat_us: 9_000, alive: true };
            v.extend((0..N).filter(|&j| j != from).map(entry));
            v
        };
        assert_eq!(std::mem::size_of::<PeerVector>(), 2 * std::mem::size_of::<Vec<u8>>() + 8);
        let (mut owned, mut borrowed) = (table(usize::from(N)), table(usize::from(N)));
        let empty = owned.approx_bytes();
        for from in 1..N {
            owned.adopt_full(HostId(from), vector(from), now);
            borrowed.ingest_full(HostId(from), &vector(from), now);
        }
        assert_eq!(std::mem::size_of::<MetricEntry>(), 12);
        let grown = 29 * 29 * 12;
        assert_eq!(owned.approx_bytes(), empty + grown);
        assert_eq!(borrowed.approx_bytes(), empty + grown);
        // A delta learned at another instant stamps entries one by one:
        // that vector, and only that one, builds its 8-byte column.
        let delta = [MetricEntry { peer: HostId(7), loss_e4: 0, lat_us: 1_000, alive: true }];
        owned.ingest_delta(HostId(3), &delta, now);
        assert_eq!(owned.approx_bytes(), empty + grown, "a delta at the vector's own instant");
        let later = now + SimDuration::from_secs(1);
        owned.ingest_delta(HostId(3), &delta, later);
        assert_eq!(owned.approx_bytes(), empty + grown + 29 * 8);
        assert_eq!(owned.remote_metric(HostId(3), HostId(7), later).unwrap().lat_us, 1_000.0);
        let staleness = SimDuration::from_secs(90);
        let past_first = now + staleness + SimDuration::from_micros(1);
        assert!(owned.remote_metric(HostId(3), HostId(8), past_first).is_none(), "8 was learned at `now`");
        assert!(owned.remote_metric(HostId(3), HostId(7), past_first).is_some(), "7 was learned later");
        // The next full advertisement is one instant again.
        owned.adopt_full(HostId(3), vector(3), later);
        assert!(owned.remote_metric(HostId(3), HostId(8), past_first).is_some());
    }
}

#[cfg(test)]
mod diverse_tests {
    use super::tests::{feed_direct, table, vector_from};
    use super::*;

    #[test]
    fn excluding_direct_forces_an_intermediate() {
        let mut t = table(5);
        let now = SimTime::from_secs(50);
        // A perfectly clean direct path — normally unbeatable.
        feed_direct(&mut t, 4, 0, 100, 20);
        feed_direct(&mut t, 1, 0, 100, 10);
        feed_direct(&mut t, 2, 5, 95, 10);
        vector_from(&mut t, 1, 4, 0.0, 10, now);
        vector_from(&mut t, 2, 4, 0.0, 10, now);
        let mut rng = Rng::new(1);
        let r = t.route_avoiding(HostId(4), Policy::MinLoss, now, &mut rng, &[Route::Direct]);
        // Must pick the cleanest intermediate, never direct.
        assert_eq!(r, Route::Via(HostId(1)));
    }

    #[test]
    fn excluding_a_via_allows_direct() {
        let mut t = table(4);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 3, 0, 100, 20);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 3, 0.0, 10, now);
        let mut rng = Rng::new(2);
        let r = t.route_avoiding(HostId(3), Policy::MinLoss, now, &mut rng, &[Route::Via(HostId(1))]);
        assert_eq!(r, Route::Direct, "clean direct beats the remaining detours");
    }

    #[test]
    fn random_diverse_avoids_the_excluded_intermediate() {
        let t = table(5);
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let r = t.route_avoiding(HostId(4), Policy::Random, SimTime::ZERO, &mut rng, &[Route::Via(HostId(1))]);
            assert_ne!(r, Route::Via(HostId(1)), "excluded intermediate reused");
            assert_ne!(r, Route::Via(HostId(0)), "via self");
            assert_ne!(r, Route::Via(HostId(4)), "via destination");
        }
    }

    #[test]
    fn no_information_falls_back_to_random_detour() {
        let t = table(6);
        let mut rng = Rng::new(4);
        let r = t.route_avoiding(HostId(3), Policy::MinLoss, SimTime::from_secs(9), &mut rng, &[Route::Direct]);
        assert!(matches!(r, Route::Via(_)), "diversity demands *some* other path: {r:?}");
    }

    #[test]
    fn min_lat_diverse_picks_fastest_alternative() {
        let mut t = table(5);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 4, 0, 100, 10); // direct: fast, but excluded
        feed_direct(&mut t, 1, 0, 100, 30);
        feed_direct(&mut t, 2, 0, 100, 15);
        vector_from(&mut t, 1, 4, 0.0, 30, now);
        vector_from(&mut t, 2, 4, 0.0, 20, now);
        let mut rng = Rng::new(5);
        let r = t.route_avoiding(HostId(4), Policy::MinLat, now, &mut rng, &[Route::Direct]);
        assert_eq!(r, Route::Via(HostId(2)), "15+20 beats 30+30");
    }

    #[test]
    fn dead_paths_excluded_from_diverse_argmin() {
        let mut t = table(4);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 3, 0, 100, 10);
        feed_direct(&mut t, 1, 0, 100, 5);
        vector_from(&mut t, 1, 3, 0.0, 5, now);
        for _ in 0..5 {
            t.direct_mut(HostId(1)).record_loss(); // hop 1 dies
        }
        feed_direct(&mut t, 2, 0, 100, 40);
        vector_from(&mut t, 2, 3, 0.0, 40, now);
        let mut rng = Rng::new(6);
        let r = t.route_avoiding(HostId(3), Policy::MinLoss, now, &mut rng, &[Route::Direct]);
        assert_eq!(r, Route::Via(HostId(2)), "dead hop 1 must be skipped");
    }

    #[test]
    fn avoiding_empty_is_plain_routing() {
        let mut t = table(5);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 4, 0, 100, 10);
        feed_direct(&mut t, 1, 0, 100, 30);
        vector_from(&mut t, 1, 4, 0.0, 30, now);
        let mut rng_a = Rng::new(7);
        let mut rng_b = Rng::new(7);
        let plain = t.route(HostId(4), Policy::MinLoss, now, &mut rng_a);
        let avoiding = t.route_avoiding(HostId(4), Policy::MinLoss, now, &mut rng_b, &[]);
        assert_eq!(plain, avoiding);
    }

    #[test]
    fn all_prior_legs_stay_disjoint_in_a_rich_mesh() {
        // 6-node mesh toward host 5: direct plus intermediates 1..=4 all
        // usable, ranked by loss. Successive legs of a 4-redundant probe
        // under full diversity must each take a route none of the prior
        // legs used — in particular legs 3 and 4, which excluding the
        // first leg alone cannot guarantee.
        let mut t = table(6);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 5, 0, 100, 10);
        feed_direct(&mut t, 1, 1, 99, 10);
        feed_direct(&mut t, 2, 2, 98, 10);
        feed_direct(&mut t, 3, 3, 97, 10);
        feed_direct(&mut t, 4, 4, 96, 10);
        for k in 1..=4 {
            vector_from(&mut t, k, 5, 0.0, 10, now);
        }
        let mut rng = Rng::new(8);
        let mut used = vec![t.route(HostId(5), Policy::MinLoss, now, &mut rng)];
        for leg in 2..=4 {
            let r = t.route_avoiding(HostId(5), Policy::MinLoss, now, &mut rng, &used);
            assert!(
                !used.contains(&r),
                "leg {leg} reused a prior route {r:?} (used: {used:?})"
            );
            used.push(r);
        }
        // Deterministic ranking: direct, then intermediates in loss order.
        assert_eq!(
            used,
            vec![
                Route::Direct,
                Route::Via(HostId(1)),
                Route::Via(HostId(2)),
                Route::Via(HostId(3)),
            ]
        );
    }

    #[test]
    fn exhausted_mesh_falls_back_to_a_detour() {
        // 3-node mesh: only two distinct routes to host 2 exist. A third
        // leg cannot be disjoint; it must still return *a* route.
        let mut t = table(3);
        let now = SimTime::from_secs(50);
        feed_direct(&mut t, 2, 0, 100, 10);
        feed_direct(&mut t, 1, 0, 100, 10);
        vector_from(&mut t, 1, 2, 0.0, 10, now);
        let mut rng = Rng::new(9);
        let r = t.route_avoiding(
            HostId(2),
            Policy::MinLoss,
            now,
            &mut rng,
            &[Route::Direct, Route::Via(HostId(1))],
        );
        assert_eq!(r, Route::Via(HostId(1)), "only detour in a 3-node mesh");
    }
}

/// A node that peers with 3 of a 10-host mesh: hosts 2, 5 and 7.
#[cfg(test)]
mod sparse_tests {
    use super::tests::{feed_direct, vector_from};
    use super::*;

    /// Host 0's table in a 10-host mesh, peering with `ids`.
    fn table_over(ids: &[u16]) -> LinkStateTable {
        let staleness = SimDuration::from_secs(90);
        LinkStateTable::with_peers(HostId(0), PeerSet::new(10, ids), 100, 0.1, 5, staleness, 0.01, 0.05)
    }

    fn table() -> LinkStateTable {
        table_over(&[2, 5, 7])
    }

    #[test]
    fn state_is_kept_for_peers_only() {
        let mut t = table();
        let now = SimTime::from_secs(10);
        assert_eq!(t.snapshot().iter().map(|e| e.peer.0).collect::<Vec<_>>(), [2, 5, 7]);
        // A stranger's advertisement is not stored...
        vector_from(&mut t, 3, 7, 0.0, 10, now);
        assert_eq!(t.remote_metric(HostId(3), HostId(7), now), None);
        // ...a peer's is, whatever host it is about.
        vector_from(&mut t, 5, 8, 0.0, 10, now);
        assert!(t.remote_metric(HostId(5), HostId(8), now).is_some());
        // And the direct path toward a stranger reads as never sampled.
        assert_eq!(t.direct(HostId(8)).samples(), 0);
        assert!(!t.direct(HostId(8)).is_dead());
    }

    #[test]
    #[should_panic(expected = "host 8 is not a peer of host 0")]
    fn recording_toward_a_stranger_is_a_bug() {
        table().direct_mut(HostId(8));
    }

    #[test]
    fn lossy_direct_path_detours_through_the_common_neighbour() {
        let mut t = table();
        let now = SimTime::from_secs(100);
        feed_direct(&mut t, 7, 30, 70, 100); // 0→7: 30% lossy, 100 ms
        feed_direct(&mut t, 5, 0, 100, 20); // 0→5 clean, 20 ms
        vector_from(&mut t, 5, 7, 0.0, 30, now); // 5 peers with 7 too
        let mut rng = Rng::new(1);
        assert_eq!(t.route(HostId(7), Policy::MinLoss, now, &mut rng), Route::Via(HostId(5)));
        assert_eq!(t.route(HostId(7), Policy::MinLat, now, &mut rng), Route::Via(HostId(5)));
        let avoiding = t.route_avoiding(HostId(7), Policy::MinLoss, now, &mut rng, &[Route::Direct]);
        assert_eq!(avoiding, Route::Via(HostId(5)));
    }

    #[test]
    fn a_stranger_is_reached_through_a_peer_that_advertises_it() {
        let mut t = table();
        let now = SimTime::from_secs(100);
        let mut rng = Rng::new(2);
        // Nothing known: the never-sampled direct path is all there is.
        assert_eq!(t.route(HostId(8), Policy::MinLoss, now, &mut rng), Route::Direct);
        assert_eq!(t.route(HostId(8), Policy::MinLat, now, &mut rng), Route::Direct);
        feed_direct(&mut t, 5, 0, 100, 20);
        vector_from(&mut t, 5, 8, 0.0, 30, now);
        assert_eq!(t.route(HostId(8), Policy::MinLoss, now, &mut rng), Route::Via(HostId(5)));
        assert_eq!(t.route(HostId(8), Policy::MinLat, now, &mut rng), Route::Via(HostId(5)));
    }

    #[test]
    fn random_picks_uniformly_among_peers_and_nobody_else() {
        let t = table();
        let mut rng = Rng::new(3);
        // Toward a peer the two others are candidates, toward a
        // stranger all three.
        for (dst, candidates) in [(7u16, &[2u16, 5][..]), (8, &[2, 5, 7])] {
            let mut counts = [0u32; 10];
            for _ in 0..6_000 {
                match t.route(HostId(dst), Policy::Random, SimTime::ZERO, &mut rng) {
                    Route::Via(k) => counts[k.idx()] += 1,
                    Route::Direct => panic!("peers to detour through exist"),
                }
            }
            let share = 6_000 / candidates.len() as u32;
            for (k, &count) in counts.iter().enumerate() {
                if candidates.contains(&(k as u16)) {
                    assert!(count.abs_diff(share) < share / 5, "toward {dst} via {k}: {count}");
                } else {
                    assert_eq!(count, 0, "toward {dst} via non-candidate {k}");
                }
            }
        }
    }

    #[test]
    fn a_lone_peer_that_is_the_destination_leaves_only_direct() {
        let t = table_over(&[4]);
        let mut rng = Rng::new(4);
        assert_eq!(t.route(HostId(4), Policy::Random, SimTime::ZERO, &mut rng), Route::Direct);
        assert_eq!(t.route(HostId(9), Policy::Random, SimTime::ZERO, &mut rng), Route::Via(HostId(4)));
    }
}
