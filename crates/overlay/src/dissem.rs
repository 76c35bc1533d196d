//! Metric dissemination strategies.
//!
//! How a node's direct-path measurements reach the rest of the mesh is a
//! pluggable policy, selected per scenario:
//!
//! * [`DisseminationMode::FullSnapshot`] — the original RON behaviour and
//!   the default: every probe request and response piggybacks the
//!   sender's complete metric vector, one entry per peer. Simple and
//!   fast to converge; with k peers per host the mesh-wide cost is
//!   O(n·k²) entries per probe round — the O(n³) that stops a RON
//!   clique (k = n − 1) at a few dozen hosts, and linear in n under a
//!   sparse probe mesh of fixed degree.
//! * [`DisseminationMode::Delta`] — sequence-numbered link-state
//!   advertisements. A node bumps its advertisement seqno whenever a
//!   direct metric changes *significantly* (alive flip, ≥ 1 pp loss,
//!   ≥ 10 % latency), and each probe is accompanied by an
//!   [`Packet::Lsa`] carrying only the entries that advanced past the
//!   last seqno the peer acknowledged (a probe response doubles as the
//!   ack). Every `max_age_probes`-th probe to a peer carries the full
//!   vector instead — the anti-entropy backstop that repairs dropped
//!   LSAs and acks that outran their advertisement.
//! * [`DisseminationMode::Gossip`] — probes carry nothing; instead, on a
//!   fixed timer each node pushes its freshest LSAs (its own, plus any
//!   foreign ones learned since the last tick) to a deterministic
//!   seed-derived `fanout` set of peers. Epidemic spread costs
//!   O(fanout) packets per node per tick regardless of mesh size.
//!
//! All per-peer state here — the advertised vector and its per-entry
//! seqnos, the ack bookkeeping, the per-origin dedup seqnos and stored
//! foreign LSAs — is indexed by the slots of the node's [`PeerSet`]: a
//! node advertises to, acknowledges, and stores LSAs *originated by* its
//! peers and nobody else.
//!
//! The [`Disseminator`] is a sans-io state machine owned by
//! [`crate::OverlayNode`]; all randomness comes from its own derived RNG
//! stream, so `FullSnapshot` consumes no draws and leaves historical
//! results byte-identical.

use crate::peers::PeerSet;
use crate::table::LinkStateTable;
use crate::wire::{MetricEntry, Packet};
use netsim::{HostId, Rng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Which dissemination strategy a node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisseminationMode {
    /// Piggyback the complete metric vector on every probe packet.
    FullSnapshot,
    /// Sequence-numbered delta LSAs alongside probes, with a full
    /// refresh every `max_age_probes` probes per peer as anti-entropy.
    Delta {
        /// Probes to a peer between forced full-vector refreshes.
        max_age_probes: u32,
    },
    /// Push full LSAs to a random fanout set on a timer; probes carry
    /// no link state at all.
    Gossip {
        /// Peers addressed per gossip round.
        fanout: usize,
        /// Gossip round interval, milliseconds.
        interval_ms: u64,
    },
}

impl DisseminationMode {
    /// Short lowercase label (`full`, `delta`, `gossip`) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DisseminationMode::FullSnapshot => "full",
            DisseminationMode::Delta { .. } => "delta",
            DisseminationMode::Gossip { .. } => "gossip",
        }
    }
}

/// Advertisement-change quantum for loss, in 1/10000 units (1 pp).
/// Below this the EWMA wiggles on every probe and deltas never quiesce.
const LOSS_QUANTUM_E4: u16 = 100;
/// Relative latency change that counts as significant.
const LAT_QUANTUM: f64 = 0.10;
/// Cap on remembered unacknowledged probe→seqno associations.
const MAX_PENDING: usize = 256;

/// Did the path change enough to justify a new advertisement?
fn significant_change(old: &MetricEntry, new: &MetricEntry) -> bool {
    if old.alive != new.alive {
        return true;
    }
    if old.loss_e4.abs_diff(new.loss_e4) >= LOSS_QUANTUM_E4 {
        return true;
    }
    if (old.lat_us == 0) != (new.lat_us == 0) {
        return true;
    }
    if old.lat_us != 0 {
        let rel = (old.lat_us as f64 - new.lat_us as f64).abs() / old.lat_us as f64;
        if rel >= LAT_QUANTUM {
            return true;
        }
    }
    false
}

/// Does this entry say anything a fresh table doesn't already assume?
///
/// A never-sampled path advertises exactly `alive: false`, `lat_us: 0`,
/// `loss_e4: 5000` (the Laplace prior 0.5/1 with an empty window); any
/// sampled path violates at least one of the three (alive paths set
/// `alive`, dead paths advertise `loss_e4: 10_000`). Every routing
/// consumer skips `!alive` entries, so an uninformative entry absent
/// from a vector is indistinguishable from one present — dropping them
/// at the sender shrinks emitted vectors from O(n) to O(sampled peers)
/// without moving a single fingerprint (packet *counts*, and with them
/// every RNG draw, never depend on entry-list contents).
fn informative(e: &MetricEntry) -> bool {
    e.alive || e.lat_us != 0 || e.loss_e4 != 5_000
}

/// An owned copy of `entries` with the uninformative ones dropped.
/// Sized once for the steady state, where every path has been sampled
/// and nothing is dropped: a filter has no lower size hint, so
/// `collect()` would grow the copy by doubling on every probe packet.
fn informative_entries(entries: &[MetricEntry]) -> Vec<MetricEntry> {
    let mut kept = Vec::with_capacity(entries.len());
    kept.extend(entries.iter().filter(|e| informative(e)).copied());
    kept
}

#[derive(Debug, Clone, Copy, Default)]
struct PeerDelta {
    /// Highest own-advertisement seqno this peer has acknowledged.
    acked_seq: u64,
    /// Probes sent to this peer since the last full refresh.
    sends_since_full: u32,
}

#[derive(Debug, Clone)]
struct ForeignLsa {
    seq: u64,
    entries: Vec<MetricEntry>,
    /// Not yet forwarded in a gossip round.
    fresh: bool,
}

/// Per-node dissemination state machine.
#[derive(Debug)]
pub struct Disseminator {
    mode: DisseminationMode,
    me: HostId,
    peers: PeerSet,
    rng: Rng,
    /// Seqno of my current advertisement; bumps on significant change.
    own_seq: u64,
    /// The vector as last advertised (quantized publisher state), in
    /// [`LinkStateTable::snapshot`] order.
    advertised: Vec<MetricEntry>,
    /// Per-peer seqno at which its advertised entry last changed.
    entry_seq: Vec<u64>,
    /// The table's [`LinkStateTable::direct_epoch`] when `advertised`
    /// was last compared against it; `None` until the first look.
    refreshed_at: Option<u64>,
    /// Delta mode: per-peer ack/refresh bookkeeping.
    delta: Vec<PeerDelta>,
    /// Delta mode: probe id → (peer, seqno advertised with it), oldest
    /// first. Lost probes are never acknowledged, so under loss this
    /// sits at its cap and the oldest entry is evicted on every send.
    pending: VecDeque<(u64, u16, u64)>,
    /// Highest ingested advertisement seqno per origin (receiver dedup).
    origin_seq: Vec<u64>,
    /// Gossip mode: stored foreign LSAs for onward forwarding.
    foreign: Vec<Option<ForeignLsa>>,
    /// Gossip mode: own seqno as of the last flushed round.
    own_flushed_seq: u64,
    /// Gossip mode: next round instant.
    next_tick: Option<SimTime>,
}

impl Disseminator {
    /// Creates the state machine for a clique of `n` nodes:
    /// [`Self::with_peers`] over [`PeerSet::everyone`].
    pub fn new(mode: DisseminationMode, me: HostId, n: usize, rng: Rng, start: SimTime) -> Self {
        Self::with_peers(mode, me, PeerSet::everyone(me, n), rng, start)
    }

    /// Creates the state machine of node `me`, which peers with `peers`.
    /// `rng` must be a stream private to dissemination (the node derives
    /// one); `start` anchors the first gossip round, jittered within one
    /// interval so a simultaneously started mesh does not fire in
    /// lockstep.
    pub fn with_peers(
        mode: DisseminationMode,
        me: HostId,
        peers: PeerSet,
        mut rng: Rng,
        start: SimTime,
    ) -> Self {
        let next_tick = match mode {
            DisseminationMode::Gossip { interval_ms, .. } => {
                let offset = interval_ms as f64 / 1_000.0 * rng.f64();
                Some(start + SimDuration::from_secs_f64(offset))
            }
            _ => None,
        };
        Disseminator {
            mode,
            me,
            rng,
            own_seq: 0,
            advertised: Vec::new(),
            entry_seq: vec![0; peers.len()],
            refreshed_at: None,
            delta: vec![PeerDelta::default(); peers.len()],
            pending: VecDeque::new(),
            origin_seq: vec![0; peers.len()],
            foreign: vec![None; peers.len()],
            peers,
            own_flushed_seq: 0,
            next_tick,
        }
    }

    /// Approximate resident bytes: the struct, its per-peer arrays, the
    /// pending-ack queue and any stored foreign LSAs (the peer set is
    /// the table's to count).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let foreign: usize = self.foreign.iter().flatten().map(|f| f.entries.capacity()).sum();
        size_of::<Self>()
            + (self.advertised.capacity() + foreign) * size_of::<MetricEntry>()
            + (self.entry_seq.capacity() + self.origin_seq.capacity()) * size_of::<u64>()
            + self.delta.capacity() * size_of::<PeerDelta>()
            + self.pending.capacity() * size_of::<(u64, u16, u64)>()
            + self.foreign.capacity() * size_of::<Option<ForeignLsa>>()
    }

    /// The active mode.
    pub fn mode(&self) -> DisseminationMode {
        self.mode
    }

    /// Earliest instant the disseminator needs a timer callback (gossip
    /// rounds; `None` for the probe-driven modes).
    pub fn poll_at(&self) -> Option<SimTime> {
        self.next_tick
    }

    /// Re-quantizes the advertisement against the table's current
    /// snapshot, bumping `own_seq` once if anything moved significantly.
    /// Free when nothing was measured since the last call.
    fn refresh(&mut self, table: &mut LinkStateTable) {
        let epoch = Some(table.direct_epoch());
        if self.refreshed_at == epoch {
            return;
        }
        let first = self.refreshed_at.is_none();
        self.refreshed_at = epoch;
        let snap = table.snapshot();
        if first {
            // First look: adopt the (all-unknown) initial state without
            // advertising it — there is nothing useful to tell peers yet.
            self.advertised = snap.to_vec();
            return;
        }
        let next_seq = self.own_seq + 1;
        for ((old, new), seq) in self.advertised.iter_mut().zip(snap).zip(&mut self.entry_seq) {
            if significant_change(old, new) {
                *old = *new;
                *seq = next_seq;
                self.own_seq = next_seq;
            }
        }
    }

    /// The advertised entries that changed after seqno `acked`.
    fn entries_newer_than(&self, acked: u64) -> Vec<MetricEntry> {
        if self.own_seq <= acked {
            return Vec::new(); // no entry's seqno exceeds `own_seq`
        }
        let newer = self.advertised.iter().zip(&self.entry_seq).filter(|(_, &seq)| seq > acked);
        newer.map(|(e, _)| *e).collect()
    }

    fn remember_pending(&mut self, id: u64, peer: HostId, seq: u64) {
        if self.pending.len() >= MAX_PENDING {
            self.pending.pop_front();
        }
        self.pending.push_back((id, peer.0, seq));
    }

    /// Called for every probe request the prober emits. Returns the
    /// metrics to piggyback on the [`Packet::ProbeReq`] and an optional
    /// accompanying LSA packet for the same peer (never one for a host
    /// that is not a peer: there is no ack state to send it against).
    pub fn on_probe_send(
        &mut self,
        peer: HostId,
        probe_id: u64,
        table: &mut LinkStateTable,
    ) -> (Vec<MetricEntry>, Option<Packet>) {
        match self.mode {
            DisseminationMode::FullSnapshot => (informative_entries(table.snapshot()), None),
            DisseminationMode::Gossip { .. } => (Vec::new(), None),
            DisseminationMode::Delta { max_age_probes } => {
                let Some(slot) = self.peers.slot(peer) else { return (Vec::new(), None) };
                self.refresh(table);
                self.delta[slot].sends_since_full += 1;
                let full = self.delta[slot].sends_since_full >= max_age_probes.max(1);
                let acked = self.delta[slot].acked_seq;
                let entries: Vec<MetricEntry> = if full {
                    self.delta[slot].sends_since_full = 0;
                    // A full refresh may legitimately carry zero entries
                    // (nothing sampled yet); it is still sent — the
                    // emission decision below keys on `full`, never on
                    // content, so the packet sequence (and every RNG
                    // draw behind it) is identical to the dense layout.
                    informative_entries(&self.advertised)
                } else {
                    self.entries_newer_than(acked)
                };
                if !full && entries.is_empty() {
                    // Quiescent toward this peer: send nothing at all.
                    return (Vec::new(), None);
                }
                self.remember_pending(probe_id, peer, self.own_seq);
                let lsa = Packet::Lsa { origin: self.me, seq: self.own_seq, full, entries };
                (Vec::new(), Some(lsa))
            }
        }
    }

    /// Called when answering a probe request from `peer`. Returns the
    /// metrics for the [`Packet::ProbeResp`] and an optional LSA to send
    /// alongside it. The responder side has no ack channel, so delta
    /// LSAs emitted here never advance `acked_seq` — the probe-send path
    /// and its full refresh repair any loss. A host that is not a peer
    /// still gets its answer, but never an LSA.
    pub fn on_probe_reply(
        &mut self,
        peer: HostId,
        table: &mut LinkStateTable,
    ) -> (Vec<MetricEntry>, Option<Packet>) {
        match self.mode {
            DisseminationMode::FullSnapshot => (informative_entries(table.snapshot()), None),
            DisseminationMode::Gossip { .. } => (Vec::new(), None),
            DisseminationMode::Delta { .. } => {
                let Some(slot) = self.peers.slot(peer) else { return (Vec::new(), None) };
                self.refresh(table);
                let entries = self.entries_newer_than(self.delta[slot].acked_seq);
                if entries.is_empty() {
                    return (Vec::new(), None);
                }
                let lsa =
                    Packet::Lsa { origin: self.me, seq: self.own_seq, full: false, entries };
                (Vec::new(), Some(lsa))
            }
        }
    }

    /// A probe response from `from` validated probe `id`: the LSA that
    /// rode along with that probe (if any) is acknowledged.
    pub fn on_ack(&mut self, id: u64, from: HostId) {
        let Some(slot) = self.peers.slot(from) else { return };
        // Newest first: an ack is almost always for one of the last few
        // probes, and `(id, peer)` is unique, so the direction of the
        // search cannot change which entry it finds.
        let found = self.pending.iter().rposition(|&(pid, p, _)| pid == id && p == from.0);
        if let Some((_, _, seq)) = found.and_then(|pos| self.pending.remove(pos)) {
            let acked = &mut self.delta[slot].acked_seq;
            *acked = (*acked).max(seq);
        }
    }

    /// Metrics piggybacked on a probe packet from `from`. Only the
    /// full-snapshot mode carries link state this way; the other modes
    /// ignore any stray payload rather than letting an empty vector
    /// wipe LSA-learned state.
    pub fn on_probe_metrics(
        &mut self,
        from: HostId,
        entries: &[MetricEntry],
        now: SimTime,
        table: &mut LinkStateTable,
    ) {
        if self.mode == DisseminationMode::FullSnapshot {
            table.ingest_full(from, entries, now);
        }
    }

    /// A standalone [`Packet::Lsa`] arrived. Seqno-deduplicated per
    /// origin: deltas must strictly advance, full refreshes may repeat
    /// the current seqno (they repair entries an earlier lost delta
    /// carried past us). An LSA whose origin is not a peer is not
    /// stored, ingested or forwarded.
    pub fn on_lsa(
        &mut self,
        origin: HostId,
        seq: u64,
        full: bool,
        entries: &[MetricEntry],
        now: SimTime,
        table: &mut LinkStateTable,
    ) {
        let Some(slot) = self.peers.slot(origin) else { return };
        let stored = self.origin_seq[slot];
        match self.mode {
            DisseminationMode::FullSnapshot => {}
            DisseminationMode::Delta { .. } => {
                if full {
                    if seq >= stored {
                        table.ingest_full(origin, entries, now);
                        self.origin_seq[slot] = seq;
                    }
                } else if seq > stored {
                    table.ingest_delta(origin, entries, now);
                    self.origin_seq[slot] = seq;
                }
            }
            DisseminationMode::Gossip { .. } => {
                if seq > stored {
                    table.ingest_full(origin, entries, now);
                    self.origin_seq[slot] = seq;
                    self.foreign[slot] =
                        Some(ForeignLsa { seq, entries: entries.to_vec(), fresh: true });
                }
            }
        }
    }

    /// Runs a gossip round if one is due: flushes my own advertisement
    /// (when its seqno advanced) plus every foreign LSA learned since
    /// the last round to a freshly drawn fanout set.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        table: &mut LinkStateTable,
        out: &mut Vec<(HostId, Packet)>,
    ) {
        let DisseminationMode::Gossip { fanout, interval_ms } = self.mode else { return };
        let Some(tick) = self.next_tick else { return };
        if now < tick {
            return;
        }
        self.refresh(table);
        let mut lsas: Vec<(HostId, u64, Vec<MetricEntry>)> = Vec::new();
        if self.own_seq > self.own_flushed_seq {
            lsas.push((self.me, self.own_seq, informative_entries(&self.advertised)));
            self.own_flushed_seq = self.own_seq;
        }
        for (f, &origin) in self.foreign.iter_mut().zip(self.peers.ids()) {
            if let Some(f) = f.as_mut().filter(|f| f.fresh) {
                f.fresh = false;
                lsas.push((HostId(origin), f.seq, f.entries.clone()));
            }
        }
        if !lsas.is_empty() {
            for target in self.pick_fanout(fanout) {
                for (origin, seq, entries) in &lsas {
                    if *origin == target {
                        continue; // never tell a node about itself
                    }
                    out.push((
                        target,
                        Packet::Lsa {
                            origin: *origin,
                            seq: *seq,
                            full: true,
                            entries: entries.clone(),
                        },
                    ));
                }
            }
        }
        self.next_tick = Some(tick + SimDuration::from_millis(interval_ms.max(1)));
    }

    /// Draws up to `fanout` distinct peers for one round.
    fn pick_fanout(&mut self, fanout: usize) -> Vec<HostId> {
        let avail = self.peers.len();
        let k = fanout.min(avail);
        let mut picked: Vec<HostId> = Vec::with_capacity(k);
        // Rejection sampling with a hard cap: duplicates get rarer as k
        // approaches avail, and the cap bounds the worst case.
        let mut attempts = 0usize;
        while picked.len() < k && attempts < 16 * (k + 1) {
            attempts += 1;
            let h = self.peers.id(self.rng.below(avail as u64) as usize);
            if !picked.contains(&h) {
                picked.push(h);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(me: u16, n: usize) -> LinkStateTable {
        LinkStateTable::new(
            HostId(me),
            n,
            100,
            0.1,
            5,
            SimDuration::from_secs(90),
            0.01,
            0.05,
        )
    }

    fn feed_success(t: &mut LinkStateTable, peer: u16, count: usize, lat_ms: u64) {
        for _ in 0..count {
            t.direct_mut(HostId(peer))
                .record_success(SimTime::from_secs(1), SimDuration::from_millis(lat_ms));
        }
    }

    fn delta(max_age_probes: u32) -> Disseminator {
        Disseminator::new(
            DisseminationMode::Delta { max_age_probes },
            HostId(0),
            4,
            Rng::new(7),
            SimTime::ZERO,
        )
    }

    #[test]
    fn full_snapshot_piggybacks_and_never_emits_lsas() {
        let mut t = table(0, 4);
        let mut d = Disseminator::new(
            DisseminationMode::FullSnapshot,
            HostId(0),
            4,
            Rng::new(7),
            SimTime::ZERO,
        );
        feed_success(&mut t, 1, 10, 20);
        let (metrics, lsa) = d.on_probe_send(HostId(1), 99, &mut t);
        // Only the sampled path rides along: never-probed entries carry
        // no information and are dropped from the piggyback.
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].peer, HostId(1));
        assert!(lsa.is_none());
        assert!(d.poll_at().is_none());
    }

    #[test]
    fn quiescent_delta_sends_nothing() {
        let mut t = table(0, 4);
        let mut d = delta(16);
        // No table activity at all: first sends carry no LSA.
        for id in 0..5 {
            let (metrics, lsa) = d.on_probe_send(HostId(1), id, &mut t);
            assert!(metrics.is_empty());
            assert!(lsa.is_none(), "quiescent probe {id} must not carry an LSA");
        }
    }

    #[test]
    fn delta_carries_only_changed_entries_until_acked() {
        let mut t = table(0, 4);
        let mut d = delta(16);
        let (_, none) = d.on_probe_send(HostId(1), 0, &mut t); // initialise advertisement
        assert!(none.is_none());
        feed_success(&mut t, 2, 10, 20); // path 0→2 comes alive
        let (_, lsa) = d.on_probe_send(HostId(1), 1, &mut t);
        let Some(Packet::Lsa { seq, full, entries, .. }) = lsa else {
            panic!("expected an LSA after a significant change")
        };
        assert_eq!(seq, 1);
        assert!(!full);
        assert_eq!(entries.len(), 1, "only the changed entry rides along");
        assert_eq!(entries[0].peer, HostId(2));
        // Unacked: the next probe repeats the delta.
        let (_, again) = d.on_probe_send(HostId(1), 2, &mut t);
        assert!(matches!(again, Some(Packet::Lsa { .. })));
        // Ack probe 2 → quiescent again.
        d.on_ack(2, HostId(1));
        let (_, after) = d.on_probe_send(HostId(1), 3, &mut t);
        assert!(after.is_none(), "acked delta must stop retransmitting");
    }

    #[test]
    fn every_max_age_th_probe_is_a_full_refresh() {
        let mut t = table(0, 4);
        let mut d = delta(4);
        // One path sampled: the periodic fulls must carry exactly that
        // entry (never-sampled entries are uninformative and dropped;
        // the full itself is still sent on schedule).
        feed_success(&mut t, 2, 10, 20);
        let mut fulls = 0;
        let mut first_seen = false;
        for id in 0..12 {
            if let (_, Some(Packet::Lsa { full, entries, .. })) =
                d.on_probe_send(HostId(1), id, &mut t)
            {
                if !full {
                    // The initial delta advertising path 0→2; acked so
                    // it stops repeating and only fulls remain.
                    assert!(!first_seen, "only the first change emits a delta");
                    first_seen = true;
                    d.on_ack(id, HostId(1));
                    continue;
                }
                assert_eq!(entries.len(), 1, "fulls carry only sampled entries");
                assert_eq!(entries[0].peer, HostId(2));
                fulls += 1;
            }
        }
        assert_eq!(fulls, 3, "one full per max_age_probes=4 window");
    }

    #[test]
    fn quiescent_fulls_still_fire_with_empty_entry_lists() {
        // A mesh with nothing sampled still emits its anti-entropy fulls
        // on schedule — the packet sequence must not depend on entry
        // content, only the payload shrinks to zero entries.
        let mut t = table(0, 4);
        let mut d = delta(4);
        let mut fulls = 0;
        for id in 0..12 {
            if let (_, Some(Packet::Lsa { full, entries, .. })) =
                d.on_probe_send(HostId(1), id, &mut t)
            {
                assert!(full, "quiescent mesh only emits anti-entropy fulls");
                assert!(entries.is_empty(), "nothing sampled → nothing advertised");
                fulls += 1;
            }
        }
        assert_eq!(fulls, 3, "one full per max_age_probes=4 window");
    }

    #[test]
    fn receiver_dedups_by_seqno_but_accepts_repeated_fulls() {
        let mut t = table(5, 8);
        let mut d = Disseminator::new(
            DisseminationMode::Delta { max_age_probes: 16 },
            HostId(5),
            8,
            Rng::new(9),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(10);
        let e1 = MetricEntry { peer: HostId(2), loss_e4: 100, lat_us: 9_000, alive: true };
        let e2 = MetricEntry { peer: HostId(3), loss_e4: 200, lat_us: 8_000, alive: true };
        d.on_lsa(HostId(1), 5, false, &[e1], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(2), now).is_some());
        // A stale delta (seq 5 again) is ignored...
        d.on_lsa(HostId(1), 5, false, &[e2], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(3), now).is_none());
        // ...but a full refresh at the same seq repairs the hole.
        d.on_lsa(HostId(1), 5, true, &[e1, e2], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(3), now).is_some());
    }

    #[test]
    fn gossip_rounds_flood_fresh_lsas_to_a_fanout_set() {
        let n = 10;
        let mut t = table(0, n);
        let mut d = Disseminator::new(
            DisseminationMode::Gossip { fanout: 3, interval_ms: 500 },
            HostId(0),
            n,
            Rng::new(11),
            SimTime::ZERO,
        );
        let first = d.poll_at().expect("gossip must arm a timer");
        assert!(
            first <= SimTime::ZERO + SimDuration::from_millis(500),
            "first round jittered within one interval"
        );
        // Round 1: nothing changed yet → silence.
        let mut out = Vec::new();
        d.on_tick(first, &mut t, &mut out);
        assert!(out.is_empty());
        // A path comes alive; the next round floods my own LSA.
        feed_success(&mut t, 1, 10, 20);
        let second = d.poll_at().unwrap();
        d.on_tick(second, &mut t, &mut out);
        // detlint: allow(nondet-iter) — test assertion set: len/contains
        // only, order never observed.
        let targets: std::collections::HashSet<u16> = out.iter().map(|(h, _)| h.0).collect();
        assert_eq!(out.len(), 3, "fanout=3 copies of my LSA");
        assert_eq!(targets.len(), 3, "targets are distinct");
        assert!(!targets.contains(&0), "never gossip to self");
        for (_, p) in &out {
            let Packet::Lsa { origin, seq, full, entries } = p else { panic!("non-LSA gossip") };
            assert_eq!(*origin, HostId(0));
            assert_eq!(*seq, 1);
            assert!(*full);
            // Only the sampled path is advertised; the other n - 2
            // never-probed entries are uninformative and dropped.
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].peer, HostId(1));
        }
        // Quiescent again: round 3 is silent.
        out.clear();
        let third = d.poll_at().unwrap();
        d.on_tick(third, &mut t, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gossip_forwards_fresh_foreign_lsas_once() {
        let n = 6;
        let mut t = table(0, n);
        let mut d = Disseminator::new(
            DisseminationMode::Gossip { fanout: 2, interval_ms: 500 },
            HostId(0),
            n,
            Rng::new(13),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1);
        let e = MetricEntry { peer: HostId(4), loss_e4: 50, lat_us: 5_000, alive: true };
        d.on_lsa(HostId(3), 7, true, &[e], now, &mut t);
        assert!(t.remote_metric(HostId(3), HostId(4), now).is_some(), "gossip LSA ingested");
        let mut out = Vec::new();
        let tick = d.poll_at().unwrap();
        d.on_tick(tick.max(now), &mut t, &mut out);
        assert!(!out.is_empty(), "fresh foreign LSA must be forwarded");
        for (to, p) in &out {
            let Packet::Lsa { origin, seq, .. } = p else { panic!("non-LSA gossip") };
            assert_eq!((*origin, *seq), (HostId(3), 7));
            assert_ne!(*to, HostId(3), "never forward an LSA back to its origin");
            assert_ne!(*to, HostId(0));
        }
        // Second round: already flushed, no repeat.
        out.clear();
        let tick2 = d.poll_at().unwrap();
        d.on_tick(tick2, &mut t, &mut out);
        assert!(out.is_empty(), "a foreign LSA is forwarded exactly once");
    }

    #[test]
    fn insignificant_wiggle_does_not_bump_seq() {
        let old = MetricEntry { peer: HostId(1), loss_e4: 500, lat_us: 10_000, alive: true };
        let wiggle = MetricEntry { peer: HostId(1), loss_e4: 550, lat_us: 10_500, alive: true };
        assert!(!significant_change(&old, &wiggle));
        let loss_jump = MetricEntry { peer: HostId(1), loss_e4: 700, lat_us: 10_000, alive: true };
        assert!(significant_change(&old, &loss_jump));
        let lat_jump = MetricEntry { peer: HostId(1), loss_e4: 500, lat_us: 12_000, alive: true };
        assert!(significant_change(&old, &lat_jump));
        let died = MetricEntry { peer: HostId(1), loss_e4: 500, lat_us: 10_000, alive: false };
        assert!(significant_change(&old, &died));
    }
}
