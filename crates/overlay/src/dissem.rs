//! Metric dissemination strategies.
//!
//! How a node's direct-path measurements reach the rest of the mesh is a
//! policy selected per scenario, one of two:
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
//!   LSAs and acks that outran their advertisement, and the only thing
//!   that re-stamps an entry that has not changed.
//!
//! There is no third mode. Timer-driven push to a random fanout was
//! measured on `ron2003` (2 simulated h): 11.9 kB/s of LSAs with 29 % of
//! route look-ups meeting an expired entry, against 31.0 kB/s / 0 % for
//! full snapshots and 5.1 kB/s / 0.2 % for `Delta { max_age_probes: 4 }`;
//! on a k = 6 mesh it shipped 25 % *more* than full snapshots at every
//! size from 30 to 960 hosts. It won on no metric of no workload.
//!
//! All per-peer state here — the advertised vector and its per-entry
//! seqnos, the ack bookkeeping and the per-origin dedup seqnos — is
//! indexed by the slots of the node's [`PeerSet`]: a node advertises to,
//! acknowledges, and ingests LSAs *originated by* its peers and nobody
//! else.
//!
//! The [`Disseminator`] is a sans-io state machine owned by
//! [`crate::OverlayNode`]. It draws no randomness and arms no timer:
//! both modes ride the prober's packets.

use crate::peers::PeerSet;
use crate::table::LinkStateTable;
use crate::wire::{MetricEntry, Packet};
use netsim::{HostId, Rng, SimTime};
use std::collections::VecDeque;

/// Which dissemination strategy a node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisseminationMode {
    /// Piggyback the complete metric vector on every probe packet.
    FullSnapshot,
    /// Sequence-numbered delta LSAs alongside probes, with a full
    /// refresh every `max_age_probes` probes per peer as anti-entropy.
    ///
    /// The refresh is also what keeps an *unchanged* entry from expiring
    /// at the receiver, so the knob is safe only while
    /// `max_age_probes × prober.interval × (1 + jitter_frac) ≤ staleness`
    /// ([`crate::ProberConfig`], [`crate::NodeConfig::staleness`]): with
    /// the defaults (15 s, 0.2, 90 s) that is `max_age_probes ≤ 5`.
    /// Measured on `ron2003`, 2 simulated h — share of route look-ups
    /// that met an expired entry, and LSA bytes against full snapshots:
    /// 4 → 0.2 % (−84 %), 5 → 0.3 %, 6 → 2.0 %, 8 → 21.9 %,
    /// 16 → 54.4 % (−93 %, and the `loss` method routes no better than
    /// `direct*`). Nothing rejects a larger value.
    Delta {
        /// Probes to a peer between forced full-vector refreshes.
        max_age_probes: u32,
    },
}

impl DisseminationMode {
    /// Short lowercase label (`full`, `delta`) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DisseminationMode::FullSnapshot => "full",
            DisseminationMode::Delta { .. } => "delta",
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

/// Per-node dissemination state machine.
#[derive(Debug)]
pub struct Disseminator {
    mode: DisseminationMode,
    me: HostId,
    peers: PeerSet,
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
}

impl Disseminator {
    /// Creates the state machine for a clique of `n` nodes:
    /// [`Self::with_peers`] over [`PeerSet::everyone`]. `_rng` and
    /// `_start` are ignored — neither mode draws or keeps a timer; the
    /// two parameters stay only until the benchmark's call sites move to
    /// `with_peers` (ROADMAP 8(a)).
    pub fn new(mode: DisseminationMode, me: HostId, n: usize, _rng: Rng, _start: SimTime) -> Self {
        Self::with_peers(mode, me, PeerSet::everyone(me, n))
    }

    /// Creates the state machine of node `me`, which peers with `peers`.
    pub fn with_peers(mode: DisseminationMode, me: HostId, peers: PeerSet) -> Self {
        Disseminator {
            mode,
            me,
            own_seq: 0,
            advertised: Vec::new(),
            entry_seq: vec![0; peers.len()],
            refreshed_at: None,
            delta: vec![PeerDelta::default(); peers.len()],
            pending: VecDeque::new(),
            origin_seq: vec![0; peers.len()],
            peers,
        }
    }

    /// Approximate resident bytes: the struct, its per-peer arrays and
    /// the pending-ack queue (the peer set is the table's to count).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.advertised.capacity() * size_of::<MetricEntry>()
            + (self.entry_seq.capacity() + self.origin_seq.capacity()) * size_of::<u64>()
            + self.delta.capacity() * size_of::<PeerDelta>()
            + self.pending.capacity() * size_of::<(u64, u16, u64)>()
    }

    /// The active mode.
    pub fn mode(&self) -> DisseminationMode {
        self.mode
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

    /// Metrics piggybacked on a probe packet from `from`, handed over
    /// whole: the table keeps them as they arrived. Only the
    /// full-snapshot mode carries link state this way; delta mode
    /// ignores any stray payload rather than letting an empty vector
    /// wipe LSA-learned state.
    pub fn on_probe_metrics(
        &mut self,
        from: HostId,
        entries: Vec<MetricEntry>,
        now: SimTime,
        table: &mut LinkStateTable,
    ) {
        if self.mode == DisseminationMode::FullSnapshot {
            table.adopt_full(from, entries, now);
        }
    }

    /// A standalone [`Packet::Lsa`] arrived. Seqno-deduplicated per
    /// origin: deltas must strictly advance, full refreshes may repeat
    /// the current seqno (they repair entries an earlier lost delta
    /// carried past us). An LSA whose origin is not a peer is not
    /// ingested; a full one that is, is kept as it arrived.
    pub fn on_lsa(
        &mut self,
        origin: HostId,
        seq: u64,
        full: bool,
        entries: Vec<MetricEntry>,
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
                        table.adopt_full(origin, entries, now);
                        self.origin_seq[slot] = seq;
                    }
                } else if seq > stored {
                    table.ingest_delta(origin, &entries, now);
                    self.origin_seq[slot] = seq;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

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
        d.on_lsa(HostId(1), 5, false, vec![e1], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(2), now).is_some());
        // A stale delta (seq 5 again) is ignored...
        d.on_lsa(HostId(1), 5, false, vec![e2], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(3), now).is_none());
        // ...but a full refresh at the same seq repairs the hole.
        d.on_lsa(HostId(1), 5, true, vec![e1, e2], now, &mut t);
        assert!(t.remote_metric(HostId(1), HostId(3), now).is_some());
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
