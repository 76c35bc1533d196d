//! The central measurement collector (§4.1, streaming form).
//!
//! Hosts feed send and receive events in (true-)time order. The collector
//! matches receives with sends by probe id, resolves each probe (one to
//! [`MAX_PROBE_LEGS`] redundant legs) once its receive window expires,
//! and applies the paper's host-failure rule: a host that stops sending
//! probes for more than `fail_gap` (90 s) is considered crashed, and
//! samples toward it during the gap are discarded rather than counted as
//! network loss.
//!
//! ## Hot-path layout
//!
//! Millions of probes per campaign flow through `on_send` → `on_recv` →
//! `advance`, so the matcher avoids the obvious `HashMap<u64,
//! PendingProbe>` + deadline `BinaryHeap` shape:
//!
//! * probe state lives in a **slab** (`Vec<Option<PendingProbe>>` plus a
//!   free list), so the per-probe bytes are reused and receives touch one
//!   contiguous allocation. Legs are an inline `[PendingLeg;
//!   MAX_PROBE_LEGS]` with a 2-bit state machine per slot instead of
//!   nested `Option`s — the 4-leg record is *smaller* than the old
//!   2-leg `[Option<PendingLeg>; 2]`, whose inner `Option<RecvEvent>`
//!   cost 40 niche-less bytes per leg;
//! * the id → slot index goes through a **64-bit Fx hash** ([`FxU64`])
//!   instead of SipHash — probe ids are already uniform random u64s, so
//!   a single multiply is enough;
//! * deadlines are `first_sent + receive_window` with a **constant**
//!   window over nondecreasing send times, so they are already monotone:
//!   a `VecDeque` **ring in insertion order** replaces the heap. Pairs
//!   sharing an exact deadline resolve in ascending id order — the same
//!   tie-break the old `BinaryHeap<Reverse<(SimTime, u64)>>` applied —
//!   so the outcome stream, and therefore every downstream f64
//!   accumulator bit and run fingerprint, is unchanged;
//! * [`Collector::drain_into`] swaps the caller's buffer with the
//!   internal one instead of allocating a fresh `Vec` per sweep.

use crate::record::{LegOutcome, PairOutcome, RecvEvent, SendEvent, MAX_PROBE_LEGS};
use netsim::{HostId, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style hasher for 64-bit probe ids: one XOR and one multiply
/// by a Fibonacci-style odd constant. Probe ids are uniform random u64s
/// (and the slab index map is the innermost lookup of the collector), so
/// SipHash's flooding resistance buys nothing here but costs ~2× on
/// `on_send`/`on_recv`.
#[derive(Default)]
pub struct FxU64(u64);

impl Hasher for FxU64 {
    fn write(&mut self, bytes: &[u8]) {
        // Generic path for completeness; the map only keys u64s.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[allow(
    clippy::disallowed_types,
    reason = "lookup-only id→slot index: outcome order comes from the slab and deadline ring \
              (see `finish`), never from map iteration; the hasher is fixed-seed Fx besides"
)]
type FxMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<FxU64>>;

/// A collector's aggregate counters in mergeable form.
///
/// A sharded experiment runs one [`Collector`] per workload slice; the
/// per-slice stats are summed in slice order into the run's totals.
/// Because every probe pair belongs to exactly one slice, the merged
/// numbers equal what a single collector fed the union of events would
/// have produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CollectorStats {
    /// Probe pairs resolved (each pair exactly once).
    pub resolved: u64,
    /// Pairs discarded by the §4.1 host-failure filter.
    pub discarded: u64,
    /// Receive events that arrived after their pair's window closed.
    pub late_receives: u64,
    /// Receive events that matched an open probe but referenced a leg
    /// that cannot exist (`leg >= MAX_PROBE_LEGS`) or was never sent.
    /// These used to be dropped silently; a corrupt host log now shows
    /// up here.
    pub malformed_receives: u64,
    /// Send events whose leg index was at or beyond [`MAX_PROBE_LEGS`] —
    /// impossible from the experiment driver (method specs validate
    /// their leg counts) and rejected at the wire for live traffic, so
    /// any count here means a corrupt host log.
    pub malformed_sends: u64,
    /// High-water mark of simultaneously open probe pairs — the
    /// collector's memory footprint is proportional to this, so it is
    /// the number to watch when scaling the mesh (`repro
    /// --scale-sweep`). Merges by `max`: a sharded campaign runs one
    /// collector per slice, and the campaign's occupancy is the worst
    /// slice's. Deliberately **excluded** from the run fingerprint,
    /// which folds resolved/discarded/late counts only.
    pub peak_pending: u64,
}

impl CollectorStats {
    /// Folds another collector's stats into this one.
    pub fn merge(&mut self, other: &CollectorStats) {
        self.resolved += other.resolved;
        self.discarded += other.discarded;
        self.late_receives += other.late_receives;
        self.malformed_receives += other.malformed_receives;
        self.malformed_sends += other.malformed_sends;
        self.peak_pending = self.peak_pending.max(other.peak_pending);
    }
}

/// Collector policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// How long after the first send a pair stays open for receives. The
    /// paper used one hour; simulated paths bound delay at a few seconds,
    /// so experiments typically shrink this to keep memory flat (the
    /// semantics are identical as long as it exceeds the maximum delay).
    pub receive_window: SimDuration,
    /// Send-gap beyond which a host counts as crashed (§4.1: 90 s).
    pub fail_gap: SimDuration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            receive_window: SimDuration::from_secs(60),
            fail_gap: SimDuration::from_secs(90),
        }
    }
}

/// Per-leg state machine: a slot is untouched, sent, or sent+received.
/// Encoded as a plain byte (not nested `Option`s) so the inline leg
/// array stays compact and branch-predictable.
const LEG_UNSENT: u8 = 0;
const LEG_SENT: u8 = 1;
const LEG_RECEIVED: u8 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct PendingLeg {
    route: u8,
    state: u8,
    sent_local_us: i64,
    recv_local_us: i64,
}

#[derive(Debug)]
struct PendingProbe {
    id: u64,
    method: u8,
    src: HostId,
    dst: HostId,
    first_sent: SimTime,
    legs: [PendingLeg; MAX_PROBE_LEGS],
}

#[derive(Debug, Clone, Default)]
struct HostActivity {
    last_send: Option<SimTime>,
    /// Silence gaps longer than `fail_gap`, as **open** intervals: the
    /// host provably sent a probe at both endpoints, so a probe stamped
    /// exactly on either boundary instant met a live host.
    down: Vec<(SimTime, SimTime)>,
}

impl HostActivity {
    fn on_send(&mut self, at: SimTime, fail_gap: SimDuration) {
        if let Some(prev) = self.last_send {
            if at <= prev {
                // A straggler from an imperfectly merged log (or a
                // same-instant second leg): the host provably sent at
                // `prev`, so an earlier send adds no liveness news —
                // and must not rewind `last_send` into fabricating a
                // spurious gap.
                return;
            }
            if at.since(prev) > fail_gap {
                self.down.push((prev, at));
            }
        }
        self.last_send = Some(at);
    }

    /// Was the host silent around `t` (either strictly inside a recorded
    /// gap, or silent ever since more than `fail_gap` before `now`)?
    fn was_down(&self, t: SimTime, now: SimTime, fail_gap: SimDuration) -> bool {
        match self.last_send {
            None => true, // never heard from this host at all
            Some(last) => {
                if t > last && now.since(last) > fail_gap {
                    return true; // open-ended silence
                }
                // Binary search over gaps (sorted by construction). Both
                // comparisons are strict: a gap's endpoints are instants
                // the host *did* send, so they don't count as down.
                let idx = self.down.partition_point(|&(_, end)| end <= t);
                idx < self.down.len() && self.down[idx].0 < t
            }
        }
    }
}

/// Slot indices are `u32`: the pending set is bounded by sends within
/// one receive window, far below 4 billion.
type SlotIdx = u32;

/// Streaming collector; see module docs.
pub struct Collector {
    cfg: CollectorConfig,
    /// Probe id → slab slot of the open probe.
    index: FxMap<SlotIdx>,
    /// Probe slab; freed slots are recycled via `free`.
    slots: Vec<Option<PendingProbe>>,
    free: Vec<SlotIdx>,
    /// Expiry ring, nondecreasing in deadline (constant receive window
    /// over time-ordered sends). Replaces the old deadline heap.
    deadlines: VecDeque<(SimTime, SlotIdx)>,
    /// Scratch for resolving one equal-deadline group in id order.
    batch: Vec<(u64, SlotIdx)>,
    activity: Vec<HostActivity>,
    finalized: Vec<PairOutcome>,
    discarded: u64,
    resolved: u64,
    late_receives: u64,
    malformed_receives: u64,
    malformed_sends: u64,
    peak_pending: u64,
}

impl Collector {
    /// Creates a collector for a mesh of `n` hosts.
    pub fn new(n: usize, cfg: CollectorConfig) -> Self {
        Collector {
            cfg,
            index: FxMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            deadlines: VecDeque::new(),
            batch: Vec::new(),
            activity: vec![HostActivity::default(); n],
            finalized: Vec::new(),
            discarded: 0,
            resolved: 0,
            late_receives: 0,
            malformed_receives: 0,
            malformed_sends: 0,
            peak_pending: 0,
        }
    }

    /// Ingests a send event. Events must arrive in nondecreasing time
    /// order (the natural order of a simulation or a merged log); rare
    /// stragglers from imperfectly merged logs are tolerated and slotted
    /// into deadline order.
    pub fn on_send(&mut self, e: SendEvent) {
        self.activity[e.src.idx()].on_send(e.sent, self.cfg.fail_gap);
        if e.leg as usize >= MAX_PROBE_LEGS {
            // A leg the wire format cannot carry: only a corrupt host
            // log can produce it. Count it loudly (the liveness signal
            // above still stands — the host did send *something*).
            self.malformed_sends += 1;
            return;
        }
        let idx = *self.index.entry(e.id).or_insert_with(|| {
            let probe = PendingProbe {
                id: e.id,
                method: e.method,
                src: e.src,
                dst: e.dst,
                first_sent: e.sent,
                legs: [PendingLeg::default(); MAX_PROBE_LEGS],
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[i as usize] = Some(probe);
                    i
                }
                None => {
                    self.slots.push(Some(probe));
                    (self.slots.len() - 1) as SlotIdx
                }
            };
            let deadline = e.sent + self.cfg.receive_window;
            match self.deadlines.back() {
                // Straggler: walk to its sorted position (position within
                // an equal-deadline run is irrelevant — groups resolve in
                // id order).
                Some(&(last, _)) if last > deadline => {
                    let at = self.deadlines.partition_point(|&(d, _)| d <= deadline);
                    self.deadlines.insert(at, (deadline, idx));
                }
                _ => self.deadlines.push_back((deadline, idx)),
            }
            idx
        });
        let probe = self.slots[idx as usize].as_mut().expect("indexed slot is occupied");
        probe.legs[e.leg as usize] =
            PendingLeg { route: e.route, state: LEG_SENT, sent_local_us: e.sent_local_us, recv_local_us: 0 };
        // The pending set only grows in `on_send`, so sampling here
        // captures the exact high-water mark.
        self.peak_pending = self.peak_pending.max(self.index.len() as u64);
    }

    /// Ingests a receive event.
    pub fn on_recv(&mut self, e: RecvEvent) {
        let Some(&idx) = self.index.get(&e.id) else {
            self.late_receives += 1;
            return;
        };
        let probe = self.slots[idx as usize].as_mut().expect("indexed slot is occupied");
        match probe.legs.get_mut(e.leg as usize) {
            Some(leg) if leg.state != LEG_UNSENT => {
                leg.state = LEG_RECEIVED;
                leg.recv_local_us = e.recv_local_us;
            }
            // A receive for a leg that can't exist or was never sent:
            // count it instead of losing it invisibly.
            _ => self.malformed_receives += 1,
        }
    }

    /// Resolves every pair whose receive window has expired by `now`.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&(deadline, _)) = self.deadlines.front() {
            if deadline > now {
                break;
            }
            self.resolve_deadline_group(deadline, now);
        }
    }

    /// Pops every ring entry sharing `deadline` and resolves the group in
    /// ascending id order — exactly the pop order of the old
    /// `BinaryHeap<Reverse<(SimTime, u64)>>`, so outcome-stream order
    /// (and everything fingerprinted downstream) is preserved.
    fn resolve_deadline_group(&mut self, deadline: SimTime, now: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        while let Some(&(d, idx)) = self.deadlines.front() {
            if d != deadline {
                break;
            }
            self.deadlines.pop_front();
            let id = self.slots[idx as usize].as_ref().expect("ring slot is occupied").id;
            batch.push((id, idx));
        }
        if batch.len() > 1 {
            batch.sort_unstable_by_key(|&(id, _)| id);
        }
        for &(id, idx) in &batch {
            self.index.remove(&id);
            let pair = self.slots[idx as usize].take().expect("ring slot is occupied");
            self.free.push(idx);
            let outcome = self.resolve(pair, now);
            self.finalized.push(outcome);
        }
        self.batch = batch;
    }

    fn resolve(&mut self, p: PendingProbe, now: SimTime) -> PairOutcome {
        self.resolved += 1;
        let mk = |l: PendingLeg| match l.state {
            LEG_UNSENT => None,
            state => Some(LegOutcome {
                route: l.route,
                lost: state != LEG_RECEIVED,
                one_way_us: (state == LEG_RECEIVED).then(|| l.recv_local_us - l.sent_local_us),
            }),
        };
        // §4.1 host-failure filter: if the destination host's measurement
        // process was silent around the send instant, the sample tells us
        // about the host, not the network — discard it.
        let discarded = self.activity[p.dst.idx()].was_down(p.first_sent, now, self.cfg.fail_gap);
        if discarded {
            self.discarded += 1;
        }
        PairOutcome::from_legs(p.id, p.method, p.src, p.dst, p.first_sent, p.legs.map(mk), discarded)
    }

    /// Takes all outcomes finalized so far.
    ///
    /// Allocates a fresh vector per call; the experiment hot path uses
    /// [`drain_into`](Self::drain_into) instead.
    pub fn drain(&mut self) -> Vec<PairOutcome> {
        std::mem::take(&mut self.finalized)
    }

    /// Moves all outcomes finalized so far into `out` (cleared first) by
    /// swapping buffers, so a sweep loop that hands the same vector back
    /// allocates nothing in steady state.
    pub fn drain_into(&mut self, out: &mut Vec<PairOutcome>) {
        out.clear();
        std::mem::swap(&mut self.finalized, out);
    }

    /// Flushes every pending pair regardless of window (end of run).
    ///
    /// Pairs resolve in `(deadline, id)` order via the expiry ring — the
    /// same order [`advance`](Self::advance) would have used — so the
    /// end-of-run outcome stream is identical across runs and processes
    /// (this used to drain a `HashMap` in iteration order, which is not).
    pub fn finish(&mut self, now: SimTime) {
        while let Some(&(deadline, _)) = self.deadlines.front() {
            self.resolve_deadline_group(deadline, now);
        }
        debug_assert!(self.index.is_empty(), "every pending pair is on the ring");
    }

    /// (resolved, discarded-by-host-filter, receives-after-window).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.resolved, self.discarded, self.late_receives)
    }

    /// The aggregate counters in mergeable struct form.
    pub fn stats(&self) -> CollectorStats {
        CollectorStats {
            resolved: self.resolved,
            discarded: self.discarded,
            late_receives: self.late_receives,
            malformed_receives: self.malformed_receives,
            malformed_sends: self.malformed_sends,
            peak_pending: self.peak_pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CollectorConfig {
        CollectorConfig {
            receive_window: SimDuration::from_secs(10),
            fail_gap: SimDuration::from_secs(90),
        }
    }

    fn send(id: u64, leg: u8, src: u16, dst: u16, t: u64) -> SendEvent {
        SendEvent {
            id,
            method: 1,
            leg,
            src: HostId(src),
            dst: HostId(dst),
            route: 0,
            sent: SimTime::from_secs(t),
            sent_local_us: (t * 1_000_000) as i64,
        }
    }

    fn recv(id: u64, leg: u8, t_us: u64) -> RecvEvent {
        RecvEvent {
            id,
            leg,
            recv: SimTime::from_micros(t_us),
            recv_local_us: t_us as i64,
        }
    }

    /// Keeps both endpoints "alive" by having them send their own probes.
    fn heartbeat(c: &mut Collector, hosts: &[u16], t: u64) {
        for (i, &h) in hosts.iter().enumerate() {
            c.on_send(send(1_000_000 + t * 100 + i as u64, 0, h, hosts[(i + 1) % hosts.len()], t));
        }
    }

    #[test]
    fn received_pair_resolves_with_latency() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        c.on_send(send(42, 0, 0, 1, 5));
        c.on_recv(recv(42, 0, 5_030_000)); // 30 ms later
        c.advance(SimTime::from_secs(120));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 42).unwrap();
        assert!(!o.discarded);
        let leg = o.leg(0).unwrap();
        assert!(!leg.lost);
        assert_eq!(leg.one_way_us, Some(30_000));
        assert!(!o.all_lost());
    }

    #[test]
    fn unanswered_pair_resolves_lost() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        c.on_send(send(43, 0, 0, 1, 5));
        c.advance(SimTime::from_secs(120));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 43).unwrap();
        assert!(o.leg(0).unwrap().lost);
        assert!(o.all_lost());
        assert!(!o.discarded, "dst was alive; this is real network loss");
    }

    #[test]
    fn two_leg_pairs_pair_up() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        c.on_send(send(44, 0, 0, 1, 5));
        c.on_send(send(44, 1, 0, 1, 5));
        c.on_recv(recv(44, 1, 5_045_000));
        c.advance(SimTime::from_secs(120));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 44).unwrap();
        assert_eq!(o.leg_count(), 2);
        assert!(o.leg(0).unwrap().lost);
        assert!(!o.leg(1).unwrap().lost);
        assert!(!o.all_lost(), "one copy arrived — mesh routing saved the pair");
        assert_eq!(o.best_one_way_us(), Some(45_000));
    }

    #[test]
    fn receive_after_window_is_too_late() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        c.on_send(send(45, 0, 0, 1, 5));
        c.advance(SimTime::from_secs(30)); // window (10 s) long expired
        c.on_recv(recv(45, 0, 16_000_000));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 45).unwrap();
        assert!(o.leg(0).unwrap().lost, "late receive must not resurrect the pair");
        assert_eq!(c.counters().2, 1, "late receive counted");
    }

    #[test]
    fn malformed_receives_are_counted_not_dropped() {
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1], 0);
        c.on_send(send(50, 0, 0, 1, 1)); // only leg 0 exists
        // Leg index out of range entirely:
        c.on_recv(recv(50, 2, 1_010_000));
        // Leg slot never sent:
        c.on_recv(recv(50, 1, 1_020_000));
        // A well-formed receive still lands:
        c.on_recv(recv(50, 0, 1_030_000));
        assert_eq!(c.stats().malformed_receives, 2);
        assert_eq!(c.counters().2, 0, "malformed is not 'late'");
        c.advance(SimTime::from_secs(60));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 50).unwrap();
        assert!(!o.leg(0).unwrap().lost, "the valid receive survived");
        // And the counter merges like the others.
        let mut total = CollectorStats::default();
        total.merge(&c.stats());
        assert_eq!(total.malformed_receives, 2);
    }

    #[test]
    fn four_leg_probe_resolves_all_legs() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        for leg in 0..MAX_PROBE_LEGS as u8 {
            let mut e = send(51, leg, 0, 1, 5);
            e.route = leg;
            c.on_send(e);
        }
        // Legs 1 and 3 arrive, 0 and 2 are lost.
        c.on_recv(recv(51, 1, 5_030_000));
        c.on_recv(recv(51, 3, 5_055_000));
        c.advance(SimTime::from_secs(120));
        let outs = c.drain();
        let o = outs.iter().find(|o| o.id == 51).unwrap();
        assert_eq!(o.leg_count(), MAX_PROBE_LEGS);
        assert!(o.leg(0).unwrap().lost && o.leg(2).unwrap().lost);
        assert!(!o.leg(1).unwrap().lost && !o.leg(3).unwrap().lost);
        assert_eq!(o.leg(3).unwrap().route, 3, "per-leg route tags survive");
        assert!(!o.all_lost());
        assert!(o.prefix_all_lost(1) && !o.prefix_all_lost(2));
        assert_eq!(o.best_one_way_us(), Some(30_000));
        assert_eq!(c.stats().malformed_receives, 0);
    }

    #[test]
    fn out_of_range_send_leg_is_counted_not_recorded() {
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1], 0);
        c.on_send(send(52, MAX_PROBE_LEGS as u8, 0, 1, 1));
        assert_eq!(c.stats().malformed_sends, 1);
        assert_eq!(c.index.len(), 2, "only the heartbeats are pending");
        // The stat merges like the others.
        let mut total = CollectorStats::default();
        total.merge(&c.stats());
        assert_eq!(total.malformed_sends, 1);
    }

    #[test]
    fn same_deadline_pairs_resolve_in_id_order() {
        // Several pairs sent at the same instant share a deadline; the
        // ring must reproduce the old heap's (deadline, id) pop order.
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1], 0);
        for &id in &[907, 13, 402, 555, 1] {
            c.on_send(send(id, 0, 0, 1, 3));
        }
        c.advance(SimTime::from_secs(60));
        let ids: Vec<u64> = c.drain().iter().map(|o| o.id).filter(|&id| id < 1_000).collect();
        assert_eq!(ids, vec![1, 13, 402, 555, 907]);
    }

    #[test]
    fn host_failure_gap_discards_samples() {
        let mut c = Collector::new(4, cfg());
        // Host 1 is chatty until t=100, silent until t=400, then resumes.
        for t in 0..100 {
            c.on_send(send(2_000 + t, 0, 1, 2, t));
        }
        for t in 400..420 {
            c.on_send(send(3_000 + t, 0, 1, 2, t));
        }
        // Host 0 sends to host 1 during the silence: that loss is a host
        // failure, not a network failure.
        c.on_send(send(77, 0, 0, 1, 200));
        // And a control probe while 1 was alive:
        c.on_send(send(78, 0, 0, 1, 50));
        c.on_recv(recv(78, 0, 50_020_000));
        // Boundary probes: host 1 provably sent at t=99 (its last probe
        // before the gap) and at t=400 (its first after). A sample
        // stamped exactly on either endpoint met a live host — the gap
        // is open at both ends.
        c.on_send(send(79, 0, 0, 1, 99));
        c.on_send(send(80, 0, 0, 1, 400));
        c.advance(SimTime::from_secs(1_000));
        let outs = c.drain();
        assert!(outs.iter().find(|o| o.id == 77).unwrap().discarded);
        assert!(!outs.iter().find(|o| o.id == 78).unwrap().discarded);
        assert!(
            !outs.iter().find(|o| o.id == 79).unwrap().discarded,
            "gap-start instant: the host sent a probe then, it was up"
        );
        assert!(
            !outs.iter().find(|o| o.id == 80).unwrap().discarded,
            "gap-end instant: the host sent a probe then, it was up"
        );
    }

    #[test]
    fn straggler_send_does_not_fabricate_a_gap() {
        let mut c = Collector::new(4, cfg());
        // Host 1 is alive throughout, but a straggler from a merged log
        // replays an old send out of order.
        c.on_send(send(6_000, 0, 1, 2, 200));
        c.on_send(send(6_001, 0, 1, 2, 50)); // straggler, must not rewind
        c.on_send(send(6_002, 0, 1, 2, 210));
        // A probe toward host 1 inside the would-be (50, 210) "gap":
        c.on_send(send(88, 0, 0, 1, 205));
        c.advance(SimTime::from_secs(1_000));
        let outs = c.drain();
        assert!(
            !outs.iter().find(|o| o.id == 88).unwrap().discarded,
            "host 1 sent at 200 and 210; the straggler must not create a gap"
        );
    }

    #[test]
    fn open_ended_silence_discards() {
        let mut c = Collector::new(4, cfg());
        for t in 0..50 {
            c.on_send(send(5_000 + t, 0, 1, 2, t));
        }
        // Host 1 dies at t=50 and never comes back; probe at t=200.
        c.on_send(send(99, 0, 0, 1, 200));
        c.advance(SimTime::from_secs(500));
        let outs = c.drain();
        assert!(outs.iter().find(|o| o.id == 99).unwrap().discarded);
    }

    #[test]
    fn finish_flushes_pending() {
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1], 0);
        c.on_send(send(46, 0, 0, 1, 5));
        assert!(!c.index.is_empty());
        c.finish(SimTime::from_secs(6));
        assert_eq!(c.index.len(), 0);
        assert!(c.drain().iter().any(|o| o.id == 46));
    }

    /// Regression for the nondeterministic `finish`: it used to walk
    /// `HashMap::keys()`, whose order changes between collectors (and
    /// between processes), so two identical runs could emit end-of-run
    /// outcomes in different orders. Resolution now walks the expiry
    /// ring, so identical inputs give identical outcome sequences.
    #[test]
    fn finish_order_is_deterministic_across_runs() {
        let run = || {
            let mut c = Collector::new(4, cfg());
            // Many pairs, still pending at finish; several share a send
            // instant (and thus a deadline) so tie order is exercised.
            for i in 0..200u64 {
                c.on_send(send(10_000 + (i * 7_919) % 100_000, 0, 0, 1, 1 + i / 8));
            }
            c.finish(SimTime::from_secs(30));
            c.drain().iter().map(|o| o.id).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 200);
        assert_eq!(
            a.iter().copied().collect::<std::collections::BTreeSet<_>>().len(),
            200,
            "every pair resolves exactly once"
        );
        assert_eq!(a, b, "identical runs must drain identical sequences");
        // And the order is the documented one — (deadline, id): within
        // each 8-pair same-instant group the ids are ascending.
        for group in a.chunks(8) {
            assert!(group.windows(2).all(|w| w[0] < w[1]), "group not id-sorted: {group:?}");
        }
    }

    #[test]
    fn drain_into_reuses_the_buffer() {
        let mut c = Collector::new(4, cfg());
        let mut buf = Vec::new();
        for round in 0..3u64 {
            heartbeat(&mut c, &[0, 1], round * 100);
            c.on_send(send(60 + round, 0, 0, 1, round * 100));
            c.advance(SimTime::from_secs(round * 100 + 90));
            c.drain_into(&mut buf);
            assert!(buf.iter().any(|o| o.id == 60 + round));
        }
        let cap = buf.capacity();
        heartbeat(&mut c, &[0, 1], 300);
        c.advance(SimTime::from_secs(390));
        c.drain_into(&mut buf);
        assert!(buf.capacity() >= 1, "buffer stays usable");
        assert!(cap > 0);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut c = Collector::new(4, cfg());
        for wave in 0..5u64 {
            let t = wave * 100;
            for i in 0..50u64 {
                c.on_send(send(wave * 1_000 + i, 0, 0, 1, t));
            }
            c.advance(SimTime::from_secs(t + 90));
            c.drain();
        }
        assert!(
            c.slots.len() <= 50,
            "slab must recycle freed slots, got {} for 50 concurrent pairs",
            c.slots.len()
        );
    }

    #[test]
    fn peak_pending_is_a_high_water_mark_and_merges_by_max() {
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1], 0); // 2 pending
        for i in 0..10u64 {
            c.on_send(send(100 + i, 0, 0, 1, 1));
        }
        assert_eq!(c.stats().peak_pending, 12);
        c.advance(SimTime::from_secs(60));
        assert_eq!(c.index.len(), 0, "everything resolved");
        assert_eq!(c.stats().peak_pending, 12, "the mark survives the drain");
        // A second leg on an open pair opens nothing new.
        heartbeat(&mut c, &[0, 1], 70);
        c.on_send(send(200, 0, 0, 1, 70));
        c.on_send(send(200, 1, 0, 1, 70));
        assert_eq!(c.stats().peak_pending, 12, "3 open pairs < the old mark");
        // Slices merge occupancy by max (concurrent memory), not sum.
        let mut total = CollectorStats { peak_pending: 5, ..Default::default() };
        total.merge(&c.stats());
        assert_eq!(total.peak_pending, 12);
        let mut total = CollectorStats { peak_pending: 40, ..Default::default() };
        total.merge(&c.stats());
        assert_eq!(total.peak_pending, 40);
    }

    #[test]
    fn negative_one_way_survives_clock_skew() {
        let mut c = Collector::new(4, cfg());
        for t in 0..40 {
            heartbeat(&mut c, &[0, 1], t);
        }
        let mut e = send(47, 0, 0, 1, 5);
        e.sent_local_us = 5_000_000;
        c.on_send(e);
        // Receiver clock is behind: local receive stamp earlier than send.
        c.on_recv(RecvEvent {
            id: 47,
            leg: 0,
            recv: SimTime::from_micros(5_030_000),
            recv_local_us: 4_990_000,
        });
        c.advance(SimTime::from_secs(120));
        let outs = c.drain();
        let leg = outs.iter().find(|o| o.id == 47).unwrap().leg(0).unwrap();
        assert_eq!(leg.one_way_us, Some(-10_000));
    }
}
