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
//! `advance`, and every pair stays open for its receive window, so the
//! collector holds the open pairs and nothing else:
//!
//! * the open pairs live in one `VecDeque` **ring in deadline order**. A
//!   deadline is `first_sent + receive_window` with a **constant** window
//!   over time-ordered sends, so deadline order is send order: new pairs
//!   go on the back, expired ones come off the front, and no deadline is
//!   stored. A straggler from an imperfectly merged log is inserted at
//!   its sorted place, its legs with it, and the pairs behind it are
//!   re-indexed;
//! * a pair is a 24-byte header (id, first send, endpoints, method) on
//!   that ring, and its legs (local send and receive stamps, route tag,
//!   state byte: 24 bytes each) sit on a second ring in the same order,
//!   as many per pair as the highest leg any send has named so far. The
//!   leg ring widens the first time a send names a higher leg, so a run
//!   of one- and two-leg methods pays 48 or 72 bytes per open pair, not
//!   [`MAX_PROBE_LEGS`] slots;
//! * both rings grow by a quarter of their capacity (at least
//!   `GROWTH_MIN` = 64 pairs) when full, not by doubling, so what they hold
//!   stays within 1.25 × the most pairs ever open at once, plus 64;
//! * a **64-bit Fx hash** ([`FxU64`]) maps an id to the pair's absolute
//!   ring position (`head` + offset) — probe ids are already uniform
//!   random u64s, so one multiply does what SipHash would;
//! * pairs sharing an exact deadline resolve in ascending id order, the
//!   tie-break of the original `BinaryHeap<Reverse<(SimTime, u64)>>`, so
//!   the outcome stream and every fingerprint downstream are unchanged;
//! * [`Collector::drain_into`] swaps the caller's buffer with the
//!   internal one instead of allocating a fresh `Vec` per sweep.

use crate::record::{LegOutcome, PairOutcome, RecvEvent, SendEvent, MAX_PROBE_LEGS};
use netsim::{HostId, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style hasher for 64-bit probe ids: one XOR and one multiply
/// by a Fibonacci-style odd constant. Probe ids are uniform random u64s
/// (and the id index is the innermost lookup of the collector), so
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
    reason = "lookup-only id→position index: outcome order comes from the deadline ring \
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
/// Encoded as a plain byte (not nested `Option`s) so the slot stays
/// compact and branch-predictable.
const LEG_UNSENT: u8 = 0;
const LEG_SENT: u8 = 1;
const LEG_RECEIVED: u8 = 2;

/// The fewest pairs a full ring grows by; above four times this it grows
/// by a quarter of its capacity.
const GROWTH_MIN: usize = 64;

/// One open probe pair; its deadline is `first_sent + receive_window`,
/// and its legs sit on the leg ring (see [`Collector::legs`]).
#[derive(Debug, Clone, Copy)]
struct PendingProbe {
    id: u64,
    first_sent: SimTime,
    src: HostId,
    dst: HostId,
    method: u8,
}

/// One leg slot of an open pair.
#[derive(Debug, Clone, Copy)]
struct Leg {
    sent_local_us: i64,
    recv_local_us: i64,
    route: u8,
    state: u8,
}

impl Leg {
    const UNSENT: Leg = Leg { sent_local_us: 0, recv_local_us: 0, route: 0, state: LEG_UNSENT };
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

/// Streaming collector; see module docs.
pub struct Collector {
    cfg: CollectorConfig,
    /// Probe id → absolute position (`head` + offset) of the open pair.
    index: FxMap<u64>,
    /// The open pairs, nondecreasing in deadline.
    pending: VecDeque<PendingProbe>,
    /// The open pairs' legs, `width` per pair in ring order: the pair at
    /// offset `i` owns `legs[i * width..(i + 1) * width]`.
    legs: VecDeque<Leg>,
    /// Leg slots per pair: one above the highest leg any send has named.
    width: usize,
    /// Absolute position of `pending[0]` (the pairs ever popped).
    head: u64,
    /// Scratch for resolving one equal-deadline group in id order: each
    /// pair's id and ring offset.
    batch: Vec<(u64, usize)>,
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
            pending: VecDeque::new(),
            legs: VecDeque::new(),
            width: 0,
            head: 0,
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
        let leg = e.leg as usize;
        if leg >= MAX_PROBE_LEGS {
            // A leg the wire format cannot carry: only a corrupt host
            // log can produce it. Count it loudly (the liveness signal
            // above still stands — the host did send *something*).
            self.malformed_sends += 1;
            return;
        }
        if leg >= self.width {
            self.widen(leg + 1);
        }
        let at = match self.index.get(&e.id) {
            Some(&pos) => (pos - self.head) as usize,
            None => self.open(&e),
        };
        let slot = &mut self.legs[at * self.width + leg];
        slot.route = e.route;
        slot.state = LEG_SENT;
        slot.sent_local_us = e.sent_local_us;
        // The pending set only grows in `on_send`, so sampling here
        // captures the exact high-water mark.
        self.peak_pending = self.peak_pending.max(self.pending.len() as u64);
    }

    /// Re-lays the leg ring at `width` slots per pair, the new slots
    /// unsent, with room for as many pairs as the pair ring has.
    fn widen(&mut self, width: usize) {
        let mut legs = VecDeque::with_capacity(self.pending.capacity() * width);
        for pair in 0..self.pending.len() {
            legs.extend(self.legs.range(pair * self.width..(pair + 1) * self.width));
            legs.extend(std::iter::repeat_n(Leg::UNSENT, width - self.width));
        }
        self.legs = legs;
        self.width = width;
    }

    /// Opens a pair for `e`'s probe at its deadline's place in the ring
    /// and returns its offset there.
    fn open(&mut self, e: &SendEvent) -> usize {
        if self.pending.len() == self.pending.capacity() {
            // Grow by a quarter, not by doubling (module docs); the leg
            // ring follows to the same number of pairs.
            self.pending.reserve_exact((self.pending.capacity() / 4).max(GROWTH_MIN));
            self.legs.reserve_exact(self.pending.capacity() * self.width - self.legs.len());
        }
        let probe = PendingProbe { id: e.id, first_sent: e.sent, src: e.src, dst: e.dst, method: e.method };
        let at = match self.pending.back() {
            // Straggler: insert it and its legs in deadline order (groups
            // resolve in id order) and re-index every pair behind it.
            Some(last) if last.first_sent > e.sent => {
                let at = self.pending.partition_point(|p| p.first_sent <= e.sent);
                self.pending.insert(at, probe);
                for slot in at * self.width..(at + 1) * self.width {
                    self.legs.insert(slot, Leg::UNSENT);
                }
                for (pos, p) in (self.head..).zip(&self.pending).skip(at + 1) {
                    self.index.insert(p.id, pos);
                }
                at
            }
            _ => {
                self.pending.push_back(probe);
                for _ in 0..self.width {
                    self.legs.push_back(Leg::UNSENT);
                }
                self.pending.len() - 1
            }
        };
        self.index.insert(e.id, self.head + at as u64);
        at
    }

    /// Ingests a receive event.
    pub fn on_recv(&mut self, e: RecvEvent) {
        let Some(&pos) = self.index.get(&e.id) else {
            self.late_receives += 1;
            return;
        };
        let leg = e.leg as usize;
        if leg < self.width {
            let slot = &mut self.legs[(pos - self.head) as usize * self.width + leg];
            if slot.state != LEG_UNSENT {
                slot.state = LEG_RECEIVED;
                slot.recv_local_us = e.recv_local_us;
                return;
            }
        }
        // A receive for a leg that can't exist or was never sent: count
        // it instead of losing it invisibly.
        self.malformed_receives += 1;
    }

    /// Resolves every pair whose receive window has expired by `now`.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(sent) = self.pending.front().map(|p| p.first_sent) {
            if sent + self.cfg.receive_window > now {
                break;
            }
            self.resolve_deadline_group(sent, now);
        }
    }

    /// Resolves every pair first sent at `sent` (so sharing a deadline)
    /// at the front of the ring in ascending id order — exactly the pop
    /// order of the original `BinaryHeap<Reverse<(SimTime, u64)>>`, so
    /// outcome-stream order (and everything fingerprinted downstream) is
    /// preserved — then pops the group and its legs.
    fn resolve_deadline_group(&mut self, sent: SimTime, now: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.extend(self.pending.iter().take_while(|p| p.first_sent == sent).map(|p| p.id).zip(0..));
        batch.sort_unstable_by_key(|&(id, _)| id);
        for &(_, at) in &batch {
            let outcome = self.resolve(at, now);
            self.finalized.push(outcome);
        }
        for _ in 0..batch.len() {
            let p = self.pending.pop_front().expect("the group is on the ring");
            self.index.remove(&p.id);
            for _ in 0..self.width {
                self.legs.pop_front();
            }
        }
        self.head += batch.len() as u64;
        self.batch = batch;
    }

    /// The outcome of the pair at ring offset `at`.
    fn resolve(&mut self, at: usize, now: SimTime) -> PairOutcome {
        self.resolved += 1;
        let p = self.pending[at];
        let legs = std::array::from_fn(|i| {
            let leg = (i < self.width).then(|| self.legs[at * self.width + i])?;
            let received = leg.state == LEG_RECEIVED;
            (leg.state != LEG_UNSENT).then(|| LegOutcome {
                route: leg.route,
                lost: !received,
                one_way_us: received.then(|| leg.recv_local_us - leg.sent_local_us),
            })
        });
        // §4.1 host-failure filter: if the destination host's measurement
        // process was silent around the send instant, the sample tells us
        // about the host, not the network — discard it.
        let discarded = self.activity[p.dst.idx()].was_down(p.first_sent, now, self.cfg.fail_gap);
        if discarded {
            self.discarded += 1;
        }
        PairOutcome::from_legs(p.id, p.method, p.src, p.dst, p.first_sent, legs, discarded)
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
    /// Pairs resolve in `(deadline, id)` order off the ring — the same
    /// order [`advance`](Self::advance) would have used — so the
    /// end-of-run outcome stream is identical across runs and processes
    /// (this used to drain a `HashMap` in iteration order, which is not).
    pub fn finish(&mut self, now: SimTime) {
        while let Some(sent) = self.pending.front().map(|p| p.first_sent) {
            self.resolve_deadline_group(sent, now);
        }
        debug_assert!(self.index.is_empty(), "every indexed pair is on the ring");
    }

    /// Approximate heap bytes of the open pairs: the pair and leg rings,
    /// the id index and the equal-deadline scratch. It follows the
    /// high-water mark of open pairs ([`CollectorStats::peak_pending`])
    /// and the widest probe, not the run length.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pending.capacity() * size_of::<PendingProbe>()
            + self.legs.capacity() * size_of::<Leg>()
            + self.batch.capacity() * size_of::<(u64, usize)>()
            + self.index.capacity() * (size_of::<(u64, u64)>() + 1)
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
        assert_eq!(c.stats().late_receives, 1, "late receive counted");
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
        assert_eq!(c.stats().late_receives, 0, "malformed is not 'late'");
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

    /// The bytes the pair and leg rings hold.
    fn ring_bytes(c: &Collector) -> usize {
        c.pending.capacity() * std::mem::size_of::<PendingProbe>() + c.legs.capacity() * std::mem::size_of::<Leg>()
    }

    #[test]
    fn ring_capacity_follows_open_pairs() {
        let mut c = Collector::new(4, cfg());
        let (mut held, mut rings) = (Vec::new(), Vec::new());
        // Waves of 50 and then of 3 000 open pairs, each resolved before
        // the next: the rings hold at most a quarter (at least 64 pairs)
        // above the widest wave, however many waves resolved.
        for (waves, per_wave) in [(0..5u64, 50u64), (5..8, 3_000)] {
            for wave in waves {
                let t = wave * 100;
                for i in 0..per_wave {
                    c.on_send(send(wave * 1_000 + i, 0, 0, 1, t));
                }
                let cap = c.pending.capacity();
                assert!(4 * cap <= 5 * per_wave as usize + 4 * GROWTH_MIN, "capacity {cap} for {per_wave} open pairs");
                assert_eq!(c.legs.capacity(), cap, "one-leg probes keep one leg slot per pair");
                c.advance(SimTime::from_secs(t + 90));
                c.drain();
                held.push(c.approx_bytes());
                rings.push(ring_bytes(&c));
            }
        }
        assert_eq!(c.stats().peak_pending, 3_000);
        assert!(held[..5].iter().all(|&b| b == held[0]), "bytes grew with resolved waves: {held:?}");
        assert!(rings[5..].iter().all(|&b| b == rings[5]), "rings grew with resolved waves: {rings:?}");
    }

    #[test]
    fn a_pair_costs_one_record_and_bytes_track_open_pairs() {
        // A two-leg pair is a 24-byte header and two 24-byte leg slots.
        let two_leg = std::mem::size_of::<PendingProbe>() + 2 * std::mem::size_of::<Leg>();
        assert!(two_leg <= 72, "{two_leg} bytes per two-leg pair");
        let mut c = Collector::new(4, cfg());
        assert_eq!(c.approx_bytes(), 0);
        // 1 000 open two-leg pairs, 4 per instant: the rings within a
        // quarter (at least 64 pairs) of them, a 16-byte index slot per
        // pair within a doubling and a 4-pair scratch.
        let open_pairs = |c: &mut Collector, first: u64, t0: u64| {
            for i in 0..1_000u64 {
                c.on_send(send(first + i, 0, 0, 1, t0 + i / 4));
                c.on_send(send(first + i, 1, 0, 1, t0 + i / 4));
            }
        };
        open_pairs(&mut c, 0, 0);
        assert_eq!(c.width, 2);
        let cap = c.pending.capacity();
        assert!(4 * cap <= 5 * 1_000 + 4 * GROWTH_MIN, "ring capacity {cap} for 1 000 open pairs");
        assert!(ring_bytes(&c) <= 72 * cap, "{} ring bytes for {cap} pair slots", ring_bytes(&c));
        let open = c.approx_bytes();
        assert!(open >= 1_000 * (two_leg + 16), "approx_bytes {open} misses something");
        assert!(open <= 72 * cap + 2 * 1_000 * 17, "{open} bytes for 1 000 open pairs");
        // Resolving them frees nothing, and 1 000 more reuse the space.
        c.advance(SimTime::from_secs(1_000));
        assert_eq!(c.drain().len(), 1_000);
        let held = c.approx_bytes();
        assert_eq!(held, open + 4 * 16, "the rings and index keep their capacity");
        open_pairs(&mut c, 10_000, 1_000);
        c.advance(SimTime::from_secs(2_000));
        assert_eq!(c.approx_bytes(), held);
    }

    #[test]
    fn a_wider_probe_and_a_straggler_keep_every_pairs_legs() {
        let mut c = Collector::new(4, cfg());
        heartbeat(&mut c, &[0, 1, 2], 0);
        // One-leg pairs at t = 1, 2 and 4, their legs received.
        for (id, t) in [(10, 1), (20, 2), (40, 4)] {
            c.on_send(send(id, 0, 0, 1, t));
            c.on_recv(recv(id, 0, t * 1_000_000 + id * 1_000));
        }
        assert_eq!(c.width, 1);
        // A three-leg probe widens the ring; the open pairs keep theirs.
        for leg in 0..3 {
            let mut e = send(50, leg, 0, 1, 5);
            e.route = 7 + leg;
            c.on_send(e);
        }
        c.on_recv(recv(50, 2, 5_050_000));
        assert_eq!(c.width, 3);
        // A straggler from t = 3 lands between 20 and 40 with its legs.
        c.on_send(send(30, 0, 0, 1, 3));
        c.on_send(send(30, 1, 0, 1, 3));
        c.on_recv(recv(30, 1, 3_030_000));
        // A leg no pair sent is malformed, below the width or above it.
        c.on_recv(recv(40, 1, 4_000_000));
        c.on_recv(recv(40, 3, 4_000_000));
        assert_eq!(c.stats().malformed_receives, 2);
        c.advance(SimTime::from_secs(60));
        let outs: Vec<PairOutcome> = c.drain().into_iter().filter(|o| o.id < 1_000).collect();
        assert_eq!(outs.iter().map(|o| o.id).collect::<Vec<_>>(), [10, 20, 30, 40, 50]);
        for o in [&outs[0], &outs[1], &outs[3]] {
            assert_eq!(o.leg_count(), 1);
            assert_eq!(o.leg(0).unwrap().one_way_us, Some(o.id as i64 * 1_000), "pair {}", o.id);
        }
        assert_eq!(outs[2].leg_count(), 2);
        assert!(outs[2].leg(0).unwrap().lost);
        assert_eq!(outs[2].leg(1).unwrap().one_way_us, Some(30_000));
        assert_eq!(outs[4].leg_count(), 3);
        assert!(outs[4].prefix_all_lost(2) && !outs[4].all_lost());
        assert_eq!(outs[4].leg(2).unwrap().route, 9);
        assert_eq!(outs[4].leg(2).unwrap().one_way_us, Some(50_000));
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
