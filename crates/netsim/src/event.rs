//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a **calendar queue** (a bucketed timing wheel) keyed
//! by [`SimTime`] with a sequence number as tie-breaker, so events
//! scheduled for the same instant pop in insertion order. That FIFO
//! guarantee is what makes whole-run determinism possible: a plain
//! priority heap leaves equal-key order unspecified.
//!
//! ## Design
//!
//! Simulation events cluster tightly around "now": packet delays are
//! milliseconds, probe pacing is ~1 s, sweeps are ~10 s. A binary heap
//! pays `O(log n)` per operation and scatters entries across the
//! allocation; the wheel exploits the short scheduling horizon instead:
//!
//! * the timeline is cut into `SLOT_WIDTH_US`-microsecond (131 ms)
//!   windows; `N_SLOTS` (256) consecutive windows form a ring covering
//!   a `HORIZON_US` (~33.5 s) horizon ahead of the cursor;
//! * the **open** window (the one containing "now") is a tiny binary
//!   heap ordered by `(time, seq)` — tens of entries, L1-resident, so
//!   the short packet delays that dominate traffic cost a few hot
//!   compares instead of sifting through one big cold heap;
//! * `push` into a future window appends to its ring bucket in `O(1)`;
//!   a bucket is heapified only once, when the cursor reaches it;
//! * the few events scheduled beyond the horizon (a timer longer than
//!   ~33 s) go to a small overflow heap and migrate into the ring as the
//!   cursor advances.
//!
//! ## What a queue holds
//!
//! The ring's 256 bucket heads (1 KB, allocated once), one pool of entry
//! slots that every ring bucket shares, the open window's heap and the
//! overflow heap. A bucket is a singly linked list threaded through the
//! pool: a push takes the most recently freed slot (still cache-hot)
//! and links it in front of its bucket, and the cursor hands a drained
//! bucket's slots back to the pool's free list. So the pool holds as
//! many slots as were ever pending on the ring at once — a bucket owns
//! no buffer, and no buffer keeps the capacity of the largest bucket it
//! once served — and steady-state pushes allocate nothing. Resident
//! memory follows what is pending, not what was ever scheduled;
//! [`EventQueue::approx_bytes`] reports it.
//!
//! Keys `(time, seq)` are unique and totally ordered, so heap pops are
//! deterministic and the pop sequence is **identical** to an ordered
//! heap's. The pre-calendar heap lives on as test support to prove it:
//! the property tests in `tests/event_queue_equivalence.rs` drive both
//! through random interleaved push/pop schedules, including dense
//! same-instant bursts, and assert equal pop sequences.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one calendar window, in microseconds (~131 ms). Wide enough
/// that typical packet delays land in the *open* window (a hot little
/// heap) rather than scattering cold cache lines across the ring.
const SLOT_WIDTH_US: u64 = 1 << SLOT_BITS;
/// log2 of [`SLOT_WIDTH_US`]; windows are found by shifting, not dividing.
const SLOT_BITS: u32 = 17;
/// Number of windows on the ring (a power of two, so the slot for an
/// instant is a shift and a mask).
const N_SLOTS: usize = 1 << 8;
/// The scheduling horizon the ring covers ahead of the cursor, in
/// microseconds (2^25 µs ≈ 33.5 simulated seconds). Everything the
/// experiment schedules lands inside it — packet delays, pacing waits
/// (≤ 1.2 s), the crash retry (5 s), sweeps (10 s apart) and prober
/// re-arms (≤ 15 s × 1.2); events beyond it wait in the overflow heap
/// and migrate as the cursor advances.
const HORIZON_US: u64 = (N_SLOTS as u64) << SLOT_BITS;
/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total ordering key: earliest instant first, then FIFO.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// A slot of the ring's entry pool: an entry of some bucket, or free,
/// and the next slot of the same list.
struct Slot<E> {
    entry: Option<Entry<E>>,
    next: u32,
}

/// A time-ordered event queue with FIFO semantics for simultaneous
/// events, implemented as a calendar queue (see the module docs).
pub struct EventQueue<E> {
    /// The open window: entries due before `wheel_start + SLOT_WIDTH_US`,
    /// as a min-first heap over the unique `(at, seq)` keys. The global
    /// minimum is always at its top while this is non-empty.
    current: BinaryHeap<Entry<E>>,
    /// The ring of future windows: bucket `i` is the list, starting at
    /// `heads[i]`, of the (unsorted) entries of exactly one window.
    heads: Vec<u32>,
    /// The slots every bucket list and the free list thread through.
    pool: Vec<Slot<E>>,
    /// First free slot of `pool`, most recently freed first.
    free: u32,
    /// Ring index of the open window.
    cursor: usize,
    /// Start instant (µs, window-aligned) of the open window. Monotone.
    wheel_start: u64,
    /// Events scheduled at or beyond the horizon when pushed.
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            heads: vec![NIL; N_SLOTS],
            pool: Vec::new(),
            free: NIL,
            cursor: 0,
            wheel_start: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at instant `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry { at, seq, event });
    }

    /// Files an entry into the open window, a ring bucket, or overflow.
    fn place(&mut self, entry: Entry<E>) {
        // `saturating_sub` folds instants before the open window (events
        // scheduled "in the past", which an ordered heap would simply pop
        // next) into the open window as well.
        let offset = entry.at.as_micros().saturating_sub(self.wheel_start);
        if offset < SLOT_WIDTH_US {
            // Open window: a push onto a heap of a few dozen hot entries.
            self.current.push(entry);
        } else if offset < HORIZON_US {
            let slot = ((entry.at.as_micros() >> SLOT_BITS) as usize) & (N_SLOTS - 1);
            debug_assert_ne!(slot, self.cursor, "ring bucket would alias the open window");
            let next = self.heads[slot];
            self.heads[slot] = if self.free == NIL {
                let i = u32::try_from(self.pool.len()).ok().filter(|&i| i != NIL);
                self.pool.push(Slot { entry: Some(entry), next });
                i.expect("fewer than 2^32 - 1 events on the ring")
            } else {
                let i = self.free;
                let taken = &mut self.pool[i as usize];
                self.free = taken.next;
                *taken = Slot { entry: Some(entry), next };
                i
            };
        } else {
            self.overflow.push(entry);
        }
    }

    /// Refills the open window with the earliest pending window. Called
    /// only when `current` is empty; afterwards `current` is non-empty
    /// iff the queue is.
    fn refill(&mut self) {
        while self.len > 0 {
            // Far-future events whose window has rotated into the ring's
            // horizon migrate out of the overflow heap first, so the ring
            // scan below sees every candidate.
            while let Some(e) = self.overflow.peek() {
                if e.at.as_micros().saturating_sub(self.wheel_start) >= HORIZON_US {
                    break;
                }
                let e = self.overflow.pop().expect("peeked entry");
                self.place(e);
            }
            if !self.current.is_empty() {
                // Migration opened the window at the cursor.
                return;
            }
            // The earliest non-empty ring bucket becomes the open window.
            if let Some(d) = (0..N_SLOTS).find(|d| self.heads[(self.cursor + d) & (N_SLOTS - 1)] != NIL) {
                let slot = (self.cursor + d) & (N_SLOTS - 1);
                let mut i = std::mem::replace(&mut self.heads[slot], NIL);
                // Every entry in a bucket belongs to one window, so any
                // of its entries defines the new window start.
                let first = self.pool[i as usize].entry.as_ref().expect("a bucket links only occupied slots");
                self.wheel_start = (first.at.as_micros() >> SLOT_BITS) << SLOT_BITS;
                self.cursor = slot;
                // `current` is empty: fill its buffer and heapify once.
                let mut window = std::mem::take(&mut self.current).into_vec();
                while i != NIL {
                    let freed = &mut self.pool[i as usize];
                    window.push(freed.entry.take().expect("a bucket links only occupied slots"));
                    let next = std::mem::replace(&mut freed.next, self.free);
                    self.free = i;
                    i = next;
                }
                self.current = BinaryHeap::from(window);
                return;
            }
            // Ring empty: jump the cursor straight to the earliest
            // far-future event's window and let migration land it.
            let t = self.overflow.peek().expect("len > 0 with empty ring and current").at;
            self.wheel_start = (t.as_micros() >> SLOT_BITS) << SLOT_BITS;
            self.cursor = ((t.as_micros() >> SLOT_BITS) as usize) & (N_SLOTS - 1);
        }
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            self.refill();
        }
        self.current.pop().map(|e| {
            self.len -= 1;
            self.popped += 1;
            (e.at, e.event)
        })
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.current.peek() {
            return Some(e.at);
        }
        // Ring buckets each cover one window and windows grow with the
        // scan distance, so the first non-empty bucket holds the ring's
        // minimum. But an overflow entry may undercut it: `refill` only
        // migrates at its top, so once its ring-scan branch advances
        // `wheel_start`, an old overflow entry can sit inside the new
        // horizon while later pushes land in the ring — compare both.
        let ring_min = (0..N_SLOTS)
            .map(|d| self.heads[(self.cursor + d) & (N_SLOTS - 1)])
            .find(|&head| head != NIL)
            .and_then(|head| self.bucket(head).map(|e| e.at).min());
        let overflow_min = self.overflow.peek().map(|e| e.at);
        match (ring_min, overflow_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Total number of events ever dispatched.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// The entries of the bucket list starting at `head`.
    fn bucket(&self, head: u32) -> impl Iterator<Item = &Entry<E>> {
        let mut i = head;
        std::iter::from_fn(move || {
            let slot = self.pool.get(i as usize)?;
            i = slot.next;
            slot.entry.as_ref()
        })
    }

    /// Heap bytes the queue holds right now: the ring's bucket heads,
    /// the entry pool, the open window and the overflow heap.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.heads.capacity() * size_of::<u32>()
            + self.pool.capacity() * size_of::<Slot<E>>()
            + (self.current.capacity() + self.overflow.capacity()) * size_of::<Entry<E>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_flow() {
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        q.push(t0, 1);
        q.push(t0 + SimDuration::from_secs(1), 2);
        q.pop();
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.dispatched(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    /// Far-future events sit in overflow, then migrate as the cursor
    /// advances past a full ring revolution.
    #[test]
    fn far_future_events_survive_the_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3_600), "far"); // >> the ~33 s horizon
        q.push(SimTime::from_millis(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3_600)));
        // After the jump, events pushed near the far instant still order
        // correctly around it.
        q.push(SimTime::from_secs(3_599), "before-far");
        assert_eq!(q.pop().unwrap().1, "before-far");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop(), None);
    }

    /// Once the cursor has advanced, an old overflow entry can sit
    /// *inside* the horizon while a later-timed push lands in the ring;
    /// `peek_time` must still report the true minimum.
    #[test]
    fn peek_sees_overflow_entries_inside_the_advanced_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(400_000), "b");
        // Just beyond the initial 2^25 µs horizon: goes to overflow.
        q.push(SimTime::from_micros(33_554_482), "o");
        assert_eq!(q.pop().unwrap().1, "b"); // advances wheel_start
        // Now inside the horizon as seen from the advanced cursor: ring.
        q.push(SimTime::from_micros(33_800_000), "r");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(33_554_482)));
        assert_eq!(q.pop().unwrap().1, "o");
        assert_eq!(q.pop().unwrap().1, "r");
        assert_eq!(q.pop(), None);
    }

    /// An event scheduled before the open window (the heap would pop it
    /// next) pops next here too.
    #[test]
    fn pushing_into_the_past_pops_immediately() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        q.push(SimTime::from_secs(100), "same-window");
        q.push(SimTime::from_secs(1), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "same-window");
    }

    /// An empty queue holds the ring's bucket heads and nothing else.
    #[test]
    fn an_empty_queue_holds_only_its_ring_headers() {
        let q = EventQueue::<u64>::new();
        assert_eq!(q.approx_bytes(), N_SLOTS * std::mem::size_of::<u32>());
        assert!(q.approx_bytes() <= 1 << 10, "{} bytes of ring heads", q.approx_bytes());
    }

    /// Dense same-instant bursts spread across several windows keep
    /// global (time, FIFO) order.
    #[test]
    fn bursts_across_windows_stay_ordered() {
        let mut q = EventQueue::new();
        let instants: Vec<SimTime> = (0..8)
            .map(|k| SimTime::from_micros(k * 40_000)) // distinct windows
            .collect();
        let mut label = 0u32;
        let mut expect: Vec<(SimTime, u32)> = Vec::new();
        for round in 0..3 {
            for &t in &instants {
                for _ in 0..5 {
                    q.push(t, label);
                    expect.push((t, label));
                    label += 1;
                }
            }
            // Interleave pops mid-stream on later rounds.
            if round > 0 {
                expect.sort_by_key(|&(t, l)| (t, l));
                let (t, l) = expect.remove(0);
                assert_eq!(q.pop(), Some((t, l)));
            }
        }
        expect.sort_by_key(|&(t, l)| (t, l));
        for (t, l) in expect {
            assert_eq!(q.pop(), Some((t, l)));
        }
        assert_eq!(q.pop(), None);
    }
}
