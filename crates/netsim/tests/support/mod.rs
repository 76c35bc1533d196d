//! Test support: the reference the event queue is held to.

use netsim::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A binary heap of whole entries, kept as the executable
/// specification of the ordering contract: pop order is ascending
/// `(time, seq)`, i.e. time-ordered with FIFO ties.
///
/// `netsim::EventQueue` must stay pop-for-pop identical to this; the
/// property tests beside this module drive both through random
/// schedules and assert exactly that. Keep this implementation boring.
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The instant of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}
