//! The event queue's executable contract: for **any** interleaved
//! schedule of pushes and pops — including dense same-instant bursts,
//! events hours and days out, and events scheduled into the past —
//! [`EventQueue`] pops the exact `(time, event)` sequence of
//! [`ReferenceEventQueue`], an ordered binary heap of whole entries.

mod support;

use netsim::{EventQueue, Rng, SimDuration, SimTime};
use proptest::prelude::*;
use support::ReferenceEventQueue;

#[test]
fn reference_queue_matches_on_a_fixed_schedule() {
    let mut a = EventQueue::new();
    let mut b = ReferenceEventQueue::new();
    let times = [5u64, 5, 3, 70_000_000, 3, 0, 5, 120_000_000, 70_000_000, 1];
    for (i, &t) in times.iter().enumerate() {
        a.push(SimTime::from_micros(t), i);
        b.push(SimTime::from_micros(t), i);
    }
    while let Some(x) = b.pop() {
        assert_eq!(a.pop(), Some(x));
    }
    assert_eq!(a.pop(), None);
}

/// One delay of a campaign-shaped schedule, µs: 70% packet flights
/// (5–150 ms), 25% probe-pacing waits (0.6–1.2 s), 4% timers (1–15 s)
/// and 1% long timers (20–60 s, a slow prober's interval).
fn campaign_delay(rng: &mut Rng) -> SimDuration {
    let kind = rng.below(100);
    let (lo, hi) = match kind {
        0..=69 => (5_000, 150_000),
        70..=94 => (600_000, 1_200_000),
        95..=98 => (1_000_000, 15_000_000),
        _ => (20_000_000, 60_000_000),
    };
    SimDuration::from_micros(lo + rng.below(hi - lo))
}

/// The proptests below stop after a few hundred operations. This one
/// runs a simulated hour (over half a million pushes) at a steady
/// occupancy of 200, so nearly every push reuses a freed payload slot —
/// and holds the queue to the memory that implies: what is pending, not
/// a slot for every event the run ever scheduled.
#[test]
fn long_haul_matches_reference_and_retains_only_what_is_pending() {
    const OCCUPANCY: usize = 200;
    let mut cal = EventQueue::new();
    let mut heap = ReferenceEventQueue::new();
    let mut rng = Rng::new(0x10C6_4A01);
    for payload in 0..OCCUPANCY as u64 {
        let at = SimTime::ZERO + campaign_delay(&mut rng);
        cal.push(at, payload);
        heap.push(at, payload);
    }
    let mut payload = OCCUPANCY as u64;
    let mut now = SimTime::ZERO;
    while now < SimTime::from_secs(60 * 60) {
        assert_eq!(cal.peek_time(), heap.peek_time());
        let popped = cal.pop();
        assert_eq!(popped, heap.pop());
        now = popped.expect("occupancy is constant").0;
        let at = now + campaign_delay(&mut rng);
        cal.push(at, payload);
        heap.push(at, payload);
        payload += 1;
        assert_eq!(cal.len(), OCCUPANCY);
    }
    assert!(payload > 500_000, "only {payload} events in an hour");

    // A pending event is a 24-byte key (instant, sequence number, slot)
    // and a payload slot; a free slot is a 4-byte free-list entry.
    let entry = std::mem::size_of::<(SimTime, u64, u32)>() + std::mem::size_of::<Option<u64>>();
    let free_list = OCCUPANCY * std::mem::size_of::<u32>();
    let held = cal.approx_bytes();
    assert!(held >= OCCUPANCY * entry, "approx_bytes {held} misses something");
    // Vec doubling leaves at most twice the occupancy in each buffer;
    // the queue holds ~10 KB here.
    assert!(
        held <= 2 * OCCUPANCY * entry + free_list,
        "queue retains {held} bytes for {OCCUPANCY} pending events"
    );

    while let Some(x) = heap.pop() {
        assert_eq!(cal.pop(), Some(x));
    }
    assert_eq!(cal.pop(), None);
}

/// A queue drained to empty and used again (the per-slice pattern, if a
/// queue is ever reused) keeps working, and keeps its buffers: the
/// second pass allocates nothing.
#[test]
fn drained_queue_refills_from_its_spares() {
    let mut cal = EventQueue::new();
    let mut heap = ReferenceEventQueue::new();
    let mut held = Vec::new();
    for pass in 0..3u64 {
        // 150 events at 50 instants 2^17 µs apart, each pass later than
        // the last.
        for i in 0..150u64 {
            let at = SimTime::from_micros(((pass * 100 + 1 + i % 50) << 17) + i / 50);
            cal.push(at, i);
            heap.push(at, i);
        }
        while let Some(x) = heap.pop() {
            assert_eq!(cal.pop(), Some(x));
        }
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
        held.push(cal.approx_bytes());
    }
    assert_eq!(held[1], held[0], "the second pass found no spare buffers");
    assert_eq!(held[2], held[0]);
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule one event at the given instant (µs).
    Push(u64),
    /// Schedule a dense burst: `count` events at the same instant.
    Burst(u64, u8),
    /// Pop once and compare both queues' results.
    Pop,
}

/// Instants from microseconds to days out, many colliding exactly.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(5_000_000u64), // popular instant: forced same-time collisions
        0u64..10_000,
        0u64..1_000_000,
        0u64..40_000_000,
        0u64..600_000_000,
        0u64..10_000_000_000,
        0u64..1_000_000_000_000,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_time().prop_map(Op::Push),
        (arb_time(), 1u8..20).prop_map(|(t, n)| Op::Burst(t, n)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn calendar_queue_matches_reference_heap(ops in proptest::collection::vec(arb_op(), 1..300)) {
        let mut cal = EventQueue::new();
        let mut heap = ReferenceEventQueue::new();
        let mut payload = 0u64;
        for op in &ops {
            match *op {
                Op::Push(t) => {
                    cal.push(SimTime::from_micros(t), payload);
                    heap.push(SimTime::from_micros(t), payload);
                    payload += 1;
                }
                Op::Burst(t, n) => {
                    for _ in 0..n {
                        cal.push(SimTime::from_micros(t), payload);
                        heap.push(SimTime::from_micros(t), payload);
                        payload += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain both to the end: the full residual sequences must match.
        loop {
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if b.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
    }

    /// A cascade workload shaped like the simulator's: every pop schedules
    /// follow-up events a short delay after the popped instant (packet
    /// arrivals), occasionally at the *same* instant (forwarding chains),
    /// so time only moves forward and same-instant FIFO order is load-bearing.
    #[test]
    fn cascade_workload_matches_reference_heap(
        seeds in proptest::collection::vec((0u64..100_000_000, 0u64..5_000), 1..40),
        budget in 50usize..400,
    ) {
        let mut cal = EventQueue::new();
        let mut heap = ReferenceEventQueue::new();
        let mut payload = 0u64;
        for &(t, _) in &seeds {
            cal.push(SimTime::from_micros(t), payload);
            heap.push(SimTime::from_micros(t), payload);
            payload += 1;
        }
        let mut spawned = 0usize;
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            let Some((now, ev)) = b else { break };
            if spawned < budget {
                // Deterministic pseudo-random fan-out derived from the
                // event itself: 0, 1 or 2 children, delays 0..5000 µs
                // (delay 0 = a same-instant forwarding hop).
                let h = ev.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ now.as_micros();
                for child in 0..(h % 3) {
                    let delay = (h >> (8 * (child + 1))) % 5_000;
                    let at = now + netsim::SimDuration::from_micros(delay);
                    cal.push(at, payload);
                    heap.push(at, payload);
                    payload += 1;
                    spawned += 1;
                }
            }
        }
        prop_assert!(cal.is_empty());
    }
}
