//! Property tests for metric dissemination: delta ingest must converge
//! to the same `LinkStateTable` state as full-snapshot ingest once the
//! stream quiesces, and the delta machinery must repair arbitrary LSA
//! loss through its anti-entropy full refresh.

use netsim::{HostId, Rng, SimDuration, SimTime};
use overlay::dissem::{DisseminationMode, Disseminator};
use overlay::{LinkStateTable, MetricEntry, Packet};
use proptest::prelude::*;

const N: usize = 8;

fn table(me: u16) -> LinkStateTable {
    LinkStateTable::new(
        HostId(me),
        N,
        100,
        0.1,
        5,
        SimDuration::from_secs(90),
        0.01,
        0.05,
    )
}

fn arb_entry() -> impl Strategy<Value = MetricEntry> {
    (1u16..N as u16, 0u16..=10_000, 0u32..5_000_000, any::<bool>()).prop_map(
        |(peer, loss_e4, lat_us, alive)| MetricEntry { peer: HostId(peer), loss_e4, lat_us, alive },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying a sequence of per-destination updates as deltas ends in
    /// exactly the state of one full ingest of the cumulative vector.
    #[test]
    fn delta_ingest_converges_to_full_snapshot_state(
        updates in proptest::collection::vec(arb_entry(), 1..60),
    ) {
        let origin = HostId(1);
        let mut via_delta = table(0);
        let mut via_full = table(0);
        // Timestamps advance inside the staleness horizon so age-out
        // cannot explain away a divergence.
        let mut now = SimTime::from_secs(10);
        let step = SimDuration::from_millis(500);
        let mut cumulative: Vec<Option<MetricEntry>> = vec![None; N];
        for e in &updates {
            now += step;
            via_delta.ingest_delta(origin, std::slice::from_ref(e), now);
            cumulative[e.peer.idx()] = Some(*e);
        }
        let vector: Vec<MetricEntry> = cumulative.iter().flatten().copied().collect();
        via_full.ingest_full(origin, &vector, now);
        for dst in 0..N as u16 {
            prop_assert_eq!(
                via_delta.remote_metric(origin, HostId(dst), now),
                via_full.remote_metric(origin, HostId(dst), now),
                "divergent view toward {}", dst
            );
        }
    }

    /// A receiver that loses an arbitrary subset of delta LSAs (and
    /// whose acks race them arbitrarily) converges to the sender's
    /// advertised state once the anti-entropy full refresh lands.
    #[test]
    fn lossy_delta_stream_is_repaired_by_full_refresh(
        seed in 0u64..1_000_000,
        drops in proptest::collection::vec(any::<bool>(), 40..41),
        acks in proptest::collection::vec(any::<bool>(), 40..41),
    ) {
        let me = HostId(0);
        let peer = HostId(7);
        let max_age = 4u32;
        let mut sender_table = table(0);
        let mut sender =
            Disseminator::new(DisseminationMode::Delta { max_age_probes: max_age }, me, N,
                Rng::new(seed), SimTime::ZERO);
        let mut recv_table = table(7);
        let mut receiver =
            Disseminator::new(DisseminationMode::Delta { max_age_probes: max_age }, peer, N,
                Rng::new(seed ^ 1), SimTime::ZERO);
        let mut drive = Rng::new(seed ^ 2);
        let mut now = SimTime::from_secs(1);
        let mut last_full: Option<Vec<MetricEntry>> = None;
        let deliver = |lsa: Option<Packet>,
                           dropped: bool,
                           receiver: &mut Disseminator,
                           recv_table: &mut LinkStateTable,
                           last_full: &mut Option<Vec<MetricEntry>>,
                           now: SimTime| {
            if let Some(Packet::Lsa { origin, seq, full, entries }) = lsa {
                if !dropped {
                    if full {
                        *last_full = Some(entries.clone());
                    }
                    receiver.on_lsa(origin, seq, full, entries, now, recv_table);
                }
            }
        };
        // Phase 1: the sender's direct paths churn while probes flow,
        // with arbitrary LSA loss and ack delivery.
        for i in 0..drops.len() {
            // Random direct-path activity on a random peer.
            let target = HostId(1 + drive.below((N - 1) as u64) as u16);
            if drive.chance(0.5) {
                sender_table.direct_mut(target).record_loss();
            } else {
                sender_table
                    .direct_mut(target)
                    .record_success(now, SimDuration::from_millis(5 + drive.below(200)));
            }
            let (_, lsa) = sender.on_probe_send(peer, i as u64, &mut sender_table);
            deliver(lsa, drops[i], &mut receiver, &mut recv_table, &mut last_full, now);
            if acks[i] {
                sender.on_ack(i as u64, peer);
            }
            now += SimDuration::from_secs(1);
        }
        // Phase 2: quiescence. Within max_age more probes a full refresh
        // fires; deliver everything from here on.
        for i in 0..max_age as u64 + 1 {
            let (_, lsa) = sender.on_probe_send(peer, 1_000 + i, &mut sender_table);
            deliver(lsa, false, &mut receiver, &mut recv_table, &mut last_full, now);
        }
        // The receiver's view of the sender must now equal the sender's
        // advertised vector (the last full refresh it shipped).
        let advertised = last_full.expect("a full refresh must fire within max_age probes");
        let mut reference = table(7);
        reference.ingest_full(me, &advertised, now);
        for dst in 0..N as u16 {
            prop_assert_eq!(
                recv_table.remote_metric(me, HostId(dst), now),
                reference.remote_metric(me, HostId(dst), now),
                "unrepaired divergence toward {}", dst
            );
        }
    }
}
