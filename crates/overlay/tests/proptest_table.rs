//! Property tests for the link-state table's two in-place mechanisms,
//! each against a model that shares no code with it:
//!
//! * advertisement ingest (`ingest_full` / `ingest_delta`, one
//!   merge-join underneath, and `adopt_full`, which keeps a well-formed
//!   list as it arrived) against a last-write-wins map, for entry lists
//!   in every order a peer could send them;
//! * the incrementally patched `snapshot()` against the full rebuild a
//!   table performs on its first call.

use netsim::{HostId, SimDuration, SimTime};
use overlay::{LinkStateTable, MetricEntry, RemoteMetric};
use proptest::prelude::*;
use std::collections::BTreeMap;

const N: usize = 12;
const ME: u16 = 3;
const STALENESS: SimDuration = SimDuration::from_secs(90);

fn table() -> LinkStateTable {
    LinkStateTable::new(HostId(ME), N, 100, 0.1, 5, STALENESS, 0.01, 0.05)
}

/// Destinations run past the mesh size: out-of-range entries must be
/// skipped without disturbing their neighbours.
fn arb_entry() -> impl Strategy<Value = MetricEntry> {
    (0u16..N as u16 + 4, 0u16..=10_000, 0u32..5_000_000, any::<bool>()).prop_map(
        |(peer, loss_e4, lat_us, alive)| MetricEntry { peer: HostId(peer), loss_e4, lat_us, alive },
    )
}

/// One advertisement: `(complete, from, order, entries, about, seconds
/// later)`. `from` covers the table's own id and ids outside the mesh
/// (both ignored); `order` picks how the entry list is arranged; `about`
/// adds an entry toward the table's own id (bit 0) and one toward the
/// advertiser's (bit 1), which a table stores like any other.
type Advert = (bool, u16, u8, Vec<MetricEntry>, u8, u64);

fn arb_advert() -> impl Strategy<Value = Advert> {
    (
        any::<bool>(),
        0u16..N as u16 + 2,
        0u8..3,
        proptest::collection::vec(arb_entry(), 0..24),
        0u8..4,
        0u64..60,
    )
}

/// `entries` plus the entries `about` asks for, each drawn like the rest
/// but for its destination.
fn with_self_references(
    mut entries: Vec<MetricEntry>,
    about: u8,
    from: u16,
    lat_us: u32,
) -> Vec<MetricEntry> {
    for (bit, peer) in [(1, ME), (2, from)] {
        if about & bit != 0 {
            entries.push(MetricEntry { peer: HostId(peer), loss_e4: 7, lat_us, alive: true });
        }
    }
    entries
}

/// Arranges a generated list: strictly ascending (what senders emit),
/// ascending with duplicates kept, or as drawn (shuffled, duplicated).
fn arrange(order: u8, mut entries: Vec<MetricEntry>) -> Vec<MetricEntry> {
    if order < 2 {
        entries.sort_by_key(|e| e.peer.0); // stable: later duplicates stay later
    }
    if order == 0 {
        entries.dedup_by_key(|e| e.peer.0);
    }
    entries
}

fn metric(e: &MetricEntry) -> RemoteMetric {
    RemoteMetric { loss: e.loss_e4 as f64 / 10_000.0, lat_us: e.lat_us as f64, alive: e.alive }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ingest_is_last_write_wins_per_entry(
        adverts in proptest::collection::vec(arb_advert(), 1..40),
    ) {
        // `twin` takes every complete advertisement by value.
        let (mut t, mut twin) = (table(), table());
        let mut model: BTreeMap<(u16, u16), (MetricEntry, SimTime)> = BTreeMap::new();
        let mut now = SimTime::from_secs(1_000);
        for (complete, from, order, entries, about, later) in adverts {
            now += SimDuration::from_secs(later);
            let lat_us = 1_000 * later as u32;
            let entries = arrange(order, with_self_references(entries, about, from, lat_us));
            if complete {
                t.ingest_full(HostId(from), &entries, now);
                twin.adopt_full(HostId(from), entries.clone(), now);
            } else {
                t.ingest_delta(HostId(from), &entries, now);
                twin.ingest_delta(HostId(from), &entries, now);
            }
            if from != ME && (from as usize) < N {
                if complete {
                    model.retain(|&(f, _), _| f != from);
                }
                for e in entries.iter().filter(|e| e.peer.idx() < N) {
                    model.insert((from, e.peer.0), (*e, now));
                }
            }
            // The whole view, ids just outside the mesh included, as of now.
            for from in 0..N as u16 + 1 {
                for dst in 0..N as u16 + 1 {
                    let expect = model
                        .get(&(from, dst))
                        .filter(|(_, at)| now.since(*at) <= STALENESS)
                        .map(|(e, _)| metric(e));
                    for (name, table) in [("borrowed", &t), ("owned", &twin)] {
                        prop_assert_eq!(
                            table.remote_metric(HostId(from), HostId(dst), now),
                            expect,
                            "{} view of {} toward {}", name, from, dst
                        );
                    }
                }
            }
        }
        // Every surviving entry carries its own stamp: still served at
        // the staleness horizon, gone one microsecond past it.
        for (&(from, dst), (e, at)) in &model {
            let horizon = *at + STALENESS;
            let past = horizon + SimDuration::from_micros(1);
            for table in [&t, &twin] {
                prop_assert_eq!(table.remote_metric(HostId(from), HostId(dst), horizon), Some(metric(e)));
                prop_assert_eq!(table.remote_metric(HostId(from), HostId(dst), past), None);
            }
        }
    }

    #[test]
    fn patched_snapshot_equals_full_rebuild(
        // `(peer slot, lost, latency ms, repeats, snapshot draw)`;
        // `repeats` runs past the mesh size so one step can overflow
        // the touched-list bound by itself.
        steps in proptest::collection::vec(
            (0u16..N as u16 - 1, any::<bool>(), 1u64..400, 1usize..=2 * N, any::<u8>()),
            1..80,
        ),
        snapshot_every in 1u8..24,
    ) {
        let mut patched = table();
        let mut rebuilt = table();
        let now = SimTime::from_secs(5);
        for (slot, lost, lat_ms, repeats, draw) in steps {
            // The table keeps no path to itself: ids from ME up sit one
            // above their slot.
            let peer = slot + u16::from(slot >= ME);
            for t in [&mut patched, &mut rebuilt] {
                for _ in 0..repeats {
                    let stats = t.direct_mut(HostId(peer));
                    if lost {
                        stats.record_loss();
                    } else {
                        stats.record_success(now, SimDuration::from_millis(lat_ms));
                    }
                }
            }
            if draw % snapshot_every == 0 {
                prop_assert_eq!(patched.snapshot().len(), N - 1);
            }
        }
        // `rebuilt` has never been asked: its first snapshot summarises
        // every slot from scratch.
        prop_assert_eq!(patched.snapshot().to_vec(), rebuilt.snapshot().to_vec());
    }
}
