//! The collector's outcome stream, pinned to its bytes.
//!
//! Each digest is an FNV-1a fold of `format!("{:?}")` over everything a
//! [`Collector`] hands out while it is fed one seeded random schedule:
//! every drained [`PairOutcome`] in order, a marker per sweep naming its
//! instant and how many outcomes it drained, and the final
//! [`CollectorStats`]. The schedules mix 1–4-leg probes, several probes
//! sent at one instant (equal-deadline groups), second legs sent later,
//! out-of-order sends from merged logs, duplicate, late, unknown-id and
//! malformed receives, out-of-range send legs, hosts that fall silent past
//! `fail_gap`, sweeps at random instants and the end-of-run `finish`. A
//! change to how the collector stores its open pairs must leave every
//! digest where it is: a moved digest means an outcome, its order, the
//! sweep that resolved it or a counter changed.

use mpath::analysis::Fnv;
use mpath::netsim::{HostId, Rng, SimDuration, SimTime};
use mpath::trace::record::MAX_PROBE_LEGS;
use mpath::trace::{Collector, CollectorConfig, PairOutcome, RecvEvent, SendEvent};

const HOSTS: usize = 6;

/// An open (or recently resolved) probe the schedule can still receive
/// on or add legs to.
#[derive(Clone, Copy)]
struct Sent {
    id: u64,
    src: u16,
    dst: u16,
    method: u8,
    legs: u8,
    sent_local_us: i64,
}

fn schedule_digest(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let cfg = CollectorConfig {
        receive_window: SimDuration::from_secs([2, 10, 60][rng.below(3) as usize]),
        fail_gap: SimDuration::from_secs([15, 90][rng.below(2) as usize]),
    };
    let gap_us = cfg.fail_gap.as_micros();
    let mut c = Collector::new(HOSTS, cfg);
    let mut f = Fnv::new();
    let mut out: Vec<PairOutcome> = Vec::new();
    // Per-host clock offsets (µs) and the instant each silent host
    // resumes sending.
    let skew: Vec<i64> = (0..HOSTS).map(|_| rng.below(2_000_001) as i64 - 1_000_000).collect();
    let mut silent_until = [0u64; HOSTS];
    let mut recent: Vec<Sent> = Vec::new();
    let mut now = 1_000_000u64;
    for _ in 0..3_000 {
        // Mostly small steps; some ops share an instant, a few jump far.
        now += match rng.below(50) {
            0..=14 => 0,
            15..=48 => rng.below(400_000),
            _ => rng.below(3 * gap_us / 2),
        };
        if rng.below(40) == 0 {
            // A host falls silent for up to three fail gaps.
            let h = rng.below(HOSTS as u64) as usize;
            silent_until[h] = now + rng.below(3 * gap_us);
        }
        let live: Vec<u16> = (0..HOSTS as u16).filter(|&h| silent_until[h as usize] <= now).collect();
        match rng.below(100) {
            // A new probe of 1–4 legs, all sent at `now`.
            0..=39 if !live.is_empty() => {
                let src = live[rng.below(live.len() as u64) as usize];
                let dst = (src + 1 + rng.below(HOSTS as u64 - 1) as u16) % HOSTS as u16;
                let legs = 1 + rng.below(MAX_PROBE_LEGS as u64) as u8;
                let p = Sent {
                    id: rng.next_u64(),
                    src,
                    dst,
                    method: rng.below(5) as u8,
                    legs,
                    sent_local_us: now as i64 + skew[src as usize],
                };
                for leg in 0..legs {
                    c.on_send(send(&p, leg, rng.below(4) as u8, now, p.sent_local_us));
                }
                recent.push(p);
            }
            // A leg sent after the others, or the same leg sent again.
            40..=44 if !recent.is_empty() => {
                let p = recent[rng.below(recent.len() as u64) as usize];
                let leg = rng.below(MAX_PROBE_LEGS as u64) as u8;
                c.on_send(send(&p, leg, rng.below(4) as u8, now, now as i64 + skew[p.src as usize]));
            }
            // A straggler from an imperfectly merged log: sent earlier
            // than what the collector has already seen.
            45..=49 if !live.is_empty() => {
                let src = live[rng.below(live.len() as u64) as usize];
                let at = now.saturating_sub(rng.below(2 * cfg.receive_window.as_micros()));
                let p = Sent {
                    id: rng.next_u64(),
                    src,
                    dst: (src + 1) % HOSTS as u16,
                    method: 0,
                    legs: 1,
                    sent_local_us: at as i64 + skew[src as usize],
                };
                c.on_send(send(&p, 0, 0, at, p.sent_local_us));
                recent.push(p);
            }
            // A send whose leg index the wire cannot carry.
            50..=51 if !live.is_empty() => {
                let src = live[rng.below(live.len() as u64) as usize];
                let p = Sent { id: rng.next_u64(), src, dst: 0, method: 0, legs: 1, sent_local_us: 0 };
                let leg = MAX_PROBE_LEGS as u8 + rng.below(3) as u8;
                c.on_send(send(&p, leg, 0, now, now as i64));
            }
            // Receives: usually a leg that was sent (possibly a second
            // time), sometimes one never sent or out of range, and some
            // for pairs already resolved (late).
            52..=89 if !recent.is_empty() => {
                let p = recent[rng.below(recent.len() as u64) as usize];
                let leg = match rng.below(10) {
                    0 => rng.below(MAX_PROBE_LEGS as u64 + 2) as u8,
                    _ => rng.below(p.legs as u64) as u8,
                };
                let delay = rng.below(300_000) as i64;
                c.on_recv(RecvEvent {
                    id: p.id,
                    leg,
                    recv: SimTime::from_micros(now),
                    recv_local_us: p.sent_local_us + delay + skew[p.dst as usize] - skew[p.src as usize],
                });
            }
            // A receive for an id nobody sent.
            90..=91 => c.on_recv(RecvEvent {
                id: rng.next_u64(),
                leg: 0,
                recv: SimTime::from_micros(now),
                recv_local_us: now as i64,
            }),
            // A sweep at this instant.
            92..=99 => {
                let at = SimTime::from_micros(now);
                c.advance(at);
                sweep(&mut c, &mut f, &mut out, at);
            }
            _ => {}
        }
        if recent.len() > 64 {
            recent.remove(rng.below(64) as usize);
        }
    }
    let end = SimTime::from_micros(now + rng.below(cfg.receive_window.as_micros()));
    c.finish(end);
    sweep(&mut c, &mut f, &mut out, end);
    f.write(format!("{:?}", c.stats()).as_bytes());
    f.finish()
}

/// Drains the collector into `out` and folds the sweep into the digest.
fn sweep(c: &mut Collector, f: &mut Fnv, out: &mut Vec<PairOutcome>, at: SimTime) {
    c.drain_into(out);
    f.write(format!("sweep {at:?} {}", out.len()).as_bytes());
    for o in out.iter() {
        f.write(format!("{o:?}").as_bytes());
    }
}

fn send(p: &Sent, leg: u8, route: u8, at: u64, sent_local_us: i64) -> SendEvent {
    SendEvent {
        id: p.id,
        method: p.method,
        leg,
        src: HostId(p.src),
        dst: HostId(p.dst),
        route,
        sent: SimTime::from_micros(at),
        sent_local_us,
    }
}

#[test]
fn collector_outcome_streams_are_pinned() {
    // (seed, digest of the drained stream and the final stats).
    let pinned: &[(u64, u64)] = &[
        (1, 0x8450af93e753ba74),
        (2, 0x88a735aea38628d0),
        (3, 0xfc7c0d3d5ba61f49),
        (4, 0xe94e6afffd752403),
        (5, 0xfb599f811ec87e22),
        (6, 0x5da6a4057b085f8f),
        (7, 0xa75316f1aec78a92),
        (8, 0xf83bf362e18151c8),
    ];
    let got: Vec<(u64, u64)> = pinned.iter().map(|&(seed, _)| (seed, schedule_digest(seed))).collect();
    let hex: Vec<String> = got.iter().map(|(seed, d)| format!("({seed}, {d:#018x})")).collect();
    assert_eq!(got, pinned, "the outcome stream moved; now: {}", hex.join(", "));
}
