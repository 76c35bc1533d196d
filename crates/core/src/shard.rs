//! Deterministic sharded execution of the measurement campaign.
//!
//! The paper's headline tables replay *weeks* of probe traffic —
//! millions of (src, dst) probe pairs that a single thread simulates
//! sequentially. This module splits that workload so it can run on many
//! cores **without changing a single output bit**.
//!
//! # The slice plan
//!
//! A campaign of duration `D` with slice width `W`
//! ([`ExperimentConfig::slice_width`]) is partitioned into
//! `M = ceil(D / W)` consecutive **slices**. Slice `k` covers the
//! absolute interval `[k·W, min((k+1)·W, D))` and is simulated as a
//! fully independent sub-experiment:
//!
//! * its own RNG universe, seeded with
//!   `Rng::new(seed).stream_seed(k)` (the splittable-stream API of
//!   [`netsim::rng`]) so no slice can replay the master stream or a
//!   sibling;
//! * its own [`netsim::EventQueue`], [`netsim::Network`] segment state,
//!   overlay nodes and [`trace::Collector`];
//! * the *true* campaign clock: events run at the slice's absolute time
//!   offset, so the diurnal load profile, host clock skews and the
//!   window accumulators all see the real timeline. The underlay's
//!   lazily initialised loss and outage chains start from their
//!   stationary distribution at first observation, so for them an
//!   offset start costs nothing. The overlay does start cold: `Runner`
//!   builds every node with empty link-state tables, and a path with no
//!   samples estimates 50% loss ([`overlay::PathStats::loss_estimate`]),
//!   so the reactive methods route on a partial table for the first
//!   probe cycles of every slice. How much that moves the reactive rows
//!   at narrow slice widths is ROADMAP item 5(b).
//!
//! # One lease book, one merger
//!
//! Every way of running a campaign is the same three steps: derive the
//! plan, lease slices to workers in any order, and hand each
//! `(slice index, output)` to a [`SliceMerger`], the only code that
//! folds slice outputs ([`crate::report::merge_outputs`]). It folds a
//! result the moment all of its predecessors are in and parks it until
//! then, so the fold always runs **in ascending slice order** and the
//! merged report is bit-stable. One lease book, with no clock and no
//! I/O, schedules every slice and owns the merger. It leases slice `k`
//! only inside the *merge window*: fewer than twice the most leases ever
//! outstanding at once past the oldest unmerged slice. So a slice that
//! stalls but stays alive holds back that many parked results at most,
//! never a plan's worth. [`run_sharded`] drives the book from local
//! threads whose leases never expire; [`crate::distrib`] from TCP workers.
//!
//! # The determinism invariant
//!
//! **Results depend on `(seed, duration, slice_width)` and never on
//! [`ExperimentConfig::shards`].** Shards are worker threads leasing
//! slice indices from the one lease book; scheduling decides only *when*
//! a slice's output reaches the merger, never where it folds, so thread
//! scheduling is invisible. `shards = 8` on a laptop, `shards = 1` in
//! CI and `shards = 96` on a build server all produce byte-identical
//! reports — `tests/sharding_equivalence.rs` and a property test
//! enforce this for every dataset configuration.
//!
//! A campaign no longer than one slice (`M = 1` — every unit test and
//! any classic short run) is executed exactly as the historical
//! sequential runner with the master seed itself, so pre-sharding
//! results are preserved bit for bit.

use crate::experiment::{run_slice, ExperimentConfig, ExperimentOutput};
use crate::report;
use netsim::{Rng, SimDuration, SimTime, Topology};
use std::collections::BTreeMap;
use std::ops::Add;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One independently simulated slice of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Position in the campaign (and in the merge order).
    pub index: usize,
    /// Absolute start of the slice's measurement period.
    pub start: SimTime,
    /// Length of the slice's measurement period.
    pub duration: SimDuration,
    /// The slice's RNG-universe seed.
    pub seed: u64,
}

/// The deterministic decomposition of one campaign into slices.
///
/// The plan is a pure function of the experiment configuration — it
/// does not know how many worker threads will execute it.
#[derive(Debug, Clone)]
pub struct SlicePlan {
    slices: Vec<Slice>,
}

impl SlicePlan {
    /// Computes the slice plan for `cfg`.
    ///
    /// # Panics
    ///
    /// On a zero `slice_width`, which would make one slice per
    /// microsecond. [`crate::scenario::ScenarioSpec::validate`] and
    /// [`crate::distrib::CampaignJob::validate`] refuse it readably
    /// first; the assert is the backstop for hand-assembled configs.
    pub fn new(cfg: &ExperimentConfig) -> SlicePlan {
        assert!(
            cfg.slice_width.as_micros() > 0,
            "slice_width must be positive (a zero width would make one slice per microsecond)"
        );
        let width = cfg.slice_width.as_micros();
        let total = cfg.duration.as_micros();
        let m = total.div_ceil(width).max(1);
        if m == 1 {
            // Classic sequential run: master seed, epoch start. Keeping
            // the master seed here preserves historical results bit for
            // bit for every short (single-slice) experiment.
            return SlicePlan {
                slices: vec![Slice {
                    index: 0,
                    start: SimTime::ZERO,
                    duration: cfg.duration,
                    seed: cfg.seed,
                }],
            };
        }
        let master = Rng::new(cfg.seed);
        let slices = (0..m)
            .map(|k| {
                let start_us = k * width;
                Slice {
                    index: k as usize,
                    start: SimTime::from_micros(start_us),
                    duration: SimDuration::from_micros((total - start_us).min(width)),
                    seed: master.stream_seed(k),
                }
            })
            .collect();
        SlicePlan { slices }
    }

    /// The slices, in campaign (= merge) order.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Simulates slice `k` of `campaign`, with the slice's own RNG
    /// universe and period from its absolute start: how every executor
    /// runs a slice. Panics if `k` is outside the plan.
    pub(crate) fn run(
        &self,
        topo: Arc<Topology>,
        campaign: &ExperimentConfig,
        k: usize,
    ) -> (ExperimentOutput, u64) {
        let s = &self.slices[k];
        let mut cfg = campaign.clone();
        cfg.seed = s.seed;
        cfg.duration = s.duration;
        run_slice(topo, cfg, s.start)
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Plans are never empty.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// The effective worker-thread count for `cfg`: an explicit
/// [`ExperimentConfig::shards`], else the `MPATH_SHARDS` environment
/// variable (the CI toggle), else 1.
fn resolve_shards(cfg: &ExperimentConfig) -> usize {
    if cfg.shards > 0 {
        return cfg.shards;
    }
    std::env::var("MPATH_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(1)
}

/// The in-order streaming fold of slice outputs — the only merge.
///
/// Accepts `(slice index, output)` in any order. A result whose
/// predecessors have all been folded is folded at once (and so is every
/// parked successor it unblocks); any other is parked until they have.
/// Because [`report::merge_outputs`] is a strict left fold into its
/// first element, folding pairwise as results arrive is bit-identical
/// to one big fold over the whole plan at the end.
#[derive(Default)]
pub struct SliceMerger {
    /// Slices `[0, next)` folded in slice order.
    merged: Option<ExperimentOutput>,
    next: usize,
    /// Early results waiting for a predecessor.
    parked: BTreeMap<usize, ExperimentOutput>,
    peak_parked: usize,
}

impl SliceMerger {
    /// Hands slice `index`'s output to the fold.
    ///
    /// # Panics
    ///
    /// If `index` was pushed before (the lease book keeps the first
    /// copy per slice), or if the output's shape disagrees with its
    /// predecessors' (see [`report::merge_outputs`]).
    pub fn push(&mut self, index: usize, output: ExperimentOutput) {
        assert!(
            index >= self.next && self.parked.insert(index, output).is_none(),
            "slice {index} pushed twice"
        );
        self.peak_parked = self.peak_parked.max(self.parked.len());
        while let Some(next) = self.parked.remove(&self.next) {
            self.merged = Some(match self.merged.take() {
                None => next,
                Some(acc) => report::merge_outputs(vec![acc, next]),
            });
            self.next += 1;
        }
    }

    /// High-water mark of results held at once, counting each arrival
    /// before it folds: purely in-order arrival peaks at 1.
    pub fn peak_parked(&self) -> usize {
        self.peak_parked
    }

    /// The merged output of a `slices`-slice plan.
    ///
    /// # Panics
    ///
    /// Unless exactly the slices `0..slices` were pushed.
    pub fn finish(self, slices: usize) -> ExperimentOutput {
        assert!(
            self.next == slices && self.parked.is_empty(),
            "merged {} of {slices} slices with {} parked",
            self.next,
            self.parked.len()
        );
        self.merged.expect("a plan has at least one slice")
    }
}

/// Out-of-band diagnostics from a campaign run. Nothing here crosses
/// the wire or feeds a fingerprint — the struct exists so the scaling
/// harness can *measure* memory claims instead of asserting them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignDiag {
    /// Largest per-slice sum (over all nodes) of
    /// [`overlay::table::LinkStateTable::approx_bytes`], sampled at each
    /// slice's end.
    pub peak_table_bytes: u64,
}

/// What [`LeaseBook::grant`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grant<T> {
    /// Simulate this slice.
    Lease(usize),
    /// Ask again after a completion, or at this nearest lease deadline.
    Wait(T),
    /// Every slice has its output.
    Done,
}

enum Slot<T> {
    Open,
    Leased { holder: u64, deadline: T },
    /// With the winning copy's fingerprint, if its source took one.
    Done(Option<u64>),
}

/// The one slice scheduler, sans I/O: which holder leases which slice
/// until when, and the in-order merge of what came back. `T` is the
/// caller's clock; the book never reads one, every call is given `now`.
pub(crate) struct LeaseBook<T> {
    slots: Vec<Slot<T>>,
    /// How long a grant or a renewal keeps a lease live.
    ttl: Duration,
    merger: SliceMerger,
    leased: usize,
    peak_leased: usize,
    /// Expired leases granted again.
    pub(crate) releases: u64,
    /// Later copies of completed slices, counted and dropped.
    pub(crate) duplicates: u64,
}

impl<T: Copy + Ord + Add<Duration, Output = T>> LeaseBook<T> {
    pub(crate) fn new(slices: usize, ttl: Duration) -> Self {
        let slots = (0..slices).map(|_| Slot::Open).collect();
        let merger = SliceMerger::default();
        LeaseBook { slots, ttl, merger, leased: 0, peak_leased: 0, releases: 0, duplicates: 0 }
    }

    /// Leases `holder` the first open slice of the merge window, else
    /// the window's most overdue expired lease. A full window answers
    /// `Wait`, never a second lease on a live slice.
    pub(crate) fn grant(&mut self, holder: u64, now: T) -> Grant<T> {
        let next = self.merger.next;
        if self.is_done() {
            return Grant::Done;
        }
        // The merge window: twice the most leases ever outstanding at
        // once, this grant's included. It never shrinks: every lease is in.
        let window = next..self.slots.len().min(next + 2 * self.peak_leased.max(self.leased + 1));
        // Open slices first (`None` sorts low), then the oldest deadline.
        let pick = window.clone().filter_map(|k| match self.slots[k] {
            Slot::Open => Some((None, k)),
            Slot::Leased { deadline, .. } if deadline <= now => Some((Some(deadline), k)),
            _ => None,
        });
        let Some((expired, k)) = pick.min() else {
            let live = window.filter_map(|k| match self.slots[k] {
                Slot::Leased { deadline, .. } => Some(deadline),
                _ => None,
            });
            return Grant::Wait(live.min().expect("the oldest unmerged slice is leased"));
        };
        if expired.is_some() {
            self.releases += 1;
        } else {
            self.leased += 1;
            self.peak_leased = self.peak_leased.max(self.leased);
        }
        self.slots[k] = Slot::Leased { holder, deadline: now + self.ttl };
        Grant::Lease(k)
    }

    /// Extends slice `k`'s lease if `holder` still holds it; a stale
    /// renewal (the slice was re-leased or completed) is ignored.
    pub(crate) fn renew(&mut self, holder: u64, k: usize, now: T) {
        if let Some(Slot::Leased { holder: h, deadline }) = self.slots.get_mut(k) {
            if *h == holder {
                *deadline = now + self.ttl;
            }
        }
    }

    /// Expires every lease `holder` holds, so the next grant re-leases
    /// them without waiting out their deadlines.
    pub(crate) fn release(&mut self, holder: u64, now: T) {
        for slot in &mut self.slots {
            if let Slot::Leased { holder: h, deadline } = slot {
                if *h == holder {
                    *deadline = now;
                }
            }
        }
    }

    /// Hands slice `k`'s output to the merge, leased or not. The first
    /// copy wins; a later one is counted and dropped, unless both carry
    /// a `fingerprint` and they disagree: slices are pure functions of
    /// the job, so that copy came from a nondeterministic source.
    pub(crate) fn complete(
        &mut self,
        k: usize,
        output: ExperimentOutput,
        fingerprint: Option<u64>,
    ) -> Result<(), String> {
        match (self.slots.get(k), fingerprint) {
            (None, _) => return Err(format!("result for slice {k} outside the plan")),
            (Some(&Slot::Done(Some(first))), Some(fp)) if fp != first => {
                return Err(format!(
                    "duplicate result for slice {k} fingerprints {fp:#018x}, \
                     first copy was {first:#018x}: worker is nondeterministic"
                ));
            }
            (Some(Slot::Done(_)), _) => self.duplicates += 1,
            (Some(slot), _) => {
                self.leased -= usize::from(matches!(slot, Slot::Leased { .. }));
                self.slots[k] = Slot::Done(fingerprint);
                self.merger.push(k, output);
            }
        }
        Ok(())
    }

    pub(crate) fn is_done(&self) -> bool {
        self.merger.next == self.slots.len()
    }

    /// [`SliceMerger::peak_parked`] of the merge: at most the window.
    pub(crate) fn peak_parked(&self) -> usize {
        self.merger.peak_parked()
    }

    /// The merged output of the plan; panics unless every slice is in.
    pub(crate) fn finish(self) -> ExperimentOutput {
        self.merger.finish(self.slots.len())
    }
}

/// Executes the campaign's slice plan on up to `shards` worker threads,
/// merging the per-slice outputs in slice order as they finish.
///
/// This is the engine behind [`crate::run_experiment`]; the output is
/// byte-identical for every shard count.
pub fn run_sharded(topo: Topology, cfg: ExperimentConfig) -> (ExperimentOutput, CampaignDiag) {
    let plan = SlicePlan::new(&cfg);
    let workers = resolve_shards(&cfg).min(plan.len());
    let topo = Arc::new(topo);
    let (book, diag) = execute(plan.len(), workers, |k| plan.run(topo.clone(), &cfg, k));
    (book.finish(), diag)
}

/// The local executor: `workers` threads lease slices from one
/// [`LeaseBook`] whose leases never expire, `run` each, and complete it.
/// A thread the merge window holds back sleeps until a slice lands.
fn execute<R>(slices: usize, workers: usize, run: R) -> (LeaseBook<Duration>, CampaignDiag)
where
    R: Fn(usize) -> (ExperimentOutput, u64) + Sync,
{
    const POISONED: &str = "another slice worker panicked";
    let shared = Mutex::new((LeaseBook::new(slices, Duration::MAX), CampaignDiag::default()));
    let landed = Condvar::new();
    let work = |holder: u64| {
        let mut st = shared.lock().expect(POISONED);
        loop {
            let k = match st.0.grant(holder, Duration::ZERO) {
                Grant::Lease(k) => k,
                Grant::Wait(_) => {
                    st = landed.wait(st).expect(POISONED);
                    continue;
                }
                Grant::Done => return,
            };
            drop(st);
            let (out, table_bytes) = match catch_unwind(AssertUnwindSafe(|| run(k))) {
                Ok(done) => done,
                Err(panic) => {
                    // Unwinding with the lock held poisons it, so a thread
                    // waiting on this slice wakes and panics too.
                    let _poison = shared.lock();
                    landed.notify_all();
                    resume_unwind(panic)
                }
            };
            st = shared.lock().expect(POISONED);
            st.1.peak_table_bytes = st.1.peak_table_bytes.max(table_bytes);
            st.0.complete(k, out, None).expect("a local slice completes once");
            landed.notify_all();
        }
    };
    // The calling thread is worker 0.
    std::thread::scope(|scope| {
        for holder in 1..workers as u64 {
            let work = &work;
            scope.spawn(move || work(holder));
        }
        work(0);
    });
    shared.into_inner().expect(POISONED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodSet;
    use netsim::Topology;

    fn cfg(mins: u64, width_mins: u64) -> ExperimentConfig {
        let mut c = ExperimentConfig::new(MethodSet::ron_narrow());
        c.duration = SimDuration::from_mins(mins);
        c.slice_width = SimDuration::from_mins(width_mins);
        c.seed = 5;
        c.flat_load = true;
        c
    }

    #[test]
    fn single_slice_plan_keeps_master_seed() {
        let p = SlicePlan::new(&cfg(10, 60));
        assert_eq!(p.len(), 1);
        assert_eq!(p.slices()[0].seed, 5);
        assert_eq!(p.slices()[0].start, SimTime::ZERO);
        assert!(!p.is_empty());
    }

    #[test]
    fn multi_slice_plan_partitions_exactly() {
        let p = SlicePlan::new(&cfg(50, 20));
        assert_eq!(p.len(), 3);
        let s = p.slices();
        assert_eq!(s[0].start, SimTime::ZERO);
        assert_eq!(s[1].start, SimTime::from_secs(20 * 60));
        assert_eq!(s[2].start, SimTime::from_secs(40 * 60));
        assert_eq!(s[2].duration, SimDuration::from_mins(10), "tail slice is short");
        let total: u64 = s.iter().map(|x| x.duration.as_micros()).sum();
        assert_eq!(total, SimDuration::from_mins(50).as_micros());
        // Derived seeds: none equals the master, all distinct.
        assert!(s.iter().all(|x| x.seed != 5));
        assert_ne!(s[0].seed, s[1].seed);
        assert_ne!(s[1].seed, s[2].seed);
    }

    #[test]
    #[should_panic(expected = "slice_width must be positive")]
    fn zero_slice_width_panics_instead_of_a_slice_per_microsecond() {
        // Regression: a zero width used to be silently clamped to 1 µs,
        // exploding the plan into one slice per microsecond of campaign.
        let mut c = cfg(10, 1);
        c.slice_width = SimDuration::from_micros(0);
        let _ = SlicePlan::new(&c);
    }

    #[test]
    fn plan_is_independent_of_shards() {
        let mut a = cfg(50, 20);
        a.shards = 1;
        let mut b = cfg(50, 20);
        b.shards = 7;
        assert_eq!(SlicePlan::new(&a).slices(), SlicePlan::new(&b).slices());
    }

    #[test]
    fn explicit_shards_beat_env() {
        let mut c = cfg(10, 60);
        c.shards = 3;
        assert_eq!(resolve_shards(&c), 3);
    }

    #[test]
    fn sharded_output_matches_sequential_bit_for_bit() {
        let run = |shards: usize| {
            let topo = Topology::synthetic(4, 0.02, 5);
            let mut c = cfg(8, 2); // 4 slices
            c.shards = shards;
            run_sharded(topo, c).0
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.fingerprint(), par.fingerprint());
        assert!(seq.measure_legs > 0, "the sliced run must move traffic");
    }

    #[test]
    fn one_worker_feeds_the_merger_in_order() {
        let c = cfg(8, 1);
        let plan = SlicePlan::new(&c);
        let topo = Arc::new(Topology::synthetic(4, 0.02, 5));
        let (book, diag) = execute(plan.len(), 1, |k| plan.run(topo.clone(), &c, k));
        assert_eq!(book.peak_parked(), 1, "each slice folds the moment it lands");
        assert!(diag.peak_table_bytes > 0);
    }

    #[test]
    fn two_workers_never_park_more_than_the_worker_count() {
        // Forced interleaving, not luck: a barrier at the end of every
        // slice makes the two workers finish in lockstep, so neither can
        // lap the other. Each round then pushes one adjacent pair of
        // slices in either order — at most two results parked — and the
        // outputs of a whole campaign never pile up until its end.
        let c = cfg(8, 1);
        let plan = SlicePlan::new(&c);
        assert_eq!(plan.len(), 8);
        let lockstep = std::sync::Barrier::new(2);
        let topo = Arc::new(Topology::synthetic(4, 0.02, 5));
        let (book, _) = execute(plan.len(), 2, |k| {
            let done = plan.run(topo.clone(), &c, k);
            lockstep.wait();
            done
        });
        let parked = book.peak_parked();
        assert!(parked <= 2, "parked {parked} results on 2 workers");
        let (seq, _) = run_sharded(Topology::synthetic(4, 0.02, 5), c);
        assert_eq!(book.finish().fingerprint(), seq.fingerprint());
    }

    #[test]
    fn a_stalled_slice_holds_two_workers_to_the_merge_window() {
        // Slice 0 stalls, alive, until the other worker has run every
        // other slice or gone quiet. Two leases at once make a window of
        // four, so the other worker runs slices 1–3 and then waits: three
        // results parked, not seven, and the same bits as one thread.
        let c = cfg(8, 1);
        let plan = SlicePlan::new(&c);
        let topo = Arc::new(Topology::synthetic(4, 0.02, 5));
        let (ran, others) = std::sync::mpsc::channel();
        let others = Mutex::new(others);
        let during_stall = Mutex::new(0);
        let (book, _) = execute(plan.len(), 2, |k| {
            if k == 0 {
                let others = others.lock().unwrap();
                let quiet = Duration::from_millis(300);
                let seen = (1..plan.len()).take_while(|_| others.recv_timeout(quiet).is_ok());
                *during_stall.lock().unwrap() = seen.count();
            }
            let done = plan.run(topo.clone(), &c, k);
            ran.send(k).unwrap();
            done
        });
        let during_stall = *during_stall.lock().unwrap();
        assert!(during_stall <= 3, "{during_stall} slices ran past a window of 4");
        let parked = book.peak_parked();
        assert!(parked <= 4, "parked {parked} results behind a window of 4");
        let (seq, _) = run_sharded(Topology::synthetic(4, 0.02, 5), c);
        assert_eq!(book.finish().fingerprint(), seq.fingerprint());
    }

    #[test]
    fn a_panicking_slice_ends_the_run_instead_of_stranding_the_other_worker() {
        // Slice 0 panics once the other worker has filled the window
        // behind it and is waiting for it to land: the panic must wake
        // that worker and end the run, not leave it waiting.
        let c = cfg(8, 1);
        let plan = SlicePlan::new(&c);
        let topo = Arc::new(Topology::synthetic(4, 0.02, 5));
        let (ran, others) = std::sync::mpsc::channel();
        let others = Mutex::new(others);
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute(plan.len(), 2, |k| {
                if k == 0 {
                    let others = others.lock().unwrap();
                    for _ in 1..4 {
                        others.recv().unwrap();
                    }
                    panic!("slice 0 panicked on purpose");
                }
                let done = plan.run(topo.clone(), &c, k);
                ran.send(k).unwrap();
                done
            })
        }));
        assert!(run.is_err(), "the panic must end the run");
    }

    /// A small real output to complete book slots with: the merge folds
    /// any outputs of one shape.
    fn tiny() -> ExperimentOutput {
        run_sharded(Topology::synthetic(4, 0.02, 5), cfg(1, 1)).0
    }

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A book on a synthetic clock with 100 ms leases.
    fn new_book(slices: usize) -> LeaseBook<Duration> {
        LeaseBook::new(slices, ms(100))
    }

    #[test]
    fn grant_walks_plan_then_backs_off_then_relieves_expired() {
        let mut book = new_book(3);
        let t0 = ms(5_000);
        assert_eq!(book.grant(1, t0), Grant::Lease(0));
        assert_eq!(book.grant(2, t0), Grant::Lease(1));
        assert_eq!(book.grant(2, t0), Grant::Lease(2));
        // Plan exhausted, all leases live: back off until the nearest
        // deadline.
        assert_eq!(book.grant(3, t0), Grant::Wait(t0 + ms(100)));
        // Renewals keep holder 2's leases alive past the timeout (a
        // stale one from holder 1 changes nothing); holder 1 went
        // silent, so slice 0 is the one re-issued.
        let later = t0 + ms(150);
        book.renew(2, 1, later);
        book.renew(2, 2, later);
        book.renew(1, 2, t0 + ms(400));
        assert_eq!(book.grant(3, later), Grant::Lease(0));
        assert_eq!(book.releases, 1);
        assert_eq!(book.grant(4, later), Grant::Wait(later + ms(100)));
        // A holder's release expires its leases with no wait at all,
        // most overdue first.
        book.release(2, later);
        assert_eq!(book.grant(3, later), Grant::Lease(1));
        assert_eq!(book.grant(3, later), Grant::Lease(2));
        assert_eq!(book.releases, 3);
    }

    #[test]
    fn complete_keeps_the_first_copy_and_counts_the_rest() {
        let mut book = new_book(2);
        assert_eq!(book.grant(1, ms(0)), Grant::Lease(0));
        book.complete(0, tiny(), Some(7)).unwrap();
        book.complete(0, tiny(), Some(7)).unwrap();
        assert_eq!(book.duplicates, 1);
        assert!(!book.is_done());
        let err = book.complete(7, tiny(), Some(7)).unwrap_err();
        assert!(err.contains("slice 7 outside the plan"), "got: {err}");
        let err = book.complete(0, tiny(), Some(8)).unwrap_err();
        assert!(err.contains("nondeterministic"), "got: {err}");
        assert_eq!(book.duplicates, 1, "a refused copy is not counted");
        // A slice nobody leased is accepted all the same.
        book.complete(1, tiny(), Some(9)).unwrap();
        assert!(book.is_done());
        assert_eq!(book.grant(1, ms(0)), Grant::Done);
        // Without fingerprints there is nothing to hold a copy to.
        let mut book = new_book(1);
        book.complete(0, tiny(), None).unwrap();
        book.complete(0, tiny(), Some(8)).unwrap();
        assert_eq!(book.duplicates, 1);
        book.finish();
    }

    #[test]
    fn a_full_window_waits_on_a_live_laggard_and_re_leases_an_expired_one() {
        let mut book = new_book(10);
        let t0 = ms(0);
        assert_eq!(book.grant(1, t0), Grant::Lease(0));
        // Two leases at once make the window four slices wide.
        for k in 1..4 {
            assert_eq!(book.grant(2, t0), Grant::Lease(k));
            book.complete(k, tiny(), None).unwrap();
        }
        assert_eq!(book.grant(2, t0), Grant::Wait(t0 + ms(100)));
        book.renew(1, 0, t0 + ms(90));
        assert_eq!(book.grant(2, t0 + ms(150)), Grant::Wait(t0 + ms(190)));
        assert_eq!(book.peak_parked(), 3);
        assert_eq!(book.releases, 0);
        // Past its deadline the laggard is leased again, once.
        assert_eq!(book.grant(2, t0 + ms(200)), Grant::Lease(0));
        assert_eq!(book.grant(3, t0 + ms(200)), Grant::Wait(t0 + ms(300)));
        assert_eq!(book.releases, 1);
        // Its landing slides the window past the parked three.
        book.complete(0, tiny(), None).unwrap();
        assert_eq!(book.peak_parked(), 4, "each arrival counts before it folds");
        assert_eq!(book.grant(3, t0 + ms(200)), Grant::Lease(4));
    }

    #[test]
    #[should_panic(expected = "slice 1 pushed twice")]
    fn merger_refuses_a_second_copy_of_a_slice() {
        let slice = || run_sharded(Topology::synthetic(4, 0.02, 5), cfg(1, 1)).0;
        let mut m = SliceMerger::default();
        m.push(1, slice());
        m.push(1, slice());
    }
}
