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
//! # One executor, one merger
//!
//! Every way of running a campaign is the same three steps: derive the
//! plan, simulate slices in any order on any worker, and hand each
//! `(slice index, output)` to a [`SliceMerger`]. The merger is the only
//! code that folds slice outputs ([`crate::report::merge_outputs`]): it
//! folds a result the moment all of its predecessors are in and parks
//! it until then, so the fold always runs **in ascending slice order** —
//! u64 counters sum exactly, the f64 latency sums always fold in the
//! same order, and the merged report is bit-stable — while the resident
//! set is one accumulator plus whatever arrived early, never every
//! slice output. [`run_sharded`] feeds it from local threads;
//! [`crate::distrib`] feeds it from TCP workers.
//!
//! # The determinism invariant
//!
//! **Results depend on `(seed, duration, slice_width)` and never on
//! [`ExperimentConfig::shards`].** Shards are worker threads claiming
//! slice indices from a shared counter; scheduling decides only *when*
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
use std::sync::{Arc, Mutex};

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
    /// On a zero `slice_width`. The width used to be silently clamped
    /// to 1 µs, turning a default-free config into one slice *per
    /// microsecond of campaign* — validation at the scenario
    /// ([`crate::scenario::ScenarioSpec::validate`]) and job
    /// ([`crate::distrib::CampaignJob::validate`]) layers reports this
    /// readably before any plan is built; the assert is the backstop
    /// for hand-assembled configs.
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

    /// The configuration slice `k` simulates under: the campaign's,
    /// with the slice's own RNG universe and measurement period.
    ///
    /// # Panics
    ///
    /// If `k` is outside the plan.
    pub fn slice_config(&self, campaign: &ExperimentConfig, k: usize) -> ExperimentConfig {
        let s = &self.slices[k];
        let mut cfg = campaign.clone();
        cfg.seed = s.seed;
        cfg.duration = s.duration;
        cfg
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
    /// If `index` was pushed before (sources deduplicate: the local
    /// executor claims each index once, the coordinator keeps the first
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
    /// [`SliceMerger::peak_parked`] of the run's merge.
    pub peak_parked: usize,
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
    execute(&plan, workers, |s| run_slice(topo.clone(), plan.slice_config(&cfg, s.index), s.start))
}

/// What the workers of one [`execute`] share.
struct Exec {
    /// Next unclaimed slice index.
    next: usize,
    merger: SliceMerger,
    diag: CampaignDiag,
}

/// The one slice executor: `workers` claim slice indices in order, `run`
/// each, and feed the merger.
fn execute<R>(plan: &SlicePlan, workers: usize, run: R) -> (ExperimentOutput, CampaignDiag)
where
    R: Fn(&Slice) -> (ExperimentOutput, u64) + Sync,
{
    const POISONED: &str = "another slice worker panicked";
    let shared = Mutex::new(Exec {
        next: 0,
        merger: SliceMerger::default(),
        diag: CampaignDiag::default(),
    });
    let work = || loop {
        let slice = {
            let mut st = shared.lock().expect(POISONED);
            let Some(slice) = plan.slices().get(st.next) else { break };
            st.next += 1;
            slice
        };
        let (out, table_bytes) = run(slice);
        let mut st = shared.lock().expect(POISONED);
        st.diag.peak_table_bytes = st.diag.peak_table_bytes.max(table_bytes);
        st.merger.push(slice.index, out);
    };
    if workers > 1 {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    } else {
        work();
    }
    let mut st = shared.into_inner().expect(POISONED);
    st.diag.peak_parked = st.merger.peak_parked();
    (st.merger.finish(plan.len()), st.diag)
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
        let mut c = cfg(8, 1);
        c.shards = 1;
        let (_, diag) = run_sharded(Topology::synthetic(4, 0.02, 5), c);
        assert_eq!(diag.peak_parked, 1, "each slice folds the moment it lands");
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
        let (out, diag) = execute(&plan, 2, |s| {
            let done = run_slice(topo.clone(), plan.slice_config(&c, s.index), s.start);
            lockstep.wait();
            done
        });
        assert!(diag.peak_parked <= 2, "parked {} results on 2 workers", diag.peak_parked);
        let (seq, _) = run_sharded(Topology::synthetic(4, 0.02, 5), c);
        assert_eq!(out.fingerprint(), seq.fingerprint());
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
