//! Output verification: every repetition is checked, and a repetition
//! that fails any check counts in `failed_share` (and in the exit code).

use crate::workloads::{Exec, RunOutput, Workload, SLICES};

/// The seed the pinned fingerprints were recorded at.
pub const PINNED_SEED: u64 = 1;

/// Fingerprints of the four clique workloads at [`PINNED_SEED`], full
/// scale, recorded at the commit that added the benchmark. ROADMAP holds
/// clique goldens byte-identical through every open item, so these must
/// never move. The two mesh workloads are deliberately *not* pinned:
/// ROADMAP item 4 re-rolls sparse scenarios once — their fingerprints
/// and work counters are printed instead, so a re-roll is visible.
const PINNED: &str = include_str!("pinned.json");

/// The pinned fingerprint of `workload`, if it has one.
pub fn pinned(workload: &str) -> Option<u64> {
    let v = serde_json::parse(PINNED).expect("pinned.json is valid JSON");
    let hex: String = serde::Deserialize::from_value(
        v.field("fingerprints").expect("pinned.json has `fingerprints`").field(workload).ok()?,
    )
    .expect("pinned fingerprints are strings");
    Some(u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("pinned fingerprint is hex"))
}

/// Renders a fingerprint the way `repro` prints it.
pub fn hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Accumulates the verdicts for one workload.
pub struct Checker {
    workload: &'static str,
    exec: Exec,
    /// Fingerprint every repetition must reproduce.
    expected: Option<(u64, &'static str)>,
    /// Repetitions observed.
    pub attempted: u64,
    /// Repetitions that failed at least one check.
    pub failed: u64,
    /// Human-readable reasons, one per failed check.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `w` at `seed`; the pinned fingerprint applies only
    /// at the pinned seed and full scale.
    pub fn new(w: &Workload, seed: u64, scale: u64) -> Checker {
        let expected = (seed == PINNED_SEED && scale == 1)
            .then(|| pinned(w.name))
            .flatten()
            .map(|fp| (fp, "the fingerprint pinned in pinned.json"));
        Checker {
            workload: w.name,
            exec: w.exec,
            expected,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// The fingerprint all repetitions so far agree on.
    pub fn fingerprint(&self) -> Option<u64> {
        self.expected.map(|(fp, _)| fp)
    }

    /// Checks one repetition; returns whether it passed.
    pub fn observe(&mut self, out: &Result<RunOutput, String>) -> bool {
        self.attempted += 1;
        let problems = match out {
            Err(e) => vec![e.clone()],
            Ok(o) => self.problems(o),
        };
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        let rep = self.attempted;
        self.failures
            .extend(problems.into_iter().map(|p| format!("{} rep {rep}: {p}", self.workload)));
        false
    }

    /// Holds this workload to a fingerprint computed elsewhere (the
    /// sequential run of the same job, or the executor trace). Counts as
    /// one more attempted check.
    pub fn cross_check(&mut self, what: &str, fp: Result<u64, String>) {
        self.attempted += 1;
        let problem = match (fp, self.fingerprint()) {
            (Err(e), _) => Some(format!("{what} failed: {e}")),
            (Ok(fp), Some(mine)) if fp != mine => {
                Some(format!("{what} fingerprints {}, this workload {}", hex(fp), hex(mine)))
            }
            _ => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{}: {p}", self.workload));
        }
    }

    fn problems(&mut self, o: &RunOutput) -> Vec<String> {
        let mut bad = Vec::new();
        match self.expected {
            // Rep-to-rep (and, at the pinned seed, against the pin).
            Some((fp, what)) if fp != o.fingerprint => {
                bad.push(format!(
                    "fingerprint {} differs from {what} ({})",
                    hex(o.fingerprint),
                    hex(fp)
                ));
            }
            Some(_) => {}
            None => self.expected = Some((o.fingerprint, "the first repetition's")),
        }
        let c = &o.counters;
        if c.measure_legs != c.route_legs {
            bad.push(format!(
                "measure_legs {} != sum of route_usage legs {}",
                c.measure_legs, c.route_legs
            ));
        }
        if c.sent < c.delivered {
            bad.push(format!("net.delivered {} exceeds net.sent {}", c.delivered, c.sent));
        }
        if c.malformed != 0 {
            bad.push(format!("{} malformed collector events", c.malformed));
        }
        if c.measure_legs == 0 || c.resolved == 0 || c.overlay_probes == 0 {
            bad.push("the run moved no traffic".to_string());
        }
        if o.table.lines().count() < c.rows {
            bad.push("summary table is missing rows".to_string());
        }
        let want_slices = if self.exec == Exec::Sequential { 1 } else { SLICES };
        if o.planned_slices != want_slices {
            bad.push(format!("plan has {} slices, expected {want_slices}", o.planned_slices));
        }
        match (self.exec, &o.serve) {
            (Exec::Distrib, Some(s)) => {
                if s.slices != SLICES || s.worker_slices != SLICES as u64 {
                    bad.push(format!(
                        "coordinator served {} slices, worker ran {}, expected {SLICES}",
                        s.slices, s.worker_slices
                    ));
                }
                if s.duplicates != 0 || s.releases != 0 || s.connections != 1 {
                    bad.push(format!(
                        "coordinator saw {} duplicates, {} re-leases, {} connections",
                        s.duplicates, s.releases, s.connections
                    ));
                }
            }
            (Exec::Distrib, None) => bad.push("no coordinator report".to_string()),
            _ => {}
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, Counters, ServeCounters};

    fn good(fp: u64) -> RunOutput {
        RunOutput {
            fingerprint: fp,
            table: "a\nb\nc\n".to_string(),
            counters: Counters {
                n: 30,
                sim_s: 10.0,
                sent: 100,
                delivered: 99,
                lsa_bytes: 0,
                lsa_entries: 0,
                overlay_probes: 40,
                measure_legs: 20,
                route_legs: 20,
                via_legs: 4,
                resolved: 10,
                discarded: 0,
                peak_pending: 5,
                malformed: 0,
                rows: 2,
            },
            planned_slices: 1,
            serve: None,
        }
    }

    #[test]
    fn repetitions_must_agree_and_conserve() {
        let mut c = Checker::new(workload("campaign30").unwrap(), 7, 1);
        assert!(c.observe(&Ok(good(5))));
        assert!(c.observe(&Ok(good(5))));
        assert!(!c.observe(&Ok(good(6))), "a different fingerprint is a failed repetition");
        let mut leaky = good(5);
        leaky.counters.route_legs = 19;
        leaky.counters.delivered = 101;
        assert!(!c.observe(&Ok(leaky)));
        assert!(!c.observe(&Err("worker failed: boom".to_string())));
        assert_eq!((c.attempted, c.failed), (5, 3));
        assert_eq!(c.failures.len(), 4, "{:?}", c.failures);
        c.cross_check("sequential run", Ok(5));
        c.cross_check("sequential run", Ok(9));
        assert_eq!((c.attempted, c.failed), (7, 4));
    }

    #[test]
    fn pinned_fingerprints_apply_only_at_the_pinned_seed_and_full_scale() {
        for name in ["campaign30", "roundtrip17", "shards2", "distrib2"] {
            assert!(pinned(name).is_some(), "{name} must be pinned");
        }
        let file = serde_json::parse(PINNED).unwrap();
        let seed: u64 = serde::Deserialize::from_value(file.field("seed").unwrap()).unwrap();
        assert_eq!(seed, PINNED_SEED, "pinned.json names the seed it was recorded at");
        assert_eq!(pinned("shards2"), pinned("distrib2"), "one job, one fingerprint");
        assert!(pinned("mesh120").is_none() && pinned("mesh120_delta").is_none());
        let w = workload("campaign30").unwrap();
        let pin = pinned("campaign30").unwrap();
        assert!(!Checker::new(w, PINNED_SEED, 1).observe(&Ok(good(pin ^ 1))));
        assert!(Checker::new(w, PINNED_SEED, 1).observe(&Ok(good(pin))));
        assert!(Checker::new(w, PINNED_SEED, 50).observe(&Ok(good(pin ^ 1))));
        assert!(Checker::new(w, 7, 1).observe(&Ok(good(pin ^ 1))));
    }

    #[test]
    fn distributed_repetitions_check_the_coordinator_report() {
        let w = workload("distrib2").unwrap();
        let serve = ServeCounters {
            slices: SLICES,
            connections: 1,
            releases: 0,
            duplicates: 0,
            peak_buffered: 2,
            worker_slices: SLICES as u64,
        };
        let mut out = good(1);
        out.planned_slices = SLICES;
        out.serve = Some(serve);
        assert!(Checker::new(w, 7, 1).observe(&Ok(out.clone())));
        out.serve = Some(ServeCounters { duplicates: 1, ..serve });
        assert!(!Checker::new(w, 7, 1).observe(&Ok(out.clone())));
        out.serve = None;
        assert!(!Checker::new(w, 7, 1).observe(&Ok(out)));
    }
}
