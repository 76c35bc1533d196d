//! Order statistics over repetition samples, and the process clocks.
//!
//! Noise on a shared box is one-sided (a repetition is only ever slowed
//! down), so the reported value of every timing metric is the
//! **nearest-rank lower quartile** — the 3rd-fastest of 9, the
//! 2nd-fastest of 5..=8 — with min, median and p75 printed beside it.

use std::time::Instant;

/// Nearest-rank quantile (`0 < q <= 1`) of `sorted`, ascending.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The summary printed for every timed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank lower quartile — the reported value.
    pub p25: f64,
    /// Fastest sample.
    pub min: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank upper quartile.
    pub p75: f64,
    /// Sample count.
    pub samples: usize,
}

impl Summary {
    /// Every statistic multiplied by `k` (unit conversion).
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            p25: self.p25 * k,
            min: self.min * k,
            median: self.median * k,
            p75: self.p75 * k,
            samples: self.samples,
        }
    }
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        p25: nearest_rank(&s, 0.25),
        min: s[0],
        median: nearest_rank(&s, 0.5),
        p75: nearest_rank(&s, 0.75),
        samples: s.len(),
    })
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, exited ones included (`/proc/self/stat` fields 14 and 15 at
/// `USER_HZ` = 100, so 10 ms resolution). `None` off Linux.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, so utime/stime are the 12th/13th
    // from there.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Wall and CPU seconds spent in `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        // No /proc: report wall so the metric stays defined; exact for
        // the sequential workloads, an underestimate for parallel ones.
        _ => wall,
    };
    (r, wall, cpu)
}

/// Batch-times `op`: after `iters` warm-up calls, `batches` batches of
/// `iters` calls each with one clock pair per batch — never one clock
/// read per call. Returns nanoseconds per call, summarised over batches.
pub fn batch_ns(batches: usize, iters: u64, mut op: impl FnMut()) -> Summary {
    for _ in 0..iters {
        op();
    }
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    summarize(&per_call).expect("at least one batch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_quartile_of_nine_is_the_third_fastest() {
        let s = summarize(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.p25, s.min, s.median, s.p75, s.samples), (3.0, 1.0, 5.0, 7.0, 9));
    }

    #[test]
    fn small_samples_use_nearest_rank() {
        // 5..=8 samples: rank ceil(n/4) = 2, the 2nd-fastest.
        for n in 5..=8 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(summarize(&v).unwrap().p25, 2.0, "n={n}");
        }
        let one = summarize(&[4.5]).unwrap();
        assert_eq!((one.p25, one.median, one.p75), (4.5, 4.5, 4.5));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn cpu_clock_is_monotone_where_it_exists() {
        if let Some(a) = process_cpu_s() {
            let b = process_cpu_s().unwrap();
            assert!(b >= a && a >= 0.0);
        }
    }

    #[test]
    fn batch_timer_reports_per_call_cost() {
        let mut n = 0u64;
        let s = batch_ns(4, 1000, || n = std::hint::black_box(n + 1));
        assert_eq!(n, 5000, "one warm-up batch plus four timed ones");
        assert!(s.samples == 4 && s.min > 0.0 && s.min <= s.p25 && s.p25 <= s.p75);
    }
}
