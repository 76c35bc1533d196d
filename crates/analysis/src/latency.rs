//! Clock-skew correction (§4.1).
//!
//! One-way latencies measured against two different host clocks absorb
//! the clock offset difference: `obs(s→d) = true(s→d) + skew(d) −
//! skew(s)`. Averaging a path's mean with the reverse path's mean cancels
//! the skew exactly (at the price of symmetrising genuine asymmetry —
//! the same trade the paper makes): "We average one-way latency
//! summaries and differences with those on the reverse path to average
//! out timekeeping errors."

/// Applies forward/reverse averaging to per-path means.
///
/// Input: `(src, dst, mean_us)` per directed path, strictly ascending by
/// `(src, dst)` — the order [`crate::LossAccum::per_path_latency_ms`]
/// walks its rows in — so a path's reverse is found by binary search.
/// Output: the same paths with corrected means; a path whose reverse was
/// never observed keeps its raw mean.
pub fn corrected_path_means(raw: &[(u16, u16, f64)]) -> Vec<(u16, u16, f64)> {
    debug_assert!(
        raw.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
        "paths must be strictly ascending by (src, dst)"
    );
    raw.iter()
        .map(|&(s, d, m)| {
            let corrected = match raw.binary_search_by_key(&(d, s), |&(s, d, _)| (s, d)) {
                Ok(rev) => (m + raw[rev].2) / 2.0,
                Err(_) => m,
            };
            (s, d, corrected)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_pair_cancels_skew() {
        // true latency 50 ms each way, skew(d)-skew(s) = +20 ms.
        let raw = vec![(0, 1, 70_000.0), (1, 0, 30_000.0)];
        let c = corrected_path_means(&raw);
        assert_eq!(c[0], (0, 1, 50_000.0));
        assert_eq!(c[1], (1, 0, 50_000.0));
    }

    #[test]
    fn missing_reverse_keeps_raw() {
        let raw = vec![(0, 1, 42_000.0)];
        let c = corrected_path_means(&raw);
        assert_eq!(c, vec![(0, 1, 42_000.0)]);
    }

    #[test]
    fn asymmetry_is_symmetrised() {
        // Genuinely asymmetric 40/60: the method reports 50/50 — the
        // documented trade-off of the paper's approach.
        let raw = vec![(2, 3, 40_000.0), (3, 2, 60_000.0)];
        let c = corrected_path_means(&raw);
        assert_eq!(c[0].2, 50_000.0);
        assert_eq!(c[1].2, 50_000.0);
    }

    #[test]
    fn empty_input() {
        assert!(corrected_path_means(&[]).is_empty());
    }
}
