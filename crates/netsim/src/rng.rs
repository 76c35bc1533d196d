//! Deterministic pseudo-random number generation.
//!
//! The simulator needs full reproducibility: the same seed must generate
//! the same run regardless of platform, crate versions, or iteration
//! order elsewhere in the program. To guarantee that, this module carries
//! its own xoshiro256** implementation (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, plus the handful of
//! distributions the network models need (uniform, exponential, bounded
//! Pareto, normal and lognormal).
//!
//! Independent *streams* are derived with [`Rng::derive`], so each network
//! segment evolves from its own generator and adding a new consumer never
//! perturbs existing ones.
//!
//! # Stream derivation and shard universes
//!
//! Two derivation APIs exist, with different jobs:
//!
//! * [`Rng::derive`] — an independent *stream* inside the same
//!   simulation universe (one per segment, per node, …). The child state
//!   is produced by absorbing **all four** parent state words plus the
//!   label into a SplitMix64 sponge prefixed with a domain constant.
//!   Earlier revisions seeded the child from `s[0] ^ label` alone, which
//!   made `derive(0)` collide structurally with `Rng::new(s[0])` — a
//!   master stream and a derived stream could walk the same sequence.
//!   The sponge closes that hole: no choice of label reduces to a plain
//!   `Rng::new` seeding, and labels differing in any bit give unrelated
//!   children.
//! * [`Rng::stream_seed`] — a 64-bit *seed for a child universe*, used
//!   by the sharded experiment runner: shard `k` of a run with master
//!   seed `m` is seeded with `Rng::new(m).stream_seed(k)`. The value is
//!   drawn through the same sponge under a distinct domain constant, so
//!   a shard universe can never equal the master universe (the value for
//!   any label differs from `m` itself and from every `derive` result),
//!   and shards with different indices get unrelated universes even when
//!   `m` and `m ⊕ k` would collide under a naive XOR scheme.

/// A deterministic random number generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain tag for [`Rng::derive`] (same-universe streams).
const DOMAIN_DERIVE: u64 = 0xD0_5E6D_E217_3A11;
/// Domain tag for [`Rng::stream_seed`] (child shard universes).
const DOMAIN_SHARD: u64 = 0x51AB_1E5E_ED51_DE5C;

/// Absorbs one word into a SplitMix64-based sponge accumulator.
#[inline]
fn absorb(acc: u64, word: u64) -> u64 {
    let mut sm = acc ^ word.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut sm)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent stream labelled by `stream`.
    ///
    /// Streams with different labels are statistically independent of each
    /// other and of the parent; deriving is stateless with respect to the
    /// parent (it does not consume parent randomness), so the set of
    /// consumers can grow without disturbing reproducibility.
    ///
    /// The child is seeded through a domain-separated sponge over the
    /// *full* parent state and the label (see the module docs): unlike
    /// the earlier `s[0] ^ label` construction, no label can make the
    /// child replay a `Rng::new` master stream.
    pub fn derive(&self, stream: u64) -> Rng {
        let mut sm = self.sponge(DOMAIN_DERIVE, stream);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Draws a 64-bit seed for an independent *child universe* ("shard
    /// stream") labelled by `label`, without consuming parent state.
    ///
    /// This is the splittable-stream API used by the sharded experiment
    /// runner: shard `k` of a run with master seed `m` lives in the
    /// universe `Rng::new(Rng::new(m).stream_seed(k))`. The seed is
    /// produced by the same full-state sponge as [`Rng::derive`] but
    /// under a distinct domain constant, so a shard seed can neither
    /// equal the master seed structurally (a naive `m ^ k` collides with
    /// the master for `k = 0` and makes shards of seeds `m` and `m ^ 1`
    /// swap universes) nor fall into the `derive` stream family.
    pub fn stream_seed(&self, label: u64) -> u64 {
        self.sponge(DOMAIN_SHARD, label)
    }

    /// SplitMix64 sponge over the full state plus `label`, prefixed with
    /// a domain constant.
    fn sponge(&self, domain: u64, label: u64) -> u64 {
        let mut acc = domain;
        for w in self.s {
            acc = absorb(acc, w);
        }
        absorb(acc, label)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire-style rejection-free-enough sampling: widening multiply.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.f64()
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; 1-f64() is in (0,1] so ln never sees zero.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Bounded Pareto sample in `[xm, cap]` with shape `alpha`.
    ///
    /// Heavy-tailed durations (outages) use this: most values are near the
    /// minimum `xm`, but multi-minute tails occur.
    pub fn pareto(&mut self, xm: f64, alpha: f64, cap: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0 && cap >= xm);
        let u = self.f64();
        // Inverse CDF of the bounded Pareto distribution.
        let l = xm.powf(alpha);
        let h = cap.powf(alpha);
        let x = (-(u * h - u * l - h) / (h * l)).powf(-1.0 / alpha);
        x.clamp(xm, cap)
    }

    /// Standard normal via Box–Muller (one value per call; no caching so
    /// the stream stays position-independent).
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mu + sigma * r * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal value whose *median* is `median` and whose log-space
    /// standard deviation is `sigma`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        (self.normal(median.ln(), sigma)).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_stateless_and_independent() {
        let parent = Rng::new(7);
        let mut c1 = parent.derive(1);
        let mut c1_again = parent.derive(1);
        let mut c2 = parent.derive(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn derive_zero_does_not_replay_a_master_stream() {
        // The historic bug: `derive(0)` seeded the child from `s[0]`
        // alone, so `Rng::new(parent.s[0])` was the *same* stream. The
        // sponge construction must keep the two apart.
        let parent = Rng::new(7);
        let leaked_word = parent.s[0];
        let mut child = parent.derive(0);
        let mut master = Rng::new(leaked_word);
        let same = (0..64).filter(|_| child.next_u64() == master.next_u64()).count();
        assert_eq!(same, 0, "derive(0) must not equal Rng::new(s[0])");
    }

    #[test]
    fn stream_seed_is_stable_and_label_sensitive() {
        let parent = Rng::new(42);
        assert_eq!(parent.stream_seed(3), parent.stream_seed(3));
        assert_ne!(parent.stream_seed(3), parent.stream_seed(4));
    }

    #[test]
    fn stream_seed_never_returns_the_master_seed() {
        // A naive `seed ^ shard` scheme returns the master seed for
        // shard 0; the domain-separated sponge must not.
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let parent = Rng::new(seed);
            for label in 0..64 {
                assert_ne!(parent.stream_seed(label), seed, "seed={seed} label={label}");
            }
        }
    }

    #[test]
    fn stream_seed_differs_from_derive_family() {
        // Domain separation: the shard-universe seed material must not
        // coincide with the derive-stream sponge for the same label.
        let parent = Rng::new(1234);
        for label in 0..32 {
            let mut shard = Rng::new(parent.stream_seed(label));
            let mut derived = parent.derive(label);
            let same = (0..32).filter(|_| shard.next_u64() == derived.next_u64()).count();
            assert_eq!(same, 0, "label={label}");
        }
    }

    #[test]
    fn sibling_shard_universes_are_unrelated() {
        let parent = Rng::new(99);
        let mut a = Rng::new(parent.stream_seed(0));
        let mut b = Rng::new(parent.stream_seed(1));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = Rng::new(4);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exp_mean_close() {
        let mut r = Rng::new(6);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(50.0)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn pareto_bounded() {
        let mut r = Rng::new(8);
        for _ in 0..10_000 {
            let x = r.pareto(30.0, 1.2, 1800.0);
            assert!((30.0..=1800.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = Rng::new(9);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.pareto(30.0, 1.2, 1800.0)).collect();
        let near_min = samples.iter().filter(|&&x| x < 60.0).count() as f64 / n as f64;
        let long = samples.iter().filter(|&&x| x > 600.0).count() as f64 / n as f64;
        assert!(near_min > 0.4, "mass near minimum: {near_min}");
        assert!(long > 0.005, "tail mass: {long}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(10);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = Rng::new(11);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal(5.0, 0.7)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let median = xs[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median={median}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(12);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
