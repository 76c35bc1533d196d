//! A stable 64-bit fold over accumulator state.
//!
//! The sharding equivalence harness needs to assert that two experiment
//! runs produced **byte-identical** statistics, including the exact bit
//! patterns of floating-point sums (f64 addition is non-associative, so
//! merge order matters and must be proven fixed). `std::hash` offers no
//! cross-run stability guarantee, so this module carries a tiny FNV-1a
//! implementation whose output depends only on the bytes fed to it —
//! same state, same fingerprint, on every platform and in every process.

/// Incremental FNV-1a 64-bit fold.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh fold.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs `len` zero bytes, in O(log `len`): FNV-1a over a zero byte
    /// is `h ← (h ^ 0) · P`, so a run of them is one multiplication by
    /// `P^len` (mod 2⁶⁴, by square-and-multiply). This is how an
    /// accumulator folds the cells it does not hold — the digest stream
    /// is the dense one, bit for bit.
    pub fn write_zeros(&mut self, mut len: u64) {
        let (mut power, mut square) = (1u64, Self::PRIME);
        while len > 0 {
            if len & 1 == 1 {
                power = power.wrapping_mul(square);
            }
            square = square.wrapping_mul(square);
            len >>= 1;
        }
        self.0 = self.0.wrapping_mul(power);
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by exact bit pattern — `1.0 + 2.0` and
    /// `2.0 + 1.0` fold equal, but `(a + b) + c` and `a + (b + c)`
    /// generally do not, which is precisely what the equivalence
    /// harness must detect.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The folded value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The zero-run fold is the byte-by-byte fold, from any state.
        #[test]
        fn write_zeros_is_that_many_zero_bytes(
            prior in proptest::collection::vec(any::<u8>(), 0..40),
            random in 0u64..5_000,
        ) {
            for k in [0, 1, 7, 80, (1 << 20) + 3, random] {
                let mut run = Fnv::new();
                run.write(&prior);
                let mut bytes = run.clone();
                run.write_zeros(k);
                for _ in 0..k {
                    bytes.write(&[0]);
                }
                prop_assert_eq!(run.finish(), bytes.finish(), "k = {}", k);
            }
        }
    }

    /// Pins a composed fold (strings, u64s, f64 bit patterns) to a golden
    /// value. `ExperimentOutput::fingerprint` goldens across the repo
    /// (e.g. `tests/sharding_equivalence.rs`) assume this fold never
    /// changes; if this test moves, every recorded fingerprint moves with
    /// it — re-record deliberately or revert.
    #[test]
    fn composed_fold_is_stable() {
        let mut f = Fnv::new();
        f.write(b"scenario");
        f.write(&[0]);
        f.write_u64(0xDEAD_BEEF);
        f.write_f64(0.1 + 0.2);
        f.write_u64(42);
        assert_eq!(f.finish(), 0x0ae7_3278_ecc5_1cd2);
    }

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — the published test vector.
        let mut f = Fnv::new();
        f.write(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_bit_exact() {
        let mut a = Fnv::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Fnv::new();
        b.write_f64(0.3);
        // 0.1 + 0.2 != 0.3 in IEEE 754; the fold must see that.
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write_f64(0.1 + 0.2);
        assert_eq!(a.finish(), c.finish());
    }
}
