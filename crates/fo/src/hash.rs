//! A universal hash family for optimized local hashing.
//!
//! OLH requires each user to pick a hash function `H` uniformly at random
//! from a universal family mapping the candidate domain into `[d']` buckets,
//! where `d' = ⌈e^ε⌉ + 1`.  We use a seeded SplitMix64-style mixer: the
//! 64-bit seed identifies the function within the family, and the avalanche
//! mixing provides the near-uniform, pairwise-independent behaviour the OLH
//! analysis needs.  The seed travels with the report so the server can
//! recompute `H(x)` for every candidate during support counting.

/// A member of the universal hash family, identified by its 64-bit seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalHash {
    seed: u64,
    buckets: u32,
}

impl UniversalHash {
    /// Creates the hash function identified by `seed` with `buckets` output
    /// values.  `buckets` must be at least 2.
    pub fn new(seed: u64, buckets: u32) -> Self {
        debug_assert!(buckets >= 2, "a hash family needs at least two buckets");
        Self { seed, buckets }
    }

    /// The seed identifying this function within the family.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of output buckets d'.
    #[inline]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Hashes a domain index into `[0, buckets)`.
    #[inline]
    pub fn hash(&self, value: u64) -> u32 {
        (self.wide(value) % self.buckets as u64) as u32
    }

    /// The 64-bit hash of a domain index before its reduction onto the
    /// buckets: `hash(value) == wide(value) % buckets`.
    #[inline]
    pub(crate) fn wide(&self, value: u64) -> u64 {
        mix(value ^ self.seed.rotate_left(17))
    }
}

/// An exact, division-free test of `h % d == v` for one fixed bucket count
/// `d = 2^s·m` with `m` odd, so support counting can compare a report's
/// bucket against every candidate's [`UniversalHash::wide`] value without
/// a hardware division per pair.
///
/// For `v < d`, `h % d == v` holds iff `h ≥ v` and `d` divides `h − v`,
/// and `d` divides `x` iff `rotr(x·m⁻¹ mod 2^64, s) ≤ ⌊(2^64 − 1)/d⌋`: the
/// Granlund–Montgomery divisibility test (Lemire, Kaser & Kurz, "Faster
/// Remainder by Direct Computation", 2019).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketTest {
    /// m⁻¹ mod 2^64.
    inverse: u64,
    /// s, the number of trailing zero bits of d.
    shift: u32,
    /// ⌊(2^64 − 1)/d⌋.
    limit: u64,
}

impl BucketTest {
    /// Precomputes the test for `buckets` ≥ 1.
    pub(crate) fn new(buckets: u32) -> Self {
        let d = u64::from(buckets);
        let shift = d.trailing_zeros();
        let m = d >> shift;
        // Newton's iteration for the inverse of an odd m modulo 2^64: m is
        // its own inverse modulo 8, and each step doubles the correct low
        // bits (3 → 6 → 12 → 24 → 48 → 96).
        let mut inverse = m;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inverse)));
        }
        debug_assert_eq!(m.wrapping_mul(inverse), 1);
        Self {
            inverse,
            shift,
            limit: u64::MAX / d,
        }
    }

    /// Whether `h % d == v`; exact for every `h` and every `v < d`.
    #[inline(always)]
    pub(crate) fn matches(&self, h: u64, v: u64) -> bool {
        // Non-short-circuit `&` keeps the test branch-free, so the support
        // loop vectorizes.
        (h >= v)
            & (h.wrapping_sub(v)
                .wrapping_mul(self.inverse)
                .rotate_right(self.shift)
                <= self.limit)
    }
}

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computes the OLH bucket count d' = ⌈e^ε⌉ + 1 for a privacy budget, or
/// `None` when d' does not fit in a `u32` (ε ≥ ln(2^32 − 1) ≈ 22.18).
pub fn olh_buckets(exp_epsilon: f64) -> Option<u32> {
    let ceil = exp_epsilon.ceil();
    if !(0.0..=f64::from(u32::MAX)).contains(&ceil) {
        return None;
    }
    (ceil as u32).checked_add(1).map(|d| d.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_per_seed() {
        let h = UniversalHash::new(42, 8);
        for v in 0..100u64 {
            assert_eq!(h.hash(v), h.hash(v));
            assert!(h.hash(v) < 8);
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = UniversalHash::new(1, 16);
        let b = UniversalHash::new(2, 16);
        let disagreements = (0..256u64).filter(|v| a.hash(*v) != b.hash(*v)).count();
        // Two independent functions should disagree on most inputs.
        assert!(disagreements > 128, "only {disagreements} disagreements");
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let h = UniversalHash::new(7, 4);
        let mut counts = [0usize; 4];
        let n = 40_000u64;
        for v in 0..n {
            counts[h.hash(v) as usize] += 1;
        }
        let expected = n as f64 / 4.0;
        for c in counts {
            assert!(
                ((c as f64) - expected).abs() < expected * 0.1,
                "bucket count {c}"
            );
        }
    }

    #[test]
    fn olh_bucket_formula() {
        let d = |eps: f64| olh_buckets(eps.exp());
        assert_eq!(d(1.0), Some(1.0f64.exp().ceil() as u32 + 1));
        assert_eq!(d(4.0), Some(4.0f64.exp().ceil() as u32 + 1));
        // Degenerate small budgets still produce at least two buckets.
        assert!(olh_buckets(0.1).unwrap() >= 2);
        // The largest d' that fits, then the first budgets that overflow it
        // (these used to wrap to two buckets in release builds).
        assert_eq!(olh_buckets(f64::from(u32::MAX - 1)), Some(u32::MAX));
        assert_eq!(olh_buckets(f64::from(u32::MAX)), None);
        for eps in [22.2, 23.0, 30.0, f64::INFINITY] {
            assert_eq!(d(eps), None, "eps {eps}");
        }
        assert_eq!(olh_buckets(f64::NAN), None);
    }

    /// The division-free test agrees with `%` on the edges of its premise
    /// (`h < v`, `h == v`, `h == u64::MAX`, `v == d − 1`) and on a million
    /// random pairs, for odd, even and power-of-two bucket counts.
    #[test]
    fn bucket_test_agrees_with_remainder() {
        for d in [3u32, 4, 7, 8, 9, 56, 1 << 31, u32::MAX] {
            let test = BucketTest::new(d);
            let d64 = u64::from(d);
            let check = |h: u64, v: u64| {
                assert_eq!(test.matches(h, v), h % d64 == v, "d {d} h {h} v {v}");
            };
            for v in [0, 1, d64 / 2, d64 - 1] {
                for h in [
                    0,
                    1,
                    v.saturating_sub(1),
                    v,
                    v + 1,
                    v + d64,
                    u64::MAX,
                    u64::MAX - 1,
                ] {
                    check(h, v);
                }
                // Values ≡ v (mod d) at the top of the range.
                check(u64::MAX - (u64::MAX % d64) + v.min(u64::MAX % d64), v);
                check((u64::MAX / d64 - 1) * d64 + v, v);
            }
            let mut h = d64;
            for _ in 0..1_000_000 {
                h = mix(h);
                // Draw v ≡ h (mod d) half the time so matches are common.
                let v = if h & 1 == 0 { h % d64 } else { (h >> 7) % d64 };
                check(h, v);
            }
        }
    }

    #[test]
    fn collision_rate_matches_universality() {
        // For a universal family, Pr[H(x) = H(y)] ≈ 1/d' for x ≠ y.
        let buckets = 8u32;
        let trials = 20_000u64;
        let mut collisions = 0usize;
        for seed in 0..trials {
            let h = UniversalHash::new(seed, buckets);
            if h.hash(123) == h.hash(456) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / buckets as f64;
        assert!((rate - expected).abs() < 0.02, "collision rate {rate}");
    }
}
