#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-rng
//!
//! A small, dependency-free, deterministic PRNG (xoshiro256++ seeded via
//! SplitMix64). The workspace builds in hermetic environments with no
//! registry access, so workload data generation and randomized tests use
//! this instead of the `rand` crate. Determinism across platforms and
//! releases is a feature: workload inputs are part of the experimental
//! setup, and the randomized test corpus must be reproducible from a seed.

/// Deterministic xoshiro256++ generator.
///
/// Not cryptographically secure — intended for benchmark data and test-case
/// generation only.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion,
    /// the standard seeding procedure for xoshiro generators).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Debiased multiply-shift (Lemire). The rejection loop terminates
        // with overwhelming probability after one or two draws.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in `[lo, hi)` (half-open, like `rand`'s `gen_range`).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // 53 random mantissa bits => uniform in [0, 1)
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// An arbitrary `f64` bit pattern — covers NaNs, infinities and
    /// subnormals, like `proptest`'s `any::<f64>()`.
    pub fn any_f64(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Interesting `u64` edge values that randomized tests should always cover
/// in addition to uniform draws.
pub const U64_EDGE_CASES: [u64; 8] = [
    0,
    1,
    2,
    63,
    64,
    u64::MAX,
    u64::MAX - 1,
    i64::MAX as u64, // sign boundary for the signed comparisons
];

/// Interesting `f64` edge values (bit patterns) for randomized fp tests.
pub fn f64_edge_cases() -> [f64; 10] {
    [
        0.0,
        -0.0,
        1.0,
        -1.5,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1 << 33, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn ranges_hit_both_endpoints_eventually() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.range_usize(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets reached: {seen:?}");
    }

    #[test]
    fn f64_range_is_half_open_and_in_bounds() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = r.range_f64(0.5, 2.0);
            assert!((0.5..2.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
