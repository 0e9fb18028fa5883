//! Offline shim for the subset of the `rand` 0.9 API used in this workspace.
//!
//! The build environment has no access to a crate registry, so the workspace
//! vendors this minimal, dependency-free implementation: a seedable
//! [`StdRng`](rngs::StdRng) driven by SplitMix64/xoshiro256** and the
//! [`RngExt::random_range`] / [`RngExt::random_bool`] extension methods the
//! grammar generators and differential tests call. The statistical quality is
//! ample for test-case generation; it is **not** a cryptographic RNG and
//! makes no attempt to match upstream `rand`'s value streams.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A random number generator: the core sampling interface.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// Converts to the `u64` sampling domain.
    fn to_u64(self) -> u64;
    /// Converts back from the `u64` sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Ranges that can be sampled from: `lo..hi` and `lo..=hi`.
pub trait SampleRange<T> {
    /// The inclusive `(low, high)` bounds. Panics if the range is empty.
    fn bounds(&self) -> (u64, u64);
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn bounds(&self) -> (u64, u64) {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "cannot sample from empty range");
        (lo, hi - 1)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn bounds(&self) -> (u64, u64) {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "cannot sample from empty range");
        (lo, hi)
    }
}

/// The `random_*` convenience methods of `rand` 0.9's `Rng` trait, split out
/// so the shim can keep [`Rng`] minimal.
pub trait RngExt: Rng {
    /// A uniform sample from a range. Panics if the range is empty.
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds();
        if hi == u64::MAX && lo == 0 {
            return T::from_u64(self.next_u64());
        }
        let span = hi - lo + 1;
        // Debiased multiply-shift rejection sampling (Lemire).
        loop {
            let x = self.next_u64();
            let hi128 = ((x as u128 * span as u128) >> 64) as u64;
            let lo128 = x.wrapping_mul(span);
            if lo128 >= span || lo128 >= span.wrapping_neg() % span {
                return T::from_u64(lo + hi128);
            }
        }
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        // 53 uniform mantissa bits, as upstream does.
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Standard generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The shim's standard RNG: xoshiro256** seeded through SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the xoshiro authors recommend.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            let (mut n2, mut n3) = (s2 ^ s0, s3 ^ s1);
            let n1 = s1 ^ n2;
            let n0 = s0 ^ n3;
            n2 ^= t;
            n3 = n3.rotate_left(45);
            self.s = [n0, n1, n2, n3];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random_range(0..1000u32), b.random_range(0..1000u32));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn bool_probability_roughly_holds() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u32> = (0..8).map(|_| a.random_range(0..u32::MAX)).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.random_range(0..u32::MAX)).collect();
        assert_ne!(va, vb);
    }
}
