//! Offline shim for the subset of the `proptest` API used in this workspace.
//!
//! The build environment has no crate registry access, so this crate
//! reimplements just what the property tests need: the [`Strategy`] trait
//! with `prop_map`/`prop_recursive`, [`Just`], range and tuple strategies,
//! regex-pattern string strategies (`"[a-z]{1,6}"` literals), bounded
//! [`collection::vec`], and the `proptest!`/`prop_oneof!`/`prop_assert*`
//! macros. Generation is deterministic per test; there is **no shrinking** —
//! a failing case panics with the assertion message directly.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::rc::Rc;

mod pattern;

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform sample below `n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A value generator. The shim's strategies are pure samplers: no shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `recurse` receives the strategy for the
    /// previous depth and returns the strategy for one level deeper. The
    /// `_desired_size`/`_expected_branch` tuning knobs of upstream proptest
    /// are accepted and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let mut cur = self.clone().boxed();
        for _ in 0..depth {
            let leaf = self.clone().boxed();
            let deeper = recurse(cur).boxed();
            cur = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Bias toward recursion so structures actually nest; the
                // leaf arm guarantees termination at every level.
                if rng.below(4) < 3 {
                    deeper.sample(rng)
                } else {
                    leaf.sample(rng)
                }
            }));
        }
        cur
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.sample(rng)))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy yielding a constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// String-literal strategies: the literal is a regex pattern and samples are
/// strings matching it (see the `pattern` module for the supported subset).
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        pattern::sample(self, rng)
    }
}

/// Uniform choice among type-erased arms — the engine behind `prop_oneof!`.
pub fn union<T: 'static>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
        let i = rng.below(arms.len() as u64) as usize;
        arms[i].sample(rng)
    }))
}

/// Collection strategies.
pub mod collection {
    use super::{BoxedStrategy, Strategy, TestRng};
    use std::ops::Range;
    use std::rc::Rc;

    /// A `Vec` of values from `element`, with a length drawn from `len`.
    pub fn vec<S>(element: S, len: Range<usize>) -> BoxedStrategy<Vec<S::Value>>
    where
        S: Strategy + 'static,
    {
        assert!(len.start < len.end, "empty length range");
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
            let span = (len.end - len.start) as u64;
            let n = len.start + rng.below(span) as usize;
            (0..n).map(|_| element.sample(rng)).collect()
        }))
    }
}

/// Runner configuration: only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 100 }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (panics with the message; the shim
/// has no shrinking phase to report to).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let arms = vec![$($crate::Strategy::boxed($strategy)),+];
        $crate::union(arms)
    }};
}

/// Declares property tests. Each case runs with a deterministic seed derived
/// from the test name and case index, so failures reproduce exactly.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest! { @with ($config) $($rest)* }
    };
    (@with ($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                // Seed from the test path so distinct tests explore
                // distinct streams, deterministically.
                let mut seed = 0xcbf29ce484222325u64;
                for b in concat!(module_path!(), "::", stringify!($name)).bytes() {
                    seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
                }
                for case in 0..config.cases as u64 {
                    let mut rng = $crate::TestRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E3779B97F4A7C15));
                    $(let $arg = $crate::Strategy::sample(&$strategy, &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @with ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps() {
        let s = (0u8..5).prop_map(|v| v * 2);
        let mut rng = crate::TestRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!(v < 10 && v % 2 == 0);
        }
    }

    #[test]
    fn oneof_hits_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    #[test]
    fn recursive_strategies_terminate_and_nest() {
        #[derive(Debug)]
        enum T {
            Leaf,
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf => 0,
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = Just(()).prop_map(|_| T::Leaf).boxed().prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = crate::TestRng::seed_from_u64(5);
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&s.sample(&mut rng)));
        }
        assert!(max_depth >= 2, "recursion must actually nest (got {max_depth})");
        assert!(max_depth <= 4, "depth bound respected (got {max_depth})");
    }

    #[test]
    fn vec_lengths_in_range() {
        let s = crate::collection::vec(0u8..3, 2..6);
        let mut rng = crate::TestRng::seed_from_u64(6);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u8..10, s in "[ab]{1,3}") {
            prop_assert!(x < 10);
            prop_assert!((1..=3).contains(&s.len()));
            prop_assert!(s.bytes().all(|b| b == b'a' || b == b'b'));
        }
    }
}
