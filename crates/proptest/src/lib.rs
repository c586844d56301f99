//! Minimal stand-in for the subset of the `proptest` 1.x API this
//! workspace's property tests use. The build runs with no network and
//! no registry cache, so the real crate cannot be fetched.
//!
//! Differences from the real crate: inputs are generated from a
//! deterministic per-case seed (so every CI run exercises the same
//! cases) by the workspace's `rand` stand-in, whose generator and range
//! sampling it shares, and failing cases are reported but *not shrunk*. The
//! `Strategy` combinators (`prop_map`, `prop_flat_map`), range / tuple /
//! collection strategies, and the `proptest!` / `prop_assert*` macros
//! keep their real signatures so the test files compile unchanged.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{RngCore, SampleRange, SeedableRng};

/// Deterministic per-case RNG: the `rand` stand-in's xoshiro256++,
/// seeded from the case number.
pub struct TestRng(StdRng);

impl TestRng {
    pub fn for_case(case: u32) -> Self {
        TestRng(StdRng::seed_from_u64(0xA076_1D64_78BD_642F ^ (u64::from(case) << 17)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Runner configuration; only `cases` is interpreted by the stub.
/// `max_shrink_iters` exists for signature compatibility (the stub does
/// not shrink).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

/// Error type produced by `prop_assert*` and usable with `?` in bodies.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// A generator of test-case values.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Always produces a clone of the same value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

impl<T> Strategy for Range<T>
where
    Range<T>: SampleRange<T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.clone().sample_single(&mut rng.0)
    }
}

impl<T> Strategy for RangeInclusive<T>
where
    RangeInclusive<T>: SampleRange<T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.clone().sample_single(&mut rng.0)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait ArbitraryValue {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// `prop::bool::ANY`.
#[derive(Clone, Copy, Debug)]
pub struct BoolAny;

impl Strategy for BoolAny {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

pub mod bool {
    pub const ANY: super::BoolAny = super::BoolAny;
}

/// Element-count specification for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample(self, rng: &mut TestRng) -> usize {
        (self.lo..=self.hi_inclusive).sample_single(&mut rng.0)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi_inclusive: n }
    }
}

pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            // Duplicates shrink the set below target, like real proptest;
            // the attempt cap keeps small element domains terminating.
            for _ in 0..target.saturating_mul(20).max(32) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }
}

pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};

    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(case);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!("proptest case {case}/{} failed: {err}", config.cases);
                }
            }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::TestRng::for_case(0);
        for _ in 0..200 {
            let v = crate::Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let t = crate::Strategy::generate(&(0i32..4, -1i8..=1), &mut rng);
            assert!((0..4).contains(&t.0) && (-1..=1).contains(&t.1));
        }
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = crate::TestRng::for_case(1);
        let v = crate::Strategy::generate(&crate::collection::vec(0u8..3, 5..=5), &mut rng);
        assert_eq!(v.len(), 5);
        let s = crate::Strategy::generate(
            &crate::collection::btree_set((0i32..12, 0i32..12), 1..40),
            &mut rng,
        );
        assert!(!s.is_empty() && s.len() < 40);
    }

    /// Every property test draws its inputs from these streams, so they
    /// must not move: the first two words of a few cases and one range
    /// sample per integer type.
    #[test]
    fn case_streams_are_pinned() {
        let words = |case| {
            let mut rng = crate::TestRng::for_case(case);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(words(0), [0xfaeb_899a_b878_3dd9, 0x2ecc_ca6a_f570_c82c]);
        assert_eq!(words(1), [0x544f_a1be_2562_3f57, 0x67ee_8126_ad9d_e2eb]);
        assert_eq!(words(2), [0x7792_e412_d7f4_a7a1, 0xdbe2_baed_7ee8_fe9c]);
        assert_eq!(words(255), [0x8ecb_9d20_8369_9dd2, 0xc709_ce94_36d4_d467]);
        let mut rng = crate::TestRng::for_case(9);
        assert_eq!((-100i8..100).generate(&mut rng), 28);
        assert_eq!((-30_000i16..=30_000).generate(&mut rng), 4722);
        assert_eq!((-5i32..5).generate(&mut rng), -2);
        assert_eq!((i64::MIN..=i64::MAX).generate(&mut rng), 8_966_338_089_509_756_017);
        assert_eq!((1u8..=200).generate(&mut rng), 128);
        assert_eq!((0u16..60_000).generate(&mut rng), 59_003);
        assert_eq!((7u32..1_000_000).generate(&mut rng), 73_386);
        assert_eq!((0u64..=u64::MAX).generate(&mut rng), 1_467_076_086_096_864_175);
        assert_eq!((3usize..9).generate(&mut rng), 3);
        assert_eq!((-1_000isize..=-10).generate(&mut rng), -829);
    }

    #[test]
    fn combinators_compose() {
        let strat = (4usize..8).prop_map(|n| n * 2).prop_flat_map(|n| (Just(n), 0usize..n));
        let mut rng = crate::TestRng::for_case(2);
        for _ in 0..100 {
            let (n, k) = crate::Strategy::generate(&strat, &mut rng);
            assert!(n % 2 == 0 && k < n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_and_asserts(n in 1usize..50, flip in prop::bool::ANY) {
            prop_assert!(n >= 1, "n was {n}");
            prop_assert_eq!(usize::from(flip) <= 1, true);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn macro_reports_failures() {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 1, ..ProptestConfig::default() })]

            fn always_fails(n in 0usize..2) {
                prop_assert!(n > 100, "n too small: {n}");
            }
        }
        always_fails();
    }
}
