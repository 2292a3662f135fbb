//! Local shim for the `proptest` API subset this workspace uses.
//!
//! Implements the `proptest!` macro, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, range/tuple strategies, `collection::vec` and
//! `prop_map`/`prop_flat_map` over a deterministic RNG. Cases are pure
//! random generation — there is **no shrinking**; a failure reports the
//! case index and message, and re-running reproduces it (fixed seed).

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Test-runner configuration. Only `cases` is modelled.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed: the property is violated.
    Fail(String),
    /// The inputs were rejected by `prop_assume!`; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Constructs a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Constructs a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// A generator of random values of an output type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<F, O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` (dependent
    /// generation).
    fn prop_flat_map<F, S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> S,
        S: Strategy,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(S::Value) -> O, O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(S::Value) -> S2, S2: Strategy> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Inclusive length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy generating `Vec<S::Value>` with length in `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Vector of values drawn from `elem`, with length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[doc(hidden)]
pub mod __runner {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// Runs `cases` random cases of `body` over values drawn from
    /// `make_strategy`, panicking on the first failed case, or when
    /// `prop_assume!` rejections use up the attempt cap before `cases`
    /// cases have run.
    pub fn run<S, F>(name: &str, cases: u32, make_strategy: impl Fn() -> S, mut body: F)
    where
        S: super::Strategy,
        F: FnMut(S::Value) -> Result<(), super::TestCaseError>,
    {
        // Fixed seed: failures are reproducible run-to-run; the test name
        // decorrelates sibling properties.
        let mut seed = 0x0051_C0FF_EE00_0000u64;
        for b in name.bytes() {
            seed = seed.wrapping_mul(31).wrapping_add(b as u64);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rejected = 0u32;
        let mut case = 0u32;
        // Bound the total attempts so aggressive prop_assume! cannot spin
        // forever (mirrors proptest's global rejection cap).
        let max_attempts = cases.saturating_mul(20).max(cases);
        let mut attempts = 0u32;
        while case < cases && attempts < max_attempts {
            attempts += 1;
            let value = make_strategy().generate(&mut rng);
            match body(value) {
                Ok(()) => case += 1,
                Err(super::TestCaseError::Reject(_)) => rejected += 1,
                Err(super::TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{name}' failed at case {case} (after {rejected} rejects): {msg}"
                    )
                }
            }
        }
        // A property that passed only the few inputs its assumptions let
        // through has not been tested (proptest: "Too many global rejects").
        assert!(
            case == cases,
            "proptest '{name}' ran {case} of {cases} cases: prop_assume! rejected {rejected} inputs"
        );
    }
}

/// Property-test entry point: declares `#[test]` functions whose arguments
/// are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::__runner::run(
                    stringify!($name),
                    config.cases,
                    || ( $($strat,)+ ),
                    |values| {
                        let ( $($pat,)+ ) = values;
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Asserts a condition inside `proptest!`, failing the case (not the whole
/// process) with an optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format_args!($($fmt)+)
            )));
        }
    };
}

/// Equality assertion inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?}): {}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                format_args!($($fmt)+)
            )));
        }
    }};
}

/// Inequality assertion inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Rejects the current case (skips it) when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 0usize..10, y in -2.0..2.0f64) {
            prop_assert!(x < 10);
            prop_assert!((-2.0..2.0).contains(&y), "y = {y}");
        }

        #[test]
        fn vec_lengths((n, v) in (1usize..5, crate::collection::vec(0u32..3, 2..=6))) {
            prop_assert!(v.len() >= 2 && v.len() <= 6);
            prop_assert!(n >= 1);
            prop_assert_eq!(v.len(), v.len());
        }

        #[test]
        fn flat_map_dependent(v in (1usize..4).prop_flat_map(|n| crate::collection::vec(0usize..9, n..=n))) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }

        #[test]
        fn assume_skips(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(
        expected = "proptest 'picky' ran 3 of 8 cases: prop_assume! rejected 157 inputs"
    )]
    fn too_many_rejects_panic_with_the_counts() {
        crate::__runner::run(
            "picky",
            8,
            || 0usize..40,
            |x| {
                prop_assume!(x == 0);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "proptest 'failing'")]
    fn failures_panic_with_context() {
        crate::__runner::run(
            "failing",
            8,
            || 0usize..4,
            |x| {
                prop_assert!(x < 2);
                Ok(())
            },
        );
    }
}
