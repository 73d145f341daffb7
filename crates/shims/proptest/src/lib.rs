//! Offline stand-in for the subset of the `proptest` crate this workspace
//! uses: the [`proptest!`] test macro, `prop_assert*` macros, [`any`],
//! integer-range strategies, and [`collection::vec`].
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports the sampled inputs verbatim;
//!   re-run with `PROPTEST_SEED` to reproduce exactly.
//! * **Fixed-seed deterministic runs.** Each test function derives its RNG
//!   seed from its own name, so failures are reproducible by default and CI
//!   runs are stable. Set `PROPTEST_SEED` to explore a different stream and
//!   `PROPTEST_CASES` to change the per-test case count (default 256).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// A deterministic sample source handed to strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded source.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, span)`; `span` must be nonzero.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let zone = span.wrapping_mul(u64::MAX / span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }
}

/// A value generator. The shim strategy is just "sample uniformly"; there is
/// no shrinking tree.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Derived strategy applying `f` to every sampled value. No shrinking
    /// (the shim never shrinks), otherwise matches real proptest.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
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

/// Strategy backed by a sampling closure; the expansion target of
/// [`prop_compose!`].
pub struct SampleFn<T, F: Fn(&mut TestRng) -> T>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for SampleFn<T, F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Composite-strategy macro mirroring proptest's `prop_compose!`: defines a
/// function returning a strategy that samples each listed sub-strategy and
/// builds the result from the body. One parameter-list form only (no
/// two-stage `(args)(more args)` dependency chaining beyond the standard
/// params-then-strategies shape).
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)($($arg:ident in $strat:expr),+ $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::SampleFn(move |rng: &mut $crate::TestRng| {
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                $body
            })
        }
    };
}

/// Strategy for "any value of a primitive type"; see [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Uniform strategy over the full domain of a primitive type.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo + (rng.below(span) as $t)
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<char> {
    type Value = char;

    fn sample(&self, rng: &mut TestRng) -> char {
        loop {
            if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                return c;
            }
        }
    }
}

/// Constant strategy (always yields a clone of the value).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Tuples of strategies sample componentwise (matching real proptest), so
/// `(0usize..100, any::<u8>())` yields `(usize, u8)` pairs.
macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A length specification for [`vec()`]: exact, `lo..hi`, or `lo..=hi`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// A non-panicking test-case failure, produced by the `prop_assert*` macros.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Create a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-block configuration, set via `#![proptest_config(...)]` inside a
/// [`proptest!`] invocation.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Cases to run per test.
    pub cases: u64,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u64) -> Self {
        Self { cases }
    }
}

/// Number of cases each `proptest!` test runs by default (env
/// `PROPTEST_CASES` overrides).
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Driver used by the [`proptest!`] expansion: runs `f` for the configured
/// number of iterations with a deterministic per-test RNG, reporting sampled
/// inputs on failure (no shrinking). `PROPTEST_CASES` overrides `config`.
pub fn run_cases<F>(test_name: &str, config: ProptestConfig, mut f: F)
where
    F: FnMut(&mut TestRng) -> (String, std::thread::Result<Result<(), TestCaseError>>),
{
    // Seed derives from the test name (FNV-1a) so each test explores its own
    // stream but reruns are reproducible; PROPTEST_SEED overrides.
    let mut seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xcbf2_9ce4_8422_2325u64);
    for b in test_name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = TestRng::new(seed);
    let total = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    for case in 0..total {
        let (inputs, outcome) = f(&mut rng);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!(
                "proptest case {case}/{total} failed: {e}\n  inputs: {inputs}\n  (seed {seed:#x}; set PROPTEST_SEED to reproduce)"
            ),
            Err(payload) => {
                eprintln!(
                    "proptest case {case}/{total} panicked\n  inputs: {inputs}\n  (seed {seed:#x}; set PROPTEST_SEED to reproduce)"
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Property-test macro: `proptest! { #[test] fn name(x in strategy, ...) { body } }`.
///
/// Each listed function becomes a plain `#[test]` that samples its arguments
/// from the given strategies for [`cases`] iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)+) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)+ }
    };
    ($($rest:tt)+) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)+ }
    };
}

/// Implementation detail of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), $cfg, |rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}  ",)+),
                        $(&$arg),+
                    );
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            || -> ::core::result::Result<(), $crate::TestCaseError> {
                                $body
                                ::core::result::Result::Ok(())
                            },
                        ),
                    );
                    (inputs, outcome)
                });
            }
        )+
    };
}

/// Fail the test case unless `cond` holds (non-panicking: returns `Err` from
/// the enclosing proptest body).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fail the test case unless the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in 5usize..=5, v in crate::collection::vec(any::<u8>(), 2..4)) {
            prop_assert!((3..10).contains(&x));
            prop_assert_eq!(y, 5);
            prop_assert!(v.len() == 2 || v.len() == 3);
        }

        #[test]
        fn just_yields_constant(v in Just(41u8)) {
            prop_assert_eq!(v, 41u8);
        }
    }

    #[test]
    #[should_panic(expected = "inputs")]
    fn failing_case_reports_inputs() {
        crate::run_cases(
            "failing_case_reports_inputs",
            crate::ProptestConfig::default(),
            |rng| {
                let x = Strategy::sample(&(0u8..10), rng);
                let inputs = format!("x = {x:?}");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || -> Result<(), TestCaseError> {
                        crate::prop_assert!(x > 100, "x too small: {}", x);
                        Ok(())
                    },
                ));
                (inputs, outcome)
            },
        );
    }
}
