//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this crate reimplements
//! the subset of proptest the workspace's property tests use:
//!
//! * the [`Strategy`] trait with `prop_map`, ranges, tuples, `Just`,
//!   `any::<T>()`, `collection::vec`, `sample::select`, a small
//!   character-class regex subset for string strategies, and the
//!   [`prop_oneof!`] union;
//! * the [`proptest!`] test-harness macro with `#![proptest_config(..)]`,
//!   [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//!   [`prop_assume!`];
//! * a deterministic per-test, per-case RNG, so failures are reproducible
//!   by rerunning the same test binary.
//!
//! **Deliberately missing:** shrinking. A failing case panics with the
//! case number and message instead of a minimised input. That trades
//! debugging convenience for zero dependencies; the determinism means the
//! failing input can always be regenerated.

use std::marker::PhantomData;
use std::ops::Range;

pub mod test_runner;

pub use test_runner::TestRng;

/// How a property-test case ends early.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the input: skip the case.
    Reject(String),
    /// An assertion failed: the property does not hold.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Harness configuration (`cases` is the only knob this shim honours).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values. Object-safe: `prop_map` is `Self: Sized`,
/// so `Box<dyn Strategy<Value = V>>` works (what [`prop_oneof!`] builds).
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
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Type-erase a strategy (used by [`prop_oneof!`] so branches of different
/// concrete types unify).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// `.prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased branches — what [`prop_oneof!`]
/// expands to.
pub struct Union<V> {
    branches: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    pub fn new(branches: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(
            !branches.is_empty(),
            "prop_oneof! needs at least one branch"
        );
        Union { branches }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.branches.len() as u64) as usize;
        self.branches[i].generate(rng)
    }
}

// ----- primitive strategies -------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*
    };
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Types with a natural "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        })*
    };
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy for any value of `T` (see [`Arbitrary`]).
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ----- string strategies from a regex subset --------------------------------

enum CharClass {
    /// `.` — printable ASCII.
    Dot,
    /// `[...]` — explicit ranges/literals.
    Set(Vec<(char, char)>),
}

/// A string literal used as a strategy is parsed as `ATOM{m,n}` where ATOM
/// is `.` or a `[...]` class without escapes — the subset the workspace's
/// tests use. Anything else panics loudly rather than silently generating
/// the wrong language.
struct StringPattern {
    class: CharClass,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> StringPattern {
    let unsupported = || -> ! {
        panic!(
            "proptest shim: unsupported regex {pattern:?} (supported: `.` or \
             `[chars]` followed by an optional {{m,n}} repetition)"
        )
    };
    let (class, rest) = if let Some(rest) = pattern.strip_prefix('[') {
        let close = rest.find(']').unwrap_or_else(|| unsupported());
        let (body, rest) = rest.split_at(close);
        let chars: Vec<char> = body.chars().collect();
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if i + 2 < chars.len() && chars[i + 1] == '-' {
                assert!(chars[i] <= chars[i + 2], "bad class range in {pattern:?}");
                ranges.push((chars[i], chars[i + 2]));
                i += 3;
            } else {
                ranges.push((chars[i], chars[i]));
                i += 1;
            }
        }
        if ranges.is_empty() {
            unsupported();
        }
        (CharClass::Set(ranges), &rest[1..])
    } else if let Some(rest) = pattern.strip_prefix('.') {
        (CharClass::Dot, rest)
    } else {
        unsupported()
    };
    let (min, max) = if rest.is_empty() {
        (1, 1)
    } else {
        let body = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .unwrap_or_else(|| unsupported());
        match body.split_once(',') {
            Some((lo, hi)) => (
                lo.trim().parse().unwrap_or_else(|_| unsupported()),
                hi.trim().parse().unwrap_or_else(|_| unsupported()),
            ),
            None => {
                let n = body.trim().parse().unwrap_or_else(|_| unsupported());
                (n, n)
            }
        }
    };
    assert!(min <= max, "empty repetition in {pattern:?}");
    StringPattern { class, min, max }
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let pat = parse_pattern(self);
        let len = pat.min + rng.below((pat.max - pat.min + 1) as u64) as usize;
        let mut out = String::with_capacity(len);
        for _ in 0..len {
            let c = match &pat.class {
                CharClass::Dot => char::from(0x20 + rng.below(0x5F) as u8),
                CharClass::Set(ranges) => {
                    let total: u64 = ranges
                        .iter()
                        .map(|(lo, hi)| *hi as u64 - *lo as u64 + 1)
                        .sum();
                    let mut pick = rng.below(total);
                    let mut chosen = ranges[0].0;
                    for (lo, hi) in ranges {
                        let span = *hi as u64 - *lo as u64 + 1;
                        if pick < span {
                            chosen = char::from_u32(*lo as u32 + pick as u32)
                                .expect("class range stays in char space");
                            break;
                        }
                        pick -= span;
                    }
                    chosen
                }
            };
            out.push(c);
        }
        out
    }
}

// ----- tuple strategies -----------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
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

// ----- collections & sampling ----------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of `element` values with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    pub struct Select<T: Clone>(Vec<T>);

    /// Uniform choice from a fixed set of values.
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select from empty set");
        Select(values)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

// ----- macros ---------------------------------------------------------------

/// Uniform union of strategies producing the same `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right,
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left,
            )));
        }
    }};
}

/// Skip the current case when its generated input is unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The property-test harness: each `#[test] fn name(arg in strategy, ...)`
/// becomes a plain `#[test]` running `cases` deterministic iterations.
/// Attributes written after `#[test]` (`#[ignore]`, `#[should_panic]`, …)
/// are carried over to the generated test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( #[test] $(#[$attr:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            #[test]
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __proptest_rng = $crate::TestRng::deterministic(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => panic!(
                            "property `{}` failed at case #{case} (no shrinking in offline shim):\n{msg}",
                            stringify!($name),
                        ),
                    }
                }
            }
        )*
    };
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_subset() {
        let mut rng = crate::TestRng::deterministic("pattern", 0);
        for _ in 0..200 {
            let s = "[a-zA-Z0-9._ -]{1,24}".generate(&mut rng);
            assert!((1..=24).contains(&s.len()));
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || ".-_ ".contains(c)));
            let t = ".{1,64}".generate(&mut rng);
            assert!(t.is_ascii() && (1..=64).contains(&t.len()));
        }
    }

    #[test]
    fn ranges_tuples_vec_select_oneof() {
        let mut rng = crate::TestRng::deterministic("combined", 1);
        let strat = prop::collection::vec(
            prop_oneof![
                (0u8..12, any::<u16>()).prop_map(|(k, v)| (k as u64, v as u64)),
                Just((99u64, 0u64)),
            ],
            1..20,
        );
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..20).contains(&v.len()));
            for (k, _) in v {
                assert!(k < 12 || k == 99);
            }
        }
        let pick = prop::sample::select(vec!["a", "b"]).generate(&mut rng);
        assert!(pick == "a" || pick == "b");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn harness_runs_and_binds(x in 0u64..50, ys in prop::collection::vec(0i32..5, 0..4)) {
            prop_assume!(x != 13);
            prop_assert!(x < 50);
            prop_assert_eq!(ys.len() < 4, true, "len {} out of bounds", ys.len());
            prop_assert_ne!(x, 13);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        #[should_panic(expected = "property `attributes_reach_the_generated_test` failed")]
        fn attributes_reach_the_generated_test(x in 0u64..4) {
            prop_assert!(x > 4);
        }
    }

    #[test]
    fn determinism_per_case() {
        let a = {
            let mut rng = crate::TestRng::deterministic("det", 7);
            (0u64..1000).generate(&mut rng)
        };
        let b = {
            let mut rng = crate::TestRng::deterministic("det", 7);
            (0u64..1000).generate(&mut rng)
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unsupported regex")]
    fn unsupported_regex_panics() {
        let mut rng = crate::TestRng::deterministic("bad", 0);
        let _ = "a+b*".generate(&mut rng);
    }
}
