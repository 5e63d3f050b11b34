//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build container has no crates-io access, so the workspace patches
//! `proptest` to this shim (see `shims/README.md`). Covered surface: the
//! `proptest!` test macro (with optional `#![proptest_config(..)]`),
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, integer-range and
//! tuple strategies, `collection::vec`, and `Strategy::prop_map`.
//!
//! Deliberate divergences from upstream: no shrinking (a failing case
//! reports the sampled values via the assertion message but is not
//! minimized), no failure-persistence files, and sampling is fully
//! deterministic — the RNG is seeded from the test function's name, so a
//! failure always reproduces without a persisted seed.

use std::ops::{Range, RangeInclusive};

/// Deterministic per-test sampler (SplitMix64 stream).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Value source, mirroring `proptest::strategy::Strategy` minus shrinking.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = self.end.abs_diff(self.start) as u128;
                let draw = (rng.next_u64() as u128 * span) >> 64;
                self.start.wrapping_add(draw as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty strategy range");
                let span = self.end().abs_diff(*self.start()) as u128 + 1;
                let draw = (rng.next_u64() as u128 * span) >> 64;
                self.start().wrapping_add(draw as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let u = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
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
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Length spec for [`vec()`]: a fixed size or a sampled range.
    pub trait SizeRange {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            Strategy::sample(self, rng)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            Strategy::sample(self, rng)
        }
    }

    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// Mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy, L: SizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }
}

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; the workspace's property bodies are
        // exact-rational algebra, cheap enough to keep that.
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Mirrors `proptest::proptest!`: turns `fn name(arg in strategy, ..)`
/// items into `#[test]` functions that sample and run `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { <$crate::ProptestConfig as ::std::default::Default>::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __proptest_case in 0..config.cases {
                let _ = __proptest_case;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                // The case body runs inside a closure so `prop_assume!`'s
                // early `return` rejects the whole case even when written
                // inside a loop in the body (upstream semantics, where a
                // bare `continue` would only skip that loop's iteration).
                (|| $body)();
            }
        }
    )*};
}

/// Mirrors `prop_assert!` (panics instead of returning `Err`; no shrink
/// phase needs the error value).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Mirrors `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Mirrors `prop_assume!`: a failed assumption rejects the current case
/// (the optional message, used by upstream for rejection stats, is
/// accepted and discarded).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::from_name("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let v = crate::Strategy::sample(&(-20i128..20), &mut rng);
            assert!((-20..20).contains(&v));
            let u = crate::Strategy::sample(&(0u8..3), &mut rng);
            assert!(u < 3);
            let w = crate::Strategy::sample(&(0usize..=4), &mut rng);
            assert!(w <= 4);
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let strat = collection::vec((0i32..10, 1i32..5), 0..6).prop_map(|v| v.len());
        let mut rng = crate::TestRng::from_name("vec_and_map_compose");
        for _ in 0..100 {
            assert!(crate::Strategy::sample(&strat, &mut rng) < 6);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    // The workspace's seeded test data (snapshot, nodal and modal–nodal
    // tests, the rayon stress suite) draws from `TestRng` directly, so
    // pin what those tests rely on: a fixed stream per name, float draws
    // inside and across their range, every integer of a small range hit.

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = crate::TestRng::from_name("seed 42");
        let mut b = crate::TestRng::from_name("seed 42");
        let mut c = crate::TestRng::from_name("seed 43");
        let (mut same, mut differ) = (true, false);
        for _ in 0..100 {
            let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
            same &= x == y;
            differ |= x != z;
        }
        assert!(same && differ);
    }

    #[test]
    fn range_respected_and_varied() {
        let mut rng = crate::TestRng::from_name("seed 7");
        let mut lo_half = 0usize;
        for _ in 0..1000 {
            let x = crate::Strategy::sample(&(-1.0..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&x));
            if x < 0.0 {
                lo_half += 1;
            }
        }
        // Crude uniformity sanity: both halves populated.
        assert!(lo_half > 300 && lo_half < 700, "lo_half={lo_half}");
    }

    #[test]
    fn integer_range() {
        let mut rng = crate::TestRng::from_name("seed 3");
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[crate::Strategy::sample(&(0usize..5), &mut rng)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_shape_works(a in 0i64..100, b in 1i64..100) {
            prop_assume!(a != 0);
            prop_assert!(a * b != 0, "a={a} b={b}");
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn assume_inside_loop_rejects_whole_case(n in 3usize..6) {
            for i in 0..n {
                prop_assume!(i < 2, "rejected at i={}", i);
            }
            // Reached only if every iteration satisfied the assumption —
            // never, since n ≥ 3 guarantees i = 2 occurs. A `continue`
            // expansion would merely skip iterations and fall through.
            panic!("case with n={n} must have been rejected");
        }
    }
}
