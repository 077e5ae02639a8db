//! Deterministic, zero-dependency property testing for the `rcs-sim`
//! workspace.
//!
//! This is a deliberately small replacement for an external
//! property-testing crate: every property runs a **fixed number of
//! cases** (default `DEFAULT_CASES`) over inputs drawn from the
//! workspace's own deterministic generator
//! ([`rcs_numeric::rng::Rng`]). Case inputs are a pure function of the
//! property name and the case index, so a failure reproduces
//! bit-identically on every machine and every run — no shrinking is
//! needed to act on a report, because the failing case can always be
//! replayed directly with [`replay`].
//!
//! Case-count conventions used across the workspace:
//!
//! * [`check`] — 256 cases; the default for cheap, pure properties
//!   (unit arithmetic, correlations, catalogs).
//! * [`check_cases`] with 64 — properties that solve a network or other
//!   moderately expensive kernel per case.
//! * [`check_cases`] with 24–32 — properties that run a coupled solver
//!   or a Monte-Carlo study per case.
//!
//! # Examples
//!
//! ```
//! rcs_testkit::check("addition_commutes", |g| {
//!     let a = g.draw(-1e6..1e6f64);
//!     let b = g.draw(-1e6..1e6f64);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub use rcs_numeric::rng::{Rng, SampleRange};

/// Cases run by [`check`].
pub(crate) const DEFAULT_CASES: usize = 256;

/// A deterministic source of random test inputs for one case.
#[derive(Debug)]
pub struct Gen {
    rng: Rng,
}

impl Gen {
    /// Creates a generator for an explicit seed (used by the runner and
    /// by [`replay`]).
    #[must_use]
    pub(crate) fn from_seed(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Draws one uniform value from a range
    /// (e.g. `g.draw(0.1..5.0f64)`, `g.draw(1usize..=3)`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn draw<R: SampleRange>(&mut self, range: R) -> R::Output {
        self.rng.gen_range(range)
    }

    /// Draws an index into a collection of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.rng.gen_range(0..len)
    }

    /// Draws a `Vec<f64>` of exactly `len` values from `range`.
    pub fn vec_f64(&mut self, range: core::ops::Range<f64>, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| self.rng.gen_range(range.clone()))
            .collect()
    }

    /// Draws a `Vec<f64>` whose length is itself drawn from `len_range`.
    ///
    /// # Panics
    ///
    /// Panics if either range is empty.
    pub fn vec_f64_in(
        &mut self,
        range: core::ops::Range<f64>,
        len_range: core::ops::Range<usize>,
    ) -> Vec<f64> {
        let len = self.rng.gen_range(len_range);
        self.vec_f64(range, len)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// Direct access to the underlying generator, for properties that
    /// need distributions ([`Rng::exponential`], [`Rng::poisson`]) or
    /// want to fork a sub-stream.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// FNV-1a over the property name: a stable, platform-independent base
/// seed so each property explores its own input stream.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The seed for one case of one property — a pure function of both, so
/// any failure report can be replayed exactly.
fn case_seed(name: &str, case: usize) -> u64 {
    name_seed(name) ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `property` for `DEFAULT_CASES` deterministic cases.
///
/// `name` should match the enclosing test function; it selects the
/// input stream and appears in failure reports.
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case
/// number and seed.
pub fn check<F: FnMut(&mut Gen)>(name: &str, property: F) {
    check_cases(name, DEFAULT_CASES, property);
}

/// Runs `property` for exactly `cases` deterministic cases.
///
/// # Panics
///
/// Panics if `cases` is zero, and re-raises the property's panic after
/// printing the failing case number and seed.
pub fn check_cases<F: FnMut(&mut Gen)>(name: &str, cases: usize, mut property: F) {
    assert!(cases > 0, "a property needs at least one case");
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut g = Gen::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} (seed {seed:#018x}); \
                 rerun this single case with rcs_testkit::replay(\"{name}\", {case}, ...)"
            );
            resume_unwind(payload);
        }
    }
}

/// Re-runs exactly one case of a property, reproducing the inputs a
/// failure report named.
pub fn replay<F: FnMut(&mut Gen)>(name: &str, case: usize, mut property: F) {
    let mut g = Gen::from_seed(case_seed(name, case));
    property(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_distinct() {
        let mut first = Vec::new();
        check_cases("determinism_probe", 16, |g| first.push(g.draw(0.0..1.0f64)));
        let mut second = Vec::new();
        check_cases("determinism_probe", 16, |g| {
            second.push(g.draw(0.0..1.0f64));
        });
        assert_eq!(first, second);
        // distinct cases see distinct inputs
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn properties_get_independent_streams() {
        let mut a = Vec::new();
        check_cases("stream_a", 8, |g| a.push(g.draw(0u64..u64::MAX)));
        let mut b = Vec::new();
        check_cases("stream_b", 8, |g| b.push(g.draw(0u64..u64::MAX)));
        assert_ne!(a, b);
    }

    #[test]
    fn replay_reproduces_a_case() {
        let mut want = Vec::new();
        check_cases("replay_probe", 5, |g| want.push(g.draw(0.0..1.0f64)));
        let mut got = 0.0;
        replay("replay_probe", 3, |g| got = g.draw(0.0..1.0f64));
        assert_eq!(got, want[3]);
    }

    #[test]
    fn failing_case_report_propagates_the_panic() {
        let result = catch_unwind(|| {
            check_cases("always_fails", 4, |_g| {
                panic!("intentional");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn vec_helpers_respect_bounds() {
        check_cases("vec_bounds", 32, |g| {
            let fixed = g.vec_f64(-2.0..2.0, 7);
            assert_eq!(fixed.len(), 7);
            assert!(fixed.iter().all(|v| (-2.0..2.0).contains(v)));
            let var = g.vec_f64_in(0.0..1.0, 1..5);
            assert!((1..5).contains(&var.len()));
        });
    }
}
