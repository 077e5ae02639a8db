//! Deterministic chaos engineering for the query engine.
//!
//! Production resilience claims are worthless untested; this crate
//! tests them the only way the repo's determinism contract allows:
//! faults are *drawn, not rolled*. A [`ChaosInjector`] decides the
//! fault for `(query, attempt)` from its own jumped RNG stream —
//! `seed ⊕ canonical_hash`, jumped once per attempt — so the decision
//! is a pure function of the configuration and the request, never of
//! thread interleaving, wall clock, or call order. Running the same
//! drill at `RCS_THREADS=1` and `=4` injects the *same* worker panics,
//! the *same* NaN-poisoned inputs, the *same* forced non-convergences
//! and the *same* inflated work costs, which is what lets E19
//! ([`e19_chaos_drill`]) pin `resilience.*` recovery counters in a
//! committed golden.
//!
//! # Examples
//!
//! ```
//! use rcs_chaos::{ChaosConfig, ChaosInjector};
//! use rcs_query::{DesignQuery, FaultInjector};
//!
//! let injector = ChaosInjector::new(ChaosConfig {
//!     panic_p: 1.0, // always
//!     ..ChaosConfig::quiet(7)
//! });
//! let q = DesignQuery::parse("family=skat util=0.8").unwrap();
//! assert!(injector.fault_for(&q, 0).is_some());
//! // Same query, same attempt → same decision, forever.
//! assert_eq!(injector.fault_for(&q, 0), injector.fault_for(&q, 0));
//! ```

#![warn(missing_docs)]
// Same resilience gate as the engine crates: the chaos layer runs
// inside workers too.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod e19_chaos_drill;

use rcs_numeric::rng::Rng;
use rcs_query::{DesignQuery, FaultInjector, InjectedFault};

/// Per-attempt fault probabilities and magnitudes. Probabilities are
/// evaluated as disjoint bands of one uniform draw, in declaration
/// order (panic, poison, no-convergence, inflate); their sum is clamped
/// into `[0, 1]` by that construction — an over-specified config simply
/// saturates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Stream seed; XORed with each query's canonical hash.
    pub seed: u64,
    /// P(worker panic) per attempt.
    pub panic_p: f64,
    /// P(NaN-poisoned utilization) per attempt.
    pub poison_p: f64,
    /// P(forced solver non-convergence) per attempt.
    pub no_convergence_p: f64,
    /// P(inflated work cost) per attempt.
    pub inflate_p: f64,
    /// Work units charged when an inflation fires.
    pub inflate_units: u64,
}

impl ChaosConfig {
    /// A configuration that never injects anything — the identity
    /// element of the drill matrix.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            panic_p: 0.0,
            poison_p: 0.0,
            no_convergence_p: 0.0,
            inflate_p: 0.0,
            inflate_units: 0,
        }
    }
}

/// A [`FaultInjector`] drawing faults from jumped RNG streams.
///
/// Stream derivation: `Rng::seed_from_u64(seed ⊕ query.canonical_hash())`,
/// then `attempt + 1` [`Rng::jump`]s — each attempt reads a disjoint
/// 2¹²⁸-step subsequence of the same stream, so transient faults (fault
/// at attempt 0, clean at attempt 1) arise naturally and retry
/// recovery gets exercised without any mutable injector state.
#[derive(Debug, Clone, Copy)]
pub struct ChaosInjector {
    config: ChaosConfig,
}

impl ChaosInjector {
    /// An injector for the given configuration.
    #[must_use]
    pub fn new(config: ChaosConfig) -> Self {
        Self { config }
    }
}

impl FaultInjector for ChaosInjector {
    fn fault_for(&self, query: &DesignQuery, attempt: u32) -> Option<InjectedFault> {
        let c = &self.config;
        let mut rng = Rng::seed_from_u64(c.seed ^ query.canonical_hash());
        for _ in 0..=attempt {
            rng.jump();
        }
        let u = rng.next_f64();
        let mut band = c.panic_p;
        if u < band {
            return Some(InjectedFault::Panic);
        }
        band += c.poison_p;
        if u < band {
            return Some(InjectedFault::PoisonUtilization);
        }
        band += c.no_convergence_p;
        if u < band {
            return Some(InjectedFault::ForceNoConvergence);
        }
        band += c.inflate_p;
        if u < band {
            return Some(InjectedFault::InflateWork(c.inflate_units));
        }
        None
    }
}

/// Replaces the default panic hook with a silent one for the duration
/// of a chaos run, so hundreds of *injected* worker panics don't bury
/// the experiment's real output in backtrace spam. Call once from a
/// binary's `main` before the first drill; panics are still caught and
/// converted by the engine, only the hook's printing is suppressed.
pub fn silence_expected_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(spec: &str) -> DesignQuery {
        DesignQuery::parse(spec).expect("valid spec")
    }

    #[test]
    fn decisions_are_pure_functions_of_query_and_attempt() {
        let injector = ChaosInjector::new(ChaosConfig {
            panic_p: 0.25,
            poison_p: 0.25,
            no_convergence_p: 0.25,
            inflate_p: 0.25,
            inflate_units: 100,
            ..ChaosConfig::quiet(99)
        });
        let queries = [
            q("family=skat util=0.6"),
            q("family=skat util=0.7"),
            q("family=taygeta util=0.6"),
            q("family=rigel2 util=0.9"),
        ];
        for query in &queries {
            for attempt in 0..4 {
                assert_eq!(
                    injector.fault_for(query, attempt),
                    injector.fault_for(query, attempt),
                    "{query:?} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let injector = ChaosInjector::new(ChaosConfig::quiet(1));
        for seed in 0..50 {
            let query = q(&format!("family=skat seed={seed}"));
            assert_eq!(injector.fault_for(&query, 0), None);
        }
    }

    #[test]
    fn saturated_config_always_injects() {
        let injector = ChaosInjector::new(ChaosConfig {
            panic_p: 1.0,
            ..ChaosConfig::quiet(1)
        });
        for seed in 0..50 {
            let query = q(&format!("family=skat seed={seed}"));
            assert_eq!(injector.fault_for(&query, 0), Some(InjectedFault::Panic));
        }
    }

    #[test]
    fn bands_cover_every_fault_kind_across_a_population() {
        let injector = ChaosInjector::new(ChaosConfig {
            panic_p: 0.25,
            poison_p: 0.25,
            no_convergence_p: 0.25,
            inflate_p: 0.20,
            inflate_units: 7,
            ..ChaosConfig::quiet(2024)
        });
        let mut seen = [0usize; 5];
        for seed in 0..400 {
            let query = q(&format!("family=skat seed={seed}"));
            let slot = match injector.fault_for(&query, 0) {
                Some(InjectedFault::Panic) => 0,
                Some(InjectedFault::PoisonUtilization) => 1,
                Some(InjectedFault::ForceNoConvergence) => 2,
                Some(InjectedFault::InflateWork(u)) => {
                    assert_eq!(u, 7);
                    3
                }
                None => 4,
            };
            seen[slot] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn attempts_read_disjoint_subsequences() {
        // With a 50% panic band, some query must decide differently
        // between attempt 0 and attempt 1 — the transient-fault shape.
        let injector = ChaosInjector::new(ChaosConfig {
            panic_p: 0.5,
            ..ChaosConfig::quiet(5)
        });
        let differs = (0..100).any(|seed| {
            let query = q(&format!("family=skat seed={seed}"));
            injector.fault_for(&query, 0) != injector.fault_for(&query, 1)
        });
        assert!(differs);
    }
}
