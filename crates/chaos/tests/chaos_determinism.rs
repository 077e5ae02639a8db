//! E19 chaos-drill pinning and the resilience determinism property:
//! any mixed ok/panic/fail batch yields bit-identical outcomes, cache
//! contents and `resilience.*` counters at `RCS_THREADS` 1/2/4 —
//! eviction order included.

use rcs_chaos::{e19_chaos_drill, ChaosConfig, ChaosInjector};
use rcs_obs::{Registry, Sinks};
use rcs_query::{DesignQuery, QueryEngine, QueryOutcome, ResiliencePolicy};

/// The golden counter names the determinism property compares.
const RESILIENCE_COUNTERS: &[&str] = &[
    "resilience.worker.panics",
    "resilience.retry.attempts",
    "resilience.retry.recoveries",
    "resilience.budget.exhausted",
    "resilience.failures.fatal",
    "resilience.failures.exhausted",
    "resilience.degraded.served",
    "resilience.degraded.unavailable",
    "resilience.injected.panics",
    "resilience.injected.poisoned",
    "resilience.injected.no_convergence",
    "resilience.injected.cost",
    "query.outcomes.ok",
    "query.outcomes.degraded",
    "query.outcomes.failed",
    "query.cache.hits",
    "query.cache.misses",
    "query.cache.evictions",
    "query.batch.coalesced",
];

#[test]
fn e19_counters_are_pinned() {
    std::panic::set_hook(Box::new(|_| {})); // injected panics are expected
    let obs = Registry::new();
    let tables = e19_chaos_drill::run(Sinks::counters(&obs));
    assert_eq!(tables.len(), 2);
    let snap = obs.snapshot();

    // 5 scenarios × 2 loads × 42 requests — none lost (the drill
    // asserts per-cell partition internally; the request counter proves
    // all ten cells ran).
    assert_eq!(snap.counter("query.requests"), 420);

    // The acceptance shape: worker panics AND forced non-convergences
    // were actually injected, retried, recovered from, shed against
    // budgets, and degraded onto neighbors.
    assert_eq!(snap.counter("resilience.injected.panics"), 34);
    assert_eq!(snap.counter("resilience.injected.no_convergence"), 38);
    assert_eq!(snap.counter("resilience.injected.poisoned"), 6);
    assert_eq!(snap.counter("resilience.injected.cost"), 120_000);
    assert_eq!(snap.counter("resilience.worker.panics"), 34);
    assert_eq!(snap.counter("resilience.retry.attempts"), 60);
    assert_eq!(snap.counter("resilience.retry.recoveries"), 10);
    assert_eq!(snap.counter("resilience.budget.exhausted"), 36);
    assert_eq!(snap.counter("resilience.failures.fatal"), 6);
    assert_eq!(snap.counter("resilience.failures.exhausted"), 12);
    assert_eq!(snap.counter("resilience.degraded.served"), 34);
    assert_eq!(snap.counter("resilience.degraded.unavailable"), 23);

    // Outcomes partition the 420 requests: 363 exact, 34 degraded, 23
    // failed (the ok tally below only counts batches that had faults —
    // clean batches stay counter-silent by design).
    assert_eq!(snap.counter("query.outcomes.degraded"), 34);
    assert_eq!(snap.counter("query.outcomes.failed"), 23);

    // Work mirrors carry the same values into the profile golden.
    assert_eq!(snap.counter("profile.resilience.worker.panics"), 34);
    assert_eq!(snap.counter("profile.resilience.injected.cost"), 120_000);
}

#[test]
fn e19_is_bit_identical_across_thread_counts() {
    std::panic::set_hook(Box::new(|_| {}));
    let run = |threads: usize| {
        let obs = Registry::new();
        let tables = e19_chaos_drill::run_with_threads(threads, Sinks::counters(&obs));
        (tables, obs.snapshot())
    };
    let (ref_tables, ref_snap) = run(1);
    for threads in [2, 4] {
        let (tables, snap) = run(threads);
        assert_eq!(ref_tables, tables, "tables differ at threads={threads}");
        for name in RESILIENCE_COUNTERS {
            assert_eq!(
                ref_snap.counter(name),
                snap.counter(name),
                "counter {name} at threads={threads}"
            );
        }
    }
}

/// The satellite property: random mixed batches through random chaos
/// configs and cache geometries produce bit-identical outcomes, cache
/// contents (eviction order included) and resilience counters at
/// threads 1/2/4.
#[test]
fn mixed_batches_are_thread_invariant_under_chaos() {
    std::panic::set_hook(Box::new(|_| {}));
    let families = ["rigel2", "taygeta", "skat", "skat_plus"];
    rcs_testkit::check_cases("chaos_thread_invariance", 6, |g| {
        // A random batch of 3–7 cheap queries (duplicates allowed).
        let n = g.draw(3..=7usize);
        let queries: Vec<DesignQuery> = (0..n)
            .map(|_| {
                let family = families[g.index(families.len())];
                let util = 0.5 + 0.1 * g.draw(0..=4u32) as f64;
                DesignQuery::parse(&format!("family={family} util={util} trials=6 seed=3"))
                    .expect("valid spec")
            })
            .collect();

        // A random chaos mix — heavy enough that faults actually fire.
        let config = ChaosConfig {
            seed: g.draw(0..=u64::MAX / 2),
            panic_p: 0.25 * g.draw(0.0..=1.0),
            poison_p: 0.15 * g.draw(0.0..=1.0),
            no_convergence_p: 0.35 * g.draw(0.0..=1.0),
            inflate_p: 0.30 * g.draw(0.0..=1.0),
            inflate_units: g.draw(500..=3_000u64),
        };
        let injector = ChaosInjector::new(config);
        let capacity = g.draw(0..=4usize); // zero-capacity included
        let policy = ResiliencePolicy {
            max_attempts: g.draw(1..=3u32),
            work_budget: if g.bool(0.5) { 2_000 } else { u64::MAX },
            degrade_window: if g.bool(0.5) { 0.3 } else { 0.05 },
        };

        let run = |threads: usize| {
            let obs = Registry::new();
            let mut engine = QueryEngine::new(capacity).with_policy(policy);
            let outcomes =
                engine.run_batch_with(&queries, threads, Sinks::counters(&obs), &injector);
            (
                outcomes,
                engine.cache().keys_in_eviction_order(),
                obs.snapshot(),
            )
        };
        let (ref_outcomes, ref_order, ref_snap) = run(1);
        assert_eq!(ref_outcomes.len(), queries.len(), "no request may be lost");
        for threads in [2, 4] {
            let (outcomes, order, snap) = run(threads);
            assert_eq!(outcomes.len(), ref_outcomes.len());
            for (i, (a, b)) in ref_outcomes.iter().zip(&outcomes).enumerate() {
                assert!(
                    a.bitwise_eq(b),
                    "outcome {i} at threads={threads}: {a:?} vs {b:?}"
                );
            }
            assert_eq!(order, ref_order, "eviction order at threads={threads}");
            for name in RESILIENCE_COUNTERS {
                assert_eq!(
                    ref_snap.counter(name),
                    snap.counter(name),
                    "counter {name} at threads={threads}"
                );
            }
        }

        // Sanity: degraded outcomes must carry self-consistent
        // provenance.
        for outcome in &ref_outcomes {
            if let QueryOutcome::Degraded {
                verdict,
                provenance,
            } = outcome
            {
                assert_ne!(provenance.requested_hash, provenance.source_hash);
                assert_eq!(verdict.query_hash, provenance.source_hash);
                assert!(provenance.delta_utilization <= policy.degrade_window);
            }
        }
    });
}
