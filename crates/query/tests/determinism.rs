//! The query-service determinism contract, end to end: identical bytes
//! at every thread count, cache hits bit-equal to cold recomputation,
//! deterministic FIFO eviction, and spec canonicalization.

use rcs_obs::{Registry, Sinks};
use rcs_query::{solve_query, DesignQuery, DesignVerdict, QueryEngine, QueryOutcome};

/// Unwraps a batch of outcomes into exact verdicts — every query in
/// these tests is a known-good design point.
fn verdicts(outcomes: Vec<QueryOutcome>) -> Vec<DesignVerdict> {
    outcomes
        .into_iter()
        .map(|o| match o {
            QueryOutcome::Ok(v) => v,
            other => panic!("expected exact verdict, got {other:?}"),
        })
        .collect()
}

/// A small mixed batch: three families, two baths, one duplicate.
fn batch() -> Vec<DesignQuery> {
    let specs = [
        "family=skat util=0.85 trials=48 seed=11",
        "family=rigel2 util=0.60 trials=48 seed=11",
        "family=skat_plus bath=skat_plus util=1.0 trials=48 seed=11",
        "family=taygeta util=0.75 trials=48 seed=11",
        "family=skat util=0.85 trials=48 seed=11", // duplicate of [0]
    ];
    specs
        .iter()
        .map(|s| DesignQuery::parse(s).expect("valid spec"))
        .collect()
}

fn assert_all_bitwise_eq(a: &[DesignVerdict], b: &[DesignVerdict], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.bitwise_eq(y),
            "{what}: verdict {i} differs:\n{x:?}\nvs\n{y:?}"
        );
    }
}

#[test]
fn batch_results_are_bit_identical_at_every_thread_count() {
    let queries = batch();
    let reference_obs = Registry::new();
    let reference =
        verdicts(QueryEngine::new(8).run_batch(&queries, 1, Sinks::counters(&reference_obs)));
    let reference_snap = reference_obs.snapshot();

    for threads in [2, 4] {
        let obs = Registry::new();
        let got = verdicts(QueryEngine::new(8).run_batch(&queries, threads, Sinks::counters(&obs)));
        assert_all_bitwise_eq(&reference, &got, &format!("threads={threads}"));

        // The golden counters are part of the contract too.
        let snap = obs.snapshot();
        for name in [
            "query.requests",
            "query.cache.hits",
            "query.cache.misses",
            "query.batch.coalesced",
            "query.cache.evictions",
            "profile.query.cache.hits",
            "profile.query.cache.misses",
        ] {
            assert_eq!(
                reference_snap.counter(name),
                snap.counter(name),
                "counter {name} at threads={threads}"
            );
        }
    }
}

#[test]
fn cache_hits_are_bit_identical_to_cold_recomputation() {
    let queries = batch();
    for threads in [1, 2, 4] {
        let obs = Registry::new();
        let mut engine = QueryEngine::new(8);
        let cold = verdicts(engine.run_batch(&queries, threads, Sinks::counters(&obs)));
        assert_eq!(obs.snapshot().counter("query.cache.hits"), 0);

        // Second pass: everything resident, served from the cache.
        let warm = verdicts(engine.run_batch(&queries, threads, Sinks::counters(&obs)));
        assert_eq!(
            obs.snapshot().counter("query.cache.hits"),
            queries.len() as u64,
            "second pass must be all hits"
        );
        assert_all_bitwise_eq(&cold, &warm, &format!("warm-vs-cold threads={threads}"));

        // And both equal a direct, engine-free solve.
        let direct = solve_query(&queries[0], Registry::disabled()).expect("direct solve");
        assert!(direct.bitwise_eq(&cold[0]), "direct-vs-batch");
    }
}

#[test]
fn eviction_order_is_deterministic_and_thread_invariant() {
    let queries = batch(); // 4 distinct + 1 duplicate
    let expected_survivors: Vec<u64> = queries[2..4]
        .iter()
        .map(DesignQuery::canonical_hash)
        .collect();

    let mut orders = Vec::new();
    for threads in [1, 2, 4] {
        let obs = Registry::new();
        let mut engine = QueryEngine::new(2);
        verdicts(engine.run_batch(&queries, threads, Sinks::counters(&obs)));
        // Four distinct misses through a 2-slot FIFO: the first two
        // inserts were evicted by the last two, in insertion order.
        assert_eq!(obs.snapshot().counter("query.cache.evictions"), 2);
        assert_eq!(engine.cache().keys_in_eviction_order(), expected_survivors);
        orders.push(engine.cache().keys_in_eviction_order());
    }
    assert!(orders.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn permuted_specs_share_one_canonical_hash() {
    let spellings = [
        "family=skat_plus coolant=src_dielectric bath=skat_plus util=0.9 trials=64 seed=5",
        "seed=5 trials=64 util=0.9 bath=skat_plus coolant=src_dielectric family=skat_plus",
        "bath=skat_plus, family=skat_plus, util=0.9, seed=5, coolant=src_dielectric, trials=64",
    ];
    let hashes: Vec<u64> = spellings
        .iter()
        .map(|s| DesignQuery::parse(s).expect("valid").canonical_hash())
        .collect();
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");

    // Defaults spelled out hash the same as defaults left implicit.
    let implicit = DesignQuery::parse("family=skat").expect("valid");
    let explicit = DesignQuery::parse(
        "family=skat coolant=src_dielectric bath=skat util=0.85 trials=256 seed=42",
    )
    .expect("valid");
    assert_eq!(implicit.canonical_hash(), explicit.canonical_hash());

    // And a one-field change lands elsewhere.
    let other = DesignQuery::parse("family=skat util=0.8").expect("valid");
    assert_ne!(implicit.canonical_hash(), other.canonical_hash());
}
