//! Availability-study reuse across design points: a miss whose
//! `StudyKey` (bath, coolant, trials, seed) is already resident skips
//! the Monte-Carlo, and nothing observable but the work done changes —
//! verdicts stay bitwise equal to the uncached `solve_query`, and
//! outcomes, cache contents and counters stay thread-invariant.

use rcs_obs::{Registry, Sinks, Snapshot};
use rcs_query::{solve_query, DesignQuery, QueryEngine, QueryOutcome, StudyKey};

fn q(spec: &str) -> DesignQuery {
    DesignQuery::parse(spec).expect("valid spec")
}

fn queries(specs: &[&str]) -> Vec<DesignQuery> {
    specs.iter().map(|s| q(s)).collect()
}

/// Asserts every outcome is exact and bitwise equal to a direct,
/// engine-free solve of its query.
fn assert_matches_direct_solves(queries: &[DesignQuery], outcomes: &[QueryOutcome]) {
    assert_eq!(queries.len(), outcomes.len());
    for (query, outcome) in queries.iter().zip(outcomes) {
        let QueryOutcome::Ok(verdict) = outcome else {
            panic!(
                "{}: expected an exact verdict, got {outcome:?}",
                query.spec()
            );
        };
        let direct = solve_query(query, Registry::disabled()).expect("direct solve");
        assert!(
            direct.bitwise_eq(verdict),
            "{}: engine verdict differs from solve_query",
            query.spec()
        );
    }
}

#[test]
fn a_study_from_a_sibling_design_point_gives_the_uncached_verdict() {
    let obs = Registry::new();
    let mut engine = QueryEngine::new(8);
    let sibling = queries(&["family=skat util=0.6 trials=48 seed=11"]);
    engine.run_batch(&sibling, 1, Sinks::counters(&obs));
    assert_eq!(obs.snapshot().counter("mc.runs"), 1);

    // Another family at another utilization, same bath/coolant/trials/seed.
    let target = queries(&["family=taygeta util=0.85 trials=48 seed=11"]);
    assert_eq!(StudyKey::from(&target[0]), StudyKey::from(&sibling[0]));
    let outcomes = engine.run_batch(&target, 1, Sinks::counters(&obs));
    let snap = obs.snapshot();
    assert_eq!(snap.counter("query.cache.misses"), 2);
    assert_eq!(snap.counter("query.studies.reused"), 1);
    assert_eq!(
        snap.counter("mc.runs"),
        1,
        "the reused study did not re-run"
    );
    assert_matches_direct_solves(&target, &outcomes);
}

/// Warms an engine on one study, then answers a batch that mixes a
/// cache hit, misses on the resident study, misses on two fresh
/// studies, and an in-batch duplicate.
fn mixed_run(threads: usize) -> (Vec<QueryOutcome>, Vec<u64>, Vec<StudyKey>, Snapshot) {
    let obs = Registry::new();
    let mut engine = QueryEngine::new(6);
    let warm = queries(&["family=skat util=0.6 trials=48 seed=11"]);
    engine.run_batch(&warm, threads, Sinks::counters(&obs));
    let batch = queries(&[
        "family=skat util=0.6 trials=48 seed=11",   // hit
        "family=rigel2 util=0.6 trials=48 seed=11", // resident study
        "family=skat_plus bath=skat_plus util=1.0 trials=48 seed=11", // fresh
        "family=taygeta util=0.75 trials=48 seed=11", // resident study
        "family=skat util=0.85 trials=80 seed=5",   // fresh
        "family=rigel2 util=0.6 trials=48 seed=11", // duplicate
    ]);
    let outcomes = engine.run_batch(&batch, threads, Sinks::counters(&obs));
    assert_matches_direct_solves(&batch, &outcomes);
    (
        outcomes,
        engine.cache().keys_in_eviction_order(),
        engine.studies_in_eviction_order(),
        obs.snapshot(),
    )
}

#[test]
fn a_batch_of_resident_and_fresh_studies_is_identical_at_every_thread_count() {
    let (ref_outcomes, ref_cache, ref_studies, ref_snap) = mixed_run(1);
    assert_eq!(ref_snap.counter("query.cache.hits"), 1);
    assert_eq!(ref_snap.counter("query.cache.misses"), 5);
    assert_eq!(ref_snap.counter("query.studies.reused"), 2);
    // One warm-up study plus the two fresh ones.
    assert_eq!(ref_snap.counter("mc.runs"), 3);
    assert_eq!(ref_studies.len(), 3);
    for threads in [2, 4, 7] {
        let (outcomes, cache, studies, snap) = mixed_run(threads);
        assert!(
            outcomes
                .iter()
                .zip(&ref_outcomes)
                .all(|(a, b)| a.bitwise_eq(b)),
            "outcomes at threads={threads}"
        );
        assert_eq!(cache, ref_cache, "cache at threads={threads}");
        assert_eq!(studies, ref_studies, "studies at threads={threads}");
        assert_eq!(snap, ref_snap, "counters at threads={threads}");
    }
}

#[test]
fn a_zero_capacity_engine_reuses_no_study() {
    let obs = Registry::new();
    let mut engine = QueryEngine::new(0);
    let batches = [
        queries(&[
            "family=skat util=0.6 trials=16 seed=2",
            "family=rigel2 util=0.6 trials=16 seed=2",
        ]),
        queries(&[
            "family=taygeta util=0.9 trials=16 seed=2",
            "family=skat util=0.6 trials=16 seed=2",
            "family=skat util=0.6 trials=16 seed=2",
        ]),
    ];
    for batch in &batches {
        let outcomes = engine.run_batch(batch, 2, Sinks::counters(&obs));
        assert_matches_direct_solves(batch, &outcomes);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("mc.runs"), snap.counter("query.cache.misses"));
    }
    assert_eq!(obs.snapshot().counter("query.cache.misses"), 4);
    assert_eq!(obs.snapshot().counter("query.studies.reused"), 0);
    assert!(engine.studies_in_eviction_order().is_empty());
}

#[test]
fn misses_sharing_a_study_that_is_not_resident_each_run_it() {
    let obs = Registry::new();
    let mut engine = QueryEngine::new(8);
    let batch = queries(&[
        "family=skat util=0.6 trials=16 seed=4",
        "family=rigel2 util=0.9 trials=16 seed=4",
    ]);
    let outcomes = engine.run_batch(&batch, 2, Sinks::counters(&obs));
    assert_matches_direct_solves(&batch, &outcomes);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("mc.runs"), 2);
    assert_eq!(snap.counter("query.studies.reused"), 0);
    assert_eq!(
        engine.studies_in_eviction_order(),
        vec![StudyKey::from(&batch[0])]
    );
}

#[test]
fn studies_are_evicted_in_insertion_order() {
    let obs = Registry::new();
    let mut engine = QueryEngine::new(2);
    let [a, b, c] = [1u64, 2, 3].map(|seed| q(&format!("family=skat trials=16 seed={seed}")));
    engine.run_batch(&[a.clone(), b.clone(), c.clone()], 2, Sinks::counters(&obs));
    // Three fresh studies through a two-slot FIFO: the first is gone.
    assert_eq!(
        engine.studies_in_eviction_order(),
        vec![StudyKey::from(&b), StudyKey::from(&c)]
    );

    // A sibling of the evicted study runs it again and evicts the next
    // oldest; a sibling of a resident one reuses it.
    let a_sibling = q("family=rigel2 trials=16 seed=1");
    let c_sibling = q("family=taygeta trials=16 seed=3");
    let batch = [a_sibling, c_sibling];
    let outcomes = engine.run_batch(&batch, 2, Sinks::counters(&obs));
    assert_matches_direct_solves(&batch, &outcomes);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("query.studies.reused"), 1);
    assert_eq!(snap.counter("mc.runs"), 4);
    assert_eq!(
        engine.studies_in_eviction_order(),
        vec![StudyKey::from(&c), StudyKey::from(&a)]
    );
}
