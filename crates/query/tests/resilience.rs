//! The engine-level resilience contract: per-request containment,
//! deterministic retry/budget ladders, graceful degradation, the
//! zero-capacity cache, and the stability of error formatting.

use rcs_obs::span::{render_ndjson, SpanSink};
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};
use rcs_query::{
    solve_query, solve_query_resilient, DesignQuery, FaultInjector, InjectedFault, QueryCache,
    QueryEngine, QueryError, QueryOutcome, ResiliencePolicy, SolveDiagnostics,
};

fn q(spec: &str) -> DesignQuery {
    DesignQuery::parse(spec).expect("valid spec")
}

/// Injects one fixed fault into every attempt of queries whose
/// utilization matches `target` (bit-compared), clean otherwise.
struct FaultAt {
    target: f64,
    fault: InjectedFault,
}

impl FaultInjector for FaultAt {
    fn fault_for(&self, query: &DesignQuery, _attempt: u32) -> Option<InjectedFault> {
        (query.utilization.to_bits() == self.target.to_bits()).then_some(self.fault)
    }
}

/// Injects a fault only into attempt 0 of the matching query — the
/// transient-fault shape the retry ladder is meant to absorb.
struct TransientAt {
    target: f64,
    fault: InjectedFault,
}

impl FaultInjector for TransientAt {
    fn fault_for(&self, query: &DesignQuery, attempt: u32) -> Option<InjectedFault> {
        (attempt == 0 && query.utilization.to_bits() == self.target.to_bits()).then_some(self.fault)
    }
}

#[test]
fn zero_capacity_cache_is_a_pure_pass_through() {
    let mut cache = QueryCache::new(0);
    assert_eq!(cache.capacity(), 0);
    let query = q("family=skat trials=8");
    let hash = query.canonical_hash();
    let verdict = solve_query(&query, Registry::disabled()).expect("solves");

    // Insert is a no-op: nothing stored, nothing "evicted".
    assert_eq!(cache.insert(hash, query.clone(), verdict.clone()), None);
    assert!(cache.is_empty());
    assert_eq!(cache.len(), 0);
    assert!(cache.lookup(hash, &query).is_none());
    assert!(cache.keys_in_eviction_order().is_empty());
    assert!(cache.nearest_within(&query, 1.0).is_none());
}

#[test]
fn zero_capacity_engine_solves_every_round_without_eviction_churn() {
    let queries = vec![
        q("family=skat util=0.6 trials=8"),
        q("family=skat util=0.8 trials=8"),
    ];
    let obs = Registry::new();
    let mut engine = QueryEngine::new(0);
    for round in 1..=2 {
        let outcomes = engine.run_batch(&queries, 2, Sinks::counters(&obs));
        assert!(outcomes.iter().all(QueryOutcome::is_ok), "round {round}");
    }
    let snap = obs.snapshot();
    // Every request re-solves: no hits, no churn, no underflow.
    assert_eq!(snap.counter("query.cache.hits"), 0);
    assert_eq!(snap.counter("query.cache.misses"), 4);
    assert_eq!(snap.counter("query.cache.evictions"), 0);
    assert_eq!(engine.cache().len(), 0);
}

#[test]
fn error_classification_is_structural() {
    let retryable = [
        QueryError::NoConvergence {
            diagnostics: SolveDiagnostics {
                rungs_attempted: 3,
                iterations: 1200,
                last_residual: Some(0.5),
            },
        },
        QueryError::WorkerPanic {
            message: "boom".into(),
        },
    ];
    let fatal = [
        QueryError::Parse("bad".into()),
        QueryError::InvalidDesign {
            reason: "utilization NaN outside [0, 1]".into(),
        },
        QueryError::BudgetExhausted {
            spent: 10,
            budget: 5,
        },
    ];
    assert!(retryable.iter().all(QueryError::is_retryable));
    assert!(!fatal.iter().any(QueryError::is_retryable));
}

#[test]
fn display_prefixes_stay_stable() {
    assert_eq!(
        QueryError::Parse("bad key".into()).to_string(),
        "query parse error: bad key"
    );
    let nc = QueryError::NoConvergence {
        diagnostics: SolveDiagnostics {
            rungs_attempted: 2,
            iterations: 400,
            last_residual: None,
        },
    };
    assert!(nc.to_string().starts_with("query solve error: "), "{nc}");
    let invalid = QueryError::InvalidDesign {
        reason: "trials must be positive".into(),
    };
    assert_eq!(
        invalid.to_string(),
        "query solve error: trials must be positive"
    );
    assert_eq!(
        QueryError::WorkerPanic {
            message: "boom".into()
        }
        .to_string(),
        "query worker panic: boom"
    );
    assert_eq!(
        QueryError::BudgetExhausted {
            spent: 12,
            budget: 10
        }
        .to_string(),
        "query budget exhausted: 12 of 10 work units spent"
    );
}

#[test]
fn invalid_inputs_fail_fast_without_panicking_workers() {
    // A NaN utilization reaches the engine only via injection or direct
    // construction — either way it must become a structured fatal
    // error, not an assert inside the device layer.
    let mut poisoned = q("family=skat trials=8");
    poisoned.utilization = f64::NAN;
    let err = solve_query(&poisoned, Registry::disabled()).expect_err("NaN must be rejected");
    assert!(matches!(err, QueryError::InvalidDesign { .. }), "{err:?}");
    assert!(!err.is_retryable());

    let mut zero_trials = q("family=skat trials=8");
    zero_trials.trials = 0;
    let err = solve_query(&zero_trials, Registry::disabled()).expect_err("0 trials rejected");
    assert!(matches!(err, QueryError::InvalidDesign { .. }), "{err:?}");
}

#[test]
fn transient_panic_is_retried_and_recovers() {
    let queries = vec![q("family=skat util=0.7 trials=8")];
    let injector = TransientAt {
        target: 0.7,
        fault: InjectedFault::Panic,
    };
    let obs = Registry::new();
    let mut engine = QueryEngine::new(4);
    let outcomes = engine.run_batch_with(&queries, 1, Sinks::counters(&obs), &injector);
    assert!(outcomes[0].is_ok(), "{:?}", outcomes[0]);

    let snap = obs.snapshot();
    assert_eq!(snap.counter("resilience.worker.panics"), 1);
    assert_eq!(snap.counter("resilience.injected.panics"), 1);
    assert_eq!(snap.counter("resilience.retry.attempts"), 1);
    assert_eq!(snap.counter("resilience.retry.recoveries"), 1);
    // Profile mirrors carry the events into the work tree.
    assert_eq!(snap.counter("profile.resilience.worker.panics"), 1);
}

/// Damping escalates only after a stall: a panic says nothing about
/// convergence, so the retry after one re-runs the standard ladder and
/// does exactly the work, and lands on exactly the bits, of a direct
/// solve.
#[test]
fn a_retry_after_a_panic_reruns_the_standard_ladder() {
    // the retry rung 0.05/2400 would take 21 iterations here, against 7
    let query = q("family=skat util=0.85 trials=8");
    let injector = TransientAt {
        target: 0.85,
        fault: InjectedFault::Panic,
    };
    let (obs, direct) = (Registry::new(), Registry::new());
    let policy = ResiliencePolicy::default();
    let verdict = solve_query_resilient(&query, &policy, &injector, Sinks::counters(&obs));
    let expected = solve_query(&query, &direct).expect("solves");
    let work = "profile.immersion.fixed_point_iterations";
    assert_eq!(obs.snapshot().counter("resilience.retry.recoveries"), 1);
    assert_eq!(
        obs.snapshot().counter(work),
        direct.snapshot().counter(work)
    );
    assert!(verdict.expect("the retry recovers").bitwise_eq(&expected));
}

#[test]
fn persistent_panic_exhausts_the_ladder_and_fails_only_itself() {
    let queries = vec![
        q("family=skat util=0.6 trials=8"),
        q("family=skat util=0.7 trials=8"), // the cursed one
        q("family=skat util=0.8 trials=8"),
    ];
    let injector = FaultAt {
        target: 0.7,
        fault: InjectedFault::Panic,
    };
    let obs = Registry::new();
    let mut engine = QueryEngine::new(4).with_policy(ResiliencePolicy {
        degrade_window: 0.0, // disable degradation to see the raw failure
        ..ResiliencePolicy::default()
    });
    let outcomes = engine.run_batch_with(&queries, 2, Sinks::counters(&obs), &injector);
    assert_eq!(outcomes.len(), 3, "no request may be lost");
    assert!(outcomes[0].is_ok());
    assert!(outcomes[2].is_ok());
    let err = outcomes[1].error().expect("cursed query fails");
    assert!(matches!(err, QueryError::WorkerPanic { .. }), "{err:?}");

    let snap = obs.snapshot();
    // max_attempts=3, all panicked, none recovered.
    assert_eq!(snap.counter("resilience.worker.panics"), 3);
    assert_eq!(snap.counter("resilience.retry.attempts"), 2);
    assert_eq!(snap.counter("resilience.retry.recoveries"), 0);
    assert_eq!(snap.counter("resilience.failures.exhausted"), 1);
    // Siblings still entered the cache.
    assert_eq!(engine.cache().len(), 2);
}

#[test]
fn failed_requests_degrade_onto_the_nearest_cached_neighbor() {
    // util=0.75 is forced to fail; 0.70 and 0.80 solve in the same
    // batch and are both within the window — the scan must pick the
    // earliest-inserted of the equally-near pair.
    let queries = vec![
        q("family=skat util=0.70 trials=8"),
        q("family=skat util=0.80 trials=8"),
        q("family=skat util=0.75 trials=8"),
    ];
    let injector = FaultAt {
        target: 0.75,
        fault: InjectedFault::ForceNoConvergence,
    };
    let obs = Registry::new();
    let mut engine = QueryEngine::new(8).with_policy(ResiliencePolicy {
        degrade_window: 0.1,
        ..ResiliencePolicy::default()
    });
    let outcomes = engine.run_batch_with(&queries, 2, Sinks::counters(&obs), &injector);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok());
    let QueryOutcome::Degraded {
        verdict,
        provenance,
    } = &outcomes[2]
    else {
        panic!("expected degraded outcome, got {:?}", outcomes[2]);
    };
    assert_eq!(provenance.requested_hash, queries[2].canonical_hash());
    assert_eq!(
        provenance.source_hash,
        queries[0].canonical_hash(),
        "tie → earliest insert"
    );
    assert!((provenance.delta_utilization - 0.05).abs() < 1e-12);
    assert!(matches!(provenance.error, QueryError::NoConvergence { .. }));
    assert_eq!(verdict.query_hash, queries[0].canonical_hash());

    let snap = obs.snapshot();
    assert_eq!(snap.counter("resilience.injected.no_convergence"), 3);
    assert_eq!(snap.counter("resilience.degraded.served"), 1);
    assert_eq!(snap.counter("query.outcomes.degraded"), 1);
    assert_eq!(snap.counter("query.outcomes.ok"), 2);
}

#[test]
fn degradation_respects_the_window_and_the_design_axes() {
    // Same failing query, but only out-of-window or wrong-axis
    // neighbors are resident → Failed, not Degraded. The failing
    // query's utilization is one ulp off 0.75 so the injector hits it
    // alone, while keeping it inside the ±0.1 window of the (wrong-axis)
    // 0.75 neighbors.
    let target = 0.75 + f64::EPSILON;
    let mut cursed = q("family=skat util=0.75 trials=8");
    cursed.utilization = target;
    let queries = vec![
        q("family=skat util=0.40 trials=8"),    // same axes, too far
        q("family=taygeta util=0.75 trials=8"), // wrong family
        q("family=skat util=0.75 trials=8 coolant=mineral_oil_md45"), // wrong coolant
        cursed,
    ];
    let injector = FaultAt {
        target,
        fault: InjectedFault::Panic,
    };
    let obs = Registry::new();
    let mut engine = QueryEngine::new(8).with_policy(ResiliencePolicy {
        degrade_window: 0.1,
        ..ResiliencePolicy::default()
    });
    let outcomes = engine.run_batch_with(&queries, 1, Sinks::counters(&obs), &injector);
    assert!(outcomes[..3].iter().all(QueryOutcome::is_ok));
    assert!(outcomes[3].is_failed(), "{:?}", outcomes[3]);

    let snap = obs.snapshot();
    assert_eq!(snap.counter("resilience.degraded.unavailable"), 1);
    assert_eq!(snap.counter("query.outcomes.failed"), 1);
}

#[test]
fn work_budgets_shed_requests_deterministically() {
    // An inflated work cost larger than the budget trips the deadline
    // before the solve runs; with an empty cache the request fails as
    // BudgetExhausted carrying the exact spent/budget pair. The budget
    // reads each request's own shard registry, which is live even when
    // the caller's sinks are disabled — so the outcome may not depend
    // on whether the batch was observed.
    let queries = vec![q("family=skat util=0.9 trials=8")];
    let injector = FaultAt {
        target: 0.9,
        fault: InjectedFault::InflateWork(10_000),
    };
    let run = |sinks: Sinks<'_>| {
        let mut engine = QueryEngine::new(4).with_policy(ResiliencePolicy {
            work_budget: 5_000,
            ..ResiliencePolicy::default()
        });
        engine.run_batch_with(&queries, 1, sinks, &injector)
    };
    let (obs, trace, spans) = (Registry::new(), TraceRecorder::new(), SpanSink::new());
    let outcomes = run(Sinks {
        obs: &obs,
        trace: &trace,
        spans: &spans,
    });
    let err = outcomes[0].error().expect("budget must trip");
    let QueryError::BudgetExhausted { spent, budget } = err else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    assert_eq!(*budget, 5_000);
    assert_eq!(*spent, 10_000, "exactly the injected inflation");
    assert!(!err.is_retryable());

    let snap = obs.snapshot();
    assert_eq!(snap.counter("resilience.budget.exhausted"), 1);
    assert_eq!(snap.counter("resilience.injected.cost"), 10_000);
    assert_eq!(snap.counter("profile.resilience.injected.cost"), 10_000);
    assert!(render_ndjson(&spans.snapshot()).contains("\"label\":\"budget\""));

    let unobserved = run(Sinks::disabled());
    assert_eq!(unobserved.len(), outcomes.len());
    for (a, b) in unobserved.iter().zip(&outcomes) {
        assert!(a.bitwise_eq(b), "{a:?} != {b:?}");
    }
}

#[test]
fn mixed_batches_are_bit_identical_at_every_thread_count() {
    // ok + transient panic + persistent noconv + poison, through a
    // tight cache: outcomes, counters and eviction order must match
    // across thread counts.
    let queries = vec![
        q("family=skat util=0.60 trials=8"),
        q("family=skat util=0.65 trials=8"),
        q("family=skat util=0.70 trials=8"), // transient panic
        q("family=skat util=0.75 trials=8"), // persistent noconv → degraded
        q("family=rigel2 util=0.50 trials=8"),
        q("family=skat util=0.60 trials=8"), // duplicate
    ];
    struct Mixed;
    impl FaultInjector for Mixed {
        fn fault_for(&self, query: &DesignQuery, attempt: u32) -> Option<InjectedFault> {
            let u = query.utilization.to_bits();
            if u == 0.70f64.to_bits() && attempt == 0 {
                Some(InjectedFault::Panic)
            } else if u == 0.75f64.to_bits() {
                Some(InjectedFault::ForceNoConvergence)
            } else {
                None
            }
        }
    }

    let run = |threads: usize| {
        let obs = Registry::new();
        let mut engine = QueryEngine::new(3);
        let outcomes = engine.run_batch_with(&queries, threads, Sinks::counters(&obs), &Mixed);
        (
            outcomes,
            engine.cache().keys_in_eviction_order(),
            obs.snapshot(),
        )
    };
    let (ref_outcomes, ref_order, ref_snap) = run(1);
    assert!(ref_outcomes[3].is_degraded(), "{:?}", ref_outcomes[3]);
    for threads in [2, 4] {
        let (outcomes, order, snap) = run(threads);
        assert_eq!(outcomes.len(), ref_outcomes.len());
        for (i, (a, b)) in ref_outcomes.iter().zip(&outcomes).enumerate() {
            assert!(a.bitwise_eq(b), "outcome {i} at threads={threads}");
        }
        assert_eq!(order, ref_order, "eviction order at threads={threads}");
        for name in [
            "resilience.worker.panics",
            "resilience.retry.attempts",
            "resilience.retry.recoveries",
            "resilience.injected.no_convergence",
            "resilience.failures.exhausted",
            "resilience.degraded.served",
            "query.outcomes.ok",
            "query.outcomes.degraded",
            "query.cache.evictions",
        ] {
            assert_eq!(
                ref_snap.counter(name),
                snap.counter(name),
                "counter {name} at threads={threads}"
            );
        }
    }
}

#[test]
fn empty_batch_emits_a_clean_zero_counter_manifest() {
    // A batch of zero requests is a legal call: the run is counted, the
    // cache/coalescing tallies all land at an explicit zero, and no
    // outcome or resilience channel appears at all — an empty batch is
    // not an "incident" the event-driven channels should invent.
    let obs = Registry::new();
    let mut engine = QueryEngine::new(4);
    let outcomes = engine.run_batch(&[], 4, Sinks::counters(&obs));
    assert!(outcomes.is_empty());
    assert!(engine.cache().is_empty());

    let snap = obs.snapshot();
    assert_eq!(snap.counter("query.batch.runs"), 1);
    for zeroed in [
        "query.requests",
        "query.cache.hits",
        "query.cache.misses",
        "query.batch.coalesced",
        "query.cache.evictions",
    ] {
        assert_eq!(snap.counter(zeroed), 0, "{zeroed}");
        assert!(
            snap.counters.iter().any(|(name, _)| name == zeroed),
            "{zeroed} must be present (at zero), not missing, so manifest \
             diffs across legs never see a channel appear"
        );
    }
    for absent in [
        "query.outcomes.ok",
        "query.outcomes.degraded",
        "query.outcomes.failed",
        "resilience.degraded.served",
        "resilience.degraded.unavailable",
    ] {
        assert!(
            snap.counters.iter().all(|(name, _)| name != absent),
            "{absent} is event-driven and must stay absent for an empty batch"
        );
    }
}

#[test]
fn all_invalid_batch_fails_every_request_without_touching_the_cache() {
    // Structurally invalid queries (buildable only by direct field
    // mutation) must each fail fatally — contained per request, no
    // retries burned, nothing cached, and the outcome tallies recorded.
    let mut nan_util = q("family=skat trials=8");
    nan_util.utilization = f64::NAN;
    let mut zero_trials = q("family=skat util=0.5 trials=8");
    zero_trials.trials = 0;
    let queries = vec![nan_util, zero_trials];

    let obs = Registry::new();
    let mut engine = QueryEngine::new(4);
    let outcomes = engine.run_batch(&queries, 2, Sinks::counters(&obs));
    assert_eq!(outcomes.len(), 2);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            QueryOutcome::Failed(e) => {
                assert!(matches!(e, QueryError::InvalidDesign { .. }), "{e:?}");
                assert!(!e.is_retryable(), "request {i}");
            }
            other => panic!("request {i} should fail fatally, got {other:?}"),
        }
    }
    assert!(engine.cache().is_empty(), "failed verdicts must not cache");

    let snap = obs.snapshot();
    assert_eq!(snap.counter("query.requests"), 2);
    assert_eq!(snap.counter("query.cache.misses"), 2);
    assert_eq!(snap.counter("query.cache.hits"), 0);
    assert_eq!(snap.counter("query.outcomes.failed"), 2);
    assert_eq!(snap.counter("query.outcomes.ok"), 0);
    assert!(
        snap.counters
            .iter()
            .any(|(name, _)| name == "query.outcomes.ok"),
        "a batch with failures records the ok tally explicitly, even at zero"
    );
    assert_eq!(snap.counter("resilience.retry.attempts"), 0);
    assert_eq!(snap.counter("resilience.degraded.unavailable"), 2);
}
