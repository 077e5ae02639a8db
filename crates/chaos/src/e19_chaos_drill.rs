//! **E19** — the chaos drill: a fault × load matrix over the resilient
//! query engine.
//!
//! Each cell replays the E18 request grid (14 requests × 3 rounds = 42
//! requests) through a fresh [`rcs_query::QueryEngine`] while a
//! [`ChaosInjector`] deterministically injects one fault family —
//! worker panics, NaN-poisoned inputs, forced non-convergence, inflated
//! work costs, or a mix — under two load profiles (a roomy cache with
//! an unbounded work budget, and a tight cache with a finite budget and
//! a wide degradation window). The drill asserts the containment
//! contract cell by cell: **every request gets an outcome** (ok /
//! degraded / failed — never lost), successes still enter the cache,
//! and the per-cell recovery counters land in the run manifest, where
//! the committed `resilience.*` profile golden pins them at every
//! `RCS_THREADS`.

use rcs_core::experiments::Table;
use rcs_obs::Sinks;
use rcs_query::{
    e18_query_service, DesignQuery, QueryEngine, QueryError, QueryOutcome, ResiliencePolicy,
};

use crate::{ChaosConfig, ChaosInjector};

/// Chaos stream seed (XORed with each query's canonical hash).
pub const SEED: u64 = 19731102;

/// Availability trial budget per query — smaller than E18's so the ten
/// cells stay cheap; the grid hashes are distinct from E18's anyway.
pub(crate) const TRIALS: u32 = 40;

/// Rounds of the 14-request batch per cell (42 requests per cell).
pub const ROUNDS: usize = 3;

/// Finite work budget of the tight load profile, in work units: room
/// for roughly one clean solve plus change, so inflated costs shed.
pub(crate) const TIGHT_BUDGET: u64 = 2_000;

/// Work units charged by an inflation fault — large enough to blow
/// [`TIGHT_BUDGET`] on its own, absorbed without harm under a roomy
/// budget.
pub(crate) const INFLATE_UNITS: u64 = 2_500;

/// The E19 request batch: the E18 grid re-seeded for this drill.
#[must_use]
pub fn batch() -> Vec<DesignQuery> {
    e18_query_service::batch()
        .into_iter()
        .map(|mut q| {
            q.trials = TRIALS;
            q.seed = SEED;
            q
        })
        .collect()
}

/// The fault scenarios of the matrix, in run order.
#[must_use]
pub fn scenarios() -> Vec<(&'static str, ChaosConfig)> {
    vec![
        ("baseline", ChaosConfig::quiet(SEED)),
        (
            "panics",
            ChaosConfig {
                panic_p: 0.40,
                ..ChaosConfig::quiet(SEED)
            },
        ),
        (
            "solver",
            ChaosConfig {
                poison_p: 0.05,
                no_convergence_p: 0.35,
                ..ChaosConfig::quiet(SEED)
            },
        ),
        (
            "overload",
            ChaosConfig {
                inflate_p: 0.50,
                inflate_units: INFLATE_UNITS,
                ..ChaosConfig::quiet(SEED)
            },
        ),
        (
            "mixed",
            ChaosConfig {
                panic_p: 0.20,
                poison_p: 0.05,
                no_convergence_p: 0.15,
                inflate_p: 0.15,
                inflate_units: INFLATE_UNITS,
                ..ChaosConfig::quiet(SEED)
            },
        ),
    ]
}

/// The load profiles of the matrix: cache capacity + resilience policy.
#[must_use]
pub fn loads() -> Vec<(&'static str, usize, ResiliencePolicy)> {
    vec![
        (
            "roomy",
            32,
            ResiliencePolicy {
                max_attempts: 3,
                work_budget: u64::MAX,
                degrade_window: 0.1,
            },
        ),
        (
            "tight",
            8,
            ResiliencePolicy {
                max_attempts: 3,
                work_budget: TIGHT_BUDGET,
                degrade_window: 0.3,
            },
        ),
    ]
}

fn error_kind(e: &QueryError) -> &'static str {
    match e {
        QueryError::Parse(_) => "parse",
        QueryError::NoConvergence { .. } => "no_convergence",
        QueryError::InvalidDesign { .. } => "invalid_design",
        QueryError::WorkerPanic { .. } => "worker_panic",
        QueryError::BudgetExhausted { .. } => "budget_exhausted",
    }
}

/// Runs the matrix at the ambient [`rcs_parallel::thread_count`].
#[must_use]
pub fn run(sinks: Sinks<'_>) -> Vec<Table> {
    run_with_threads(rcs_parallel::thread_count(), sinks)
}

/// Runs the matrix at an explicit thread count (the determinism suite
/// compares 1/2/4 directly). Returns the per-cell outcome table and the
/// degraded-provenance table. On `sinks.spans` each matrix cell runs
/// inside a `<load>.<scenario>` span whose three `query.batch` children
/// carry the per-request `req.<hash>` spans.
///
/// # Panics
///
/// Panics if any cell loses a request — the containment contract is an
/// invariant of the drill, not a statistic.
#[must_use]
pub fn run_with_threads(threads: usize, sinks: Sinks<'_>) -> Vec<Table> {
    let Sinks { obs, spans, .. } = sinks;
    let queries = batch();
    let mut cell_rows = Vec::new();
    let mut provenance_rows = Vec::new();

    for (load_name, capacity, policy) in loads() {
        for (scenario_name, config) in scenarios() {
            let injector = ChaosInjector::new(config);
            let mut engine = QueryEngine::new(capacity).with_policy(policy);

            spans.enter(&format!("{load_name}.{scenario_name}"), obs);
            let before = obs.snapshot();
            let (mut ok_n, mut degraded_n, mut failed_n) = (0u64, 0u64, 0u64);
            for round in 1..=ROUNDS {
                let outcomes = engine.run_batch_with(&queries, threads, sinks, &injector);
                assert_eq!(
                    outcomes.len(),
                    queries.len(),
                    "{scenario_name}/{load_name} round {round}: lost a request"
                );
                for (i, outcome) in outcomes.iter().enumerate() {
                    match outcome {
                        QueryOutcome::Ok(_) => ok_n += 1,
                        QueryOutcome::Degraded { provenance, .. } => {
                            degraded_n += 1;
                            // The provenance table keeps the first few
                            // degradations per cell — enough to pin the
                            // substitution choices without drowning the
                            // report.
                            if provenance_rows.len() < 12 {
                                provenance_rows.push(vec![
                                    format!("{scenario_name}/{load_name}"),
                                    format!("r{round}#{i}"),
                                    format!("{:.2}", queries[i].utilization),
                                    format!("{:016x}", provenance.requested_hash),
                                    format!("{:016x}", provenance.source_hash),
                                    format!("{:.3}", provenance.delta_utilization),
                                    error_kind(&provenance.error).to_owned(),
                                ]);
                            }
                        }
                        QueryOutcome::Failed(_) => failed_n += 1,
                    }
                }
            }
            let answered = ok_n + degraded_n + failed_n;
            assert_eq!(
                answered,
                (queries.len() * ROUNDS) as u64,
                "{scenario_name}/{load_name}: outcomes must partition the requests"
            );

            let snap = obs.snapshot();
            let delta = |name: &str| (snap.counter(name) - before.counter(name)).to_string();
            cell_rows.push(vec![
                scenario_name.to_owned(),
                load_name.to_owned(),
                ok_n.to_string(),
                degraded_n.to_string(),
                failed_n.to_string(),
                delta("resilience.worker.panics"),
                delta("resilience.retry.attempts"),
                delta("resilience.retry.recoveries"),
                delta("resilience.budget.exhausted"),
                delta("query.cache.evictions"),
            ]);
            spans.exit(obs);
        }
    }

    vec![
        Table::new(
            format!(
                "E19 — chaos drill, fault × load matrix ({} requests/cell: \
                 {ROUNDS}× the 14-query grid; chaos seed {SEED})",
                batch().len() * ROUNDS
            ),
            &[
                "scenario",
                "load",
                "ok",
                "degraded",
                "failed",
                "panics",
                "retries",
                "recoveries",
                "budget trips",
                "evictions",
            ],
            cell_rows,
        ),
        Table::new(
            "E19 — degraded-verdict provenance (first 12 substitutions)".to_owned(),
            &[
                "cell",
                "request",
                "util",
                "requested hash",
                "served from",
                "Δutil",
                "terminal error",
            ],
            provenance_rows,
        ),
    ]
}
