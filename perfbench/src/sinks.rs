//! The only file of the benchmark that calls entry points taking a
//! telemetry sink. The workloads pass one [`Sinks`] bundle; when the
//! program's `_observed` / `_spanned` entry points are merged into one
//! sink-taking form, this adapter is the one place to change.

use rcs_cooling::availability::{self, AvailabilityReport};
use rcs_cooling::risk::FailureClass;
use rcs_core::{CoreError, DrillOutcome, FaultDrill, ImmersionModel, SteadyReport};
use rcs_fluids::FluidState;
use rcs_hydraulics::{HydraulicError, HydraulicNetwork, HydraulicSolution};
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::Registry;
use rcs_query::{DesignQuery, DesignVerdict, QueryEngine, QueryError, QueryOutcome};

/// The golden counter registry and span sink handed to the program.
#[derive(Clone, Copy)]
pub struct Sinks<'a> {
    /// Counter registry (`Registry::disabled()` on untraced runs).
    pub obs: &'a Registry,
    /// Work-unit span tree (`SpanSink::disabled()` on untraced runs).
    pub spans: &'a SpanSink,
}

impl Sinks<'static> {
    /// Both sinks off: what the end-to-end measurement uses.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            obs: Registry::disabled(),
            spans: SpanSink::disabled(),
        }
    }
}

/// One `QueryEngine::run_batch`.
pub fn run_batch(
    engine: &mut QueryEngine,
    queries: &[DesignQuery],
    threads: usize,
    sinks: Sinks<'_>,
) -> Vec<QueryOutcome> {
    engine.run_batch_spanned(queries, threads, sinks.obs, sinks.spans)
}

/// One uncached `solve_query`.
///
/// # Errors
///
/// The solver's error.
pub fn solve_query(query: &DesignQuery, sinks: Sinks<'_>) -> Result<DesignVerdict, QueryError> {
    rcs_query::solve_query(query, sinks.obs)
}

/// One `ImmersionModel::solve_robust`.
///
/// # Errors
///
/// The solver's error.
pub fn solve_immersion(
    model: &ImmersionModel,
    sinks: Sinks<'_>,
) -> Result<SteadyReport, CoreError> {
    model.solve_robust_spanned(sinks.obs, TraceRecorder::disabled(), sinks.spans)
}

/// One serial availability Monte-Carlo.
#[must_use]
pub fn monte_carlo(
    classes: &[FailureClass],
    horizon_years: f64,
    trials: usize,
    seed: u64,
    sinks: Sinks<'_>,
) -> AvailabilityReport {
    availability::monte_carlo_observed(classes, horizon_years, trials, seed, 1, sinks.obs)
}

/// One supervised fault drill on its own noise stream.
#[must_use]
pub fn run_drill(drill: &FaultDrill, noise: &mut Rng, sinks: Sinks<'_>) -> DrillOutcome {
    drill.run_spanned(noise, sinks.obs, TraceRecorder::disabled(), sinks.spans)
}

/// One cold `HydraulicNetwork::solve`.
///
/// # Errors
///
/// The solver's error.
pub fn solve_network(
    network: &HydraulicNetwork,
    fluid: &FluidState,
    sinks: Sinks<'_>,
) -> Result<HydraulicSolution, HydraulicError> {
    network.solve_observed(fluid, sinks.obs)
}
