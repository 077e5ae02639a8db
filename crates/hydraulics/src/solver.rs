//! Damped global-gradient (Newton) solver for the flow distribution.
//!
//! The algorithm is Todini & Pilati's global gradient method as used by
//! EPANET: each outer iteration linearizes every branch's head-loss curve
//! around its current flow, solves the resulting nodal pressure system,
//! and updates branch flows from the new pressures. An under-relaxation
//! factor keeps the quadratic loss curves from oscillating.
//!
//! The nodal system is solved with sparse graph elimination over the
//! node incidence structure ([`rcs_numeric::SparseSymbolic`]): the
//! symbolic factorization is analyzed once per topology and replayed
//! per Newton iteration. The elimination schedule mirrors the dense
//! loop order exactly, so the sparse path is bit-identical to the dense
//! reference ([`SolverEngine::Dense`], kept as a cross-check) on the
//! diagonally dominant systems the assembly produces.
//!
//! Repeated solves — parameter sweeps, coupled fixed points, failure
//! studies — reuse a [`SolverContext`]: the symbolic factorization is
//! shared across Newton iterations and ladder rungs, and each
//! successful solve leaves its flows behind as a **warm start** for the
//! next, so neighboring solves start from the neighboring solution
//! instead of from scratch.
//!
//! Faulted networks (deeply derated pumps, nearly shut valves) can sit
//! on much stiffer loss curves than healthy ones, so the solver also
//! exposes a retry ladder ([`HydraulicNetwork::solve_with_ladder`]): the
//! default settings first, then progressively heavier damping with a
//! larger iteration budget, and finally a structured
//! [`ConvergenceDiagnostics`] naming the worst junction and branch if
//! every rung fails.
//!
//! [`ConvergenceDiagnostics`]: crate::error::ConvergenceDiagnostics

use rcs_fluids::FluidState;
use rcs_numeric::{Matrix, SparseSymbolic};
use rcs_obs::trace::ChannelKind;
use rcs_obs::{residual_decade, Registry, Sinks};
use rcs_units::VolumeFlow;

use crate::error::{ConvergenceDiagnostics, HydraulicError, SolveAttempt};
use crate::network::HydraulicNetwork;
use crate::solution::HydraulicSolution;

/// Convergence tolerance on the worst junction continuity residual, m³/s.
const CONTINUITY_TOL: f64 = 1e-9;
/// Maximum outer Newton iterations.
const MAX_ITER: usize = 200;
/// Under-relaxation on flow updates.
const RELAX: f64 = 0.7;
/// Minimum 0-based iteration index at which a cold solve may declare
/// convergence (≥ 4 iterations — the residual can look deceptively
/// small before the linearization has settled).
const MIN_ITER_COLD: usize = 3;
/// Minimum 0-based iteration index for a warm-started solve: the seed
/// already sits near the solution, but at least one full
/// re-linearization pass must confirm it (≥ 2 iterations).
const MIN_ITER_WARM: usize = 1;

/// Tuning knobs for one solve attempt.
///
/// The defaults reproduce the historical solver behaviour exactly;
/// [`SolveOptions::damped`] builds the heavier rungs of the retry
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Under-relaxation factor on flow updates, in `(0, 1]`.
    pub relax: f64,
    /// Maximum outer Newton iterations.
    pub max_iter: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            relax: RELAX,
            max_iter: MAX_ITER,
        }
    }
}

impl SolveOptions {
    /// A damped attempt: heavier under-relaxation with a larger budget.
    #[must_use]
    pub fn damped(relax: f64, max_iter: usize) -> Self {
        Self { relax, max_iter }
    }

    /// The standard retry ladder for
    /// [`HydraulicNetwork::solve_with_ladder`]: default first
    /// (bit-identical to [`HydraulicNetwork::solve`] when it converges),
    /// then two progressively damped re-solves.
    #[must_use]
    pub fn ladder() -> [Self; 3] {
        [
            Self::default(),
            Self::damped(0.45, 500),
            Self::damped(0.15, 1500),
        ]
    }
}

/// Which linear-algebra kernel factors the nodal system.
///
/// The two engines perform the same arithmetic in the same order on the
/// diagonally dominant systems the assembly produces (dense partial
/// pivoting never swaps rows there), so they agree bit-for-bit; the
/// dense path survives as the independent cross-check the sparse
/// schedule is validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverEngine {
    /// Sparse graph elimination with a precomputed symbolic schedule
    /// (the default — O(nnz) per iteration instead of O(n³)).
    #[default]
    Sparse,
    /// Dense Gaussian elimination with partial pivoting
    /// ([`rcs_numeric::Matrix::solve`]), the reference path.
    Dense,
}

/// Precomputed per-branch assembly plan: the unknown-column of each
/// endpoint and, for the sparse engine, the value-array indices the
/// branch conductance scatters into.
#[derive(Debug, Clone, Copy)]
struct BranchScatter {
    /// Unknown column of the `from` junction (`None` = reference).
    ci: Option<usize>,
    /// Unknown column of the `to` junction (`None` = reference).
    cj: Option<usize>,
    /// Sparse value index of `(ci, ci)` — valid when `ci` is `Some`.
    ii: usize,
    /// Sparse value index of `(cj, cj)` — valid when `cj` is `Some`.
    jj: usize,
    /// Sparse value index of `(ci, cj)` — valid when both are `Some`.
    ij: usize,
    /// Sparse value index of `(cj, ci)` — valid when both are `Some`.
    ji: usize,
}

/// Reusable solver state bound to one network topology.
///
/// Holds the symbolic factorization (analyzed once, replayed every
/// Newton iteration and ladder rung), the per-branch assembly plan, the
/// numeric and Newton workspaces (so an iteration never touches the
/// heap), and the **warm-start seed**: after a successful solve the
/// converged flows are kept and the next solve through this context
/// starts from them instead of from the cold uniform guess.
///
/// The context revalidates itself against the network on every solve:
/// if the topology changed (junctions, branches, openness, reference)
/// the plan is rebuilt automatically — the warm seed survives pure
/// openness changes (a failure sweep's neighboring solution is still
/// the best available guess) and is dropped when the branch set itself
/// changed. Valve re-trims and fluid changes don't invalidate anything.
///
/// Warm-starting is deterministic: the seed is a pure function of the
/// solve history through this context, so results are bit-identical at
/// every `RCS_THREADS` value (contexts are never shared across
/// threads; each worker chains its own).
///
/// # Examples
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_hydraulics::{Element, HydraulicNetwork, Pipe, PumpCurve, SolveOptions};
/// use rcs_obs::Sinks;
/// use rcs_units::{Celsius, Length, Pressure, VolumeFlow};
///
/// let mut net = HydraulicNetwork::new();
/// let a = net.add_junction("out");
/// let b = net.add_junction("in");
/// net.add_branch("piping", a, b, vec![Element::Pipe(
///     Pipe::smooth(Length::from_meters(20.0), Length::millimeters(25.0)))])?;
/// net.add_branch("pump", b, a, vec![Element::Pump(PumpCurve::new(
///     Pressure::kilopascals(60.0), VolumeFlow::liters_per_minute(150.0)))])?;
/// let water = Coolant::water().state(Celsius::new(20.0));
///
/// let (opts, off) = (SolveOptions::default(), Sinks::disabled());
/// let mut ctx = net.solver_context();
/// let cold = net.solve_with(&water, &opts, &mut ctx, off)?;
/// let warm = net.solve_with(&water, &opts, &mut ctx, off)?; // starts from `cold`'s flows
/// assert!(warm.iterations() < cold.iterations());
/// # Ok::<(), rcs_hydraulics::HydraulicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolverContext {
    engine: SolverEngine,
    // -- topology fingerprint --
    n_junctions: usize,
    reference: usize,
    openness: Vec<bool>,
    // -- assembly plan --
    unknowns: Vec<usize>,
    touched: Vec<bool>,
    scatter: Vec<BranchScatter>,
    symbolic: Option<SparseSymbolic>,
    // -- numeric workspaces (sparse engine; `rhs` returns the pressures
    //    of the unknown junctions for both engines) --
    values: Vec<f64>,
    rhs: Vec<f64>,
    // -- Newton workspaces --
    /// Per-branch pressure drop `h` at the current flows, Pa. The first
    /// iteration of every attempt evaluates it; later iterations reuse
    /// the drops the previous head-closure check evaluated at the same
    /// flows.
    drops: Vec<f64>,
    /// Per-branch linearized conductance `d = 1 / h'`, m³/s per Pa.
    conductance: Vec<f64>,
    /// Per-junction continuity residual, m³/s.
    residual: Vec<f64>,
    // -- warm state --
    warm_flows: Option<Vec<f64>>,
}

impl SolverContext {
    fn build(net: &HydraulicNetwork, engine: SolverEngine, warm: Option<Vec<f64>>) -> Self {
        let n_junctions = net.junctions.len();
        let reference = net.reference.map_or(0, |r| r.0);
        let openness: Vec<bool> = net.branches.iter().map(|b| b.open).collect();
        let unknowns: Vec<usize> = (0..n_junctions).filter(|&j| j != reference).collect();
        let mut col_of: Vec<Option<usize>> = vec![None; n_junctions];
        for (c, &j) in unknowns.iter().enumerate() {
            col_of[j] = Some(c);
        }
        let mut touched = vec![false; n_junctions];
        for b in net.branches.iter().filter(|b| b.open) {
            touched[b.from.0] = true;
            touched[b.to.0] = true;
        }

        let symbolic = match engine {
            SolverEngine::Dense => None,
            SolverEngine::Sparse => {
                // Open-branch incidence only: exactly the edges whose
                // conductances the assembly scatters. Closed branches
                // contribute nothing (matching the dense assembly), so
                // openness is part of the fingerprint above.
                let edges: Vec<(usize, usize)> = net
                    .branches
                    .iter()
                    .filter(|b| b.open)
                    .filter_map(|b| Some((col_of[b.from.0]?, col_of[b.to.0]?)))
                    .collect();
                Some(SparseSymbolic::analyze(unknowns.len(), &edges))
            }
        };
        let scatter = net
            .branches
            .iter()
            .map(|b| {
                let ci = col_of[b.from.0];
                let cj = col_of[b.to.0];
                let idx = |r: Option<usize>, c: Option<usize>| -> usize {
                    match (&symbolic, r, c, b.open) {
                        (Some(sym), Some(r), Some(c), true) => sym
                            .index_of(r, c)
                            .expect("open-branch incidence is structural"),
                        _ => 0,
                    }
                };
                BranchScatter {
                    ci,
                    cj,
                    ii: idx(ci, ci),
                    jj: idx(cj, cj),
                    ij: idx(ci, cj),
                    ji: idx(cj, ci),
                }
            })
            .collect();

        let nnz = symbolic.as_ref().map_or(0, SparseSymbolic::nnz);
        let n = unknowns.len();
        let n_branches = net.branches.len();
        Self {
            engine,
            n_junctions,
            reference,
            openness,
            unknowns,
            touched,
            scatter,
            symbolic,
            values: vec![0.0; nnz],
            rhs: vec![0.0; n],
            drops: vec![0.0; n_branches],
            conductance: vec![0.0; n_branches],
            residual: vec![0.0; n_junctions],
            warm_flows: warm,
        }
    }

    /// `true` if the stored plan still describes `net`'s topology.
    fn matches(&self, net: &HydraulicNetwork) -> bool {
        self.n_junctions == net.junctions.len()
            && self.reference == net.reference.map_or(0, |r| r.0)
            && self.openness.len() == net.branches.len()
            && self
                .openness
                .iter()
                .zip(net.branches.iter())
                .all(|(o, b)| *o == b.open)
    }

    /// Revalidates against `net`, rebuilding the plan if the topology
    /// changed. The warm seed survives a rebuild when the branch count
    /// is unchanged (openness flips); otherwise it is dropped.
    fn ensure(&mut self, net: &HydraulicNetwork) {
        if self.matches(net) {
            return;
        }
        let warm = self
            .warm_flows
            .take()
            .filter(|w| w.len() == net.branches.len());
        *self = Self::build(net, self.engine, warm);
    }

    /// Consumes the warm seed if it is usable for `net`.
    fn take_seed(&mut self, net: &HydraulicNetwork) -> Option<Vec<f64>> {
        self.warm_flows
            .take()
            .filter(|w| w.len() == net.branches.len() && w.iter().all(|q| q.is_finite()))
    }

    /// The engine this context factors with.
    #[must_use]
    pub fn engine(&self) -> SolverEngine {
        self.engine
    }

    /// `true` if the next solve through this context will start from a
    /// previous solution's flows.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        self.warm_flows.is_some()
    }

    /// Drops the warm-start seed: the next solve starts cold.
    pub fn clear_seed(&mut self) {
        self.warm_flows = None;
    }
}

/// Iteration-count histogram bounds shared by all solver telemetry
/// (inclusive upper bounds; the overflow bucket catches anything past
/// the heaviest ladder budget).
const ITER_BOUNDS: [u64; 7] = [5, 10, 20, 50, 200, 500, 1500];
/// Ladder-rung histogram bounds: rung index 0 (default options), 1, 2.
const RUNG_BOUNDS: [u64; 3] = [0, 1, 2];
/// Residual-decade histogram bounds (see [`rcs_obs::residual_decade`]).
const DECADE_BOUNDS: [u64; 4] = [3, 6, 9, 12];

/// Bucket edges for the float residual histogram (continuity residual,
/// m³/s). The explicit underflow/overflow buckets absorb exactly-zero
/// residuals and non-finite divergence without panicking.
const RESIDUAL_EDGES: [f64; 4] = [1e-12, 1e-9, 1e-6, 1e-3];

/// Where a failed attempt left off — enough to build the diagnostics.
struct SolveFailure {
    iterations: usize,
    residual: f64,
    worst_junction: usize,
    worst_branch: usize,
}

enum InnerError {
    Stalled(SolveFailure),
    Other(HydraulicError),
}

/// A converged attempt plus how it started (for the work profile).
struct SolveOutcome {
    solution: HydraulicSolution,
    warm_started: bool,
}

impl HydraulicNetwork {
    /// Builds a reusable [`SolverContext`] for this topology with the
    /// default (sparse) engine. Reuse it across repeated solves to
    /// share the symbolic factorization and warm-start each solve from
    /// the previous solution.
    #[must_use]
    pub fn solver_context(&self) -> SolverContext {
        self.solver_context_with(SolverEngine::default())
    }

    /// [`HydraulicNetwork::solver_context`] with an explicit engine
    /// (the dense path is the cross-check reference).
    #[must_use]
    pub fn solver_context_with(&self, engine: SolverEngine) -> SolverContext {
        SolverContext::build(self, engine, None)
    }

    /// Solves the steady flow distribution for the given fluid state:
    /// one cold attempt with the default options and no telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::NoConvergence`] if the continuity residual
    /// does not fall below tolerance, and propagates singular-matrix
    /// failures from degenerate networks.
    pub fn solve(&self, fluid: &FluidState) -> Result<HydraulicSolution, HydraulicError> {
        let opts = SolveOptions::default();
        self.solve_with(fluid, &opts, &mut self.solver_context(), Sinks::disabled())
    }

    /// [`HydraulicNetwork::solve`] with counters recorded into `obs`.
    /// Kept for `perfbench/src/sinks.rs`, its only caller; everything
    /// else calls [`HydraulicNetwork::solve_with`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HydraulicNetwork::solve`].
    pub fn solve_observed(
        &self,
        fluid: &FluidState,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        self.solve_with(
            fluid,
            &SolveOptions::default(),
            &mut self.solver_context(),
            Sinks::counters(obs),
        )
    }

    /// One solve attempt with explicit damping/budget options through a
    /// reusable context: the symbolic factorization is shared and, when
    /// `ctx` holds a seed from a previous success, the attempt starts
    /// warm. Telemetry lands on `sinks.obs` — all golden-channel
    /// integers:
    ///
    /// - `hydraulics.solve.calls` / `.converged` / `.stalled` counters;
    /// - `hydraulics.solve.iterations` histogram on success;
    /// - `hydraulics.solve.residual_decade` histogram of the converged
    ///   residual's decade;
    /// - a `hydraulics.warm_starts` work counter when the attempt
    ///   converged from a warm seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`HydraulicNetwork::solve`].
    pub fn solve_with(
        &self,
        fluid: &FluidState,
        opts: &SolveOptions,
        ctx: &mut SolverContext,
        sinks: Sinks<'_>,
    ) -> Result<HydraulicSolution, HydraulicError> {
        let obs = sinks.obs;
        obs.inc("hydraulics.solve.calls");
        match self.solve_inner(fluid, opts, ctx) {
            Ok(outcome) => {
                let solution = outcome.solution;
                obs.inc("hydraulics.solve.converged");
                obs.record_histogram(
                    "hydraulics.solve.iterations",
                    &ITER_BOUNDS,
                    solution.iterations() as u64,
                );
                obs.record_histogram(
                    "hydraulics.solve.residual_decade",
                    &DECADE_BOUNDS,
                    residual_decade(solution.worst_residual_m3s()),
                );
                obs.record_histogram_f64(
                    "hydraulics.solve.residual",
                    &RESIDUAL_EDGES,
                    solution.worst_residual_m3s(),
                );
                self.record_solver_work(obs, solution.iterations() as u64);
                if outcome.warm_started {
                    obs.work("hydraulics.warm_starts", 1);
                }
                Ok(solution)
            }
            Err(InnerError::Stalled(fail)) => {
                obs.inc("hydraulics.solve.stalled");
                obs.record_histogram_f64("hydraulics.solve.residual", &RESIDUAL_EDGES, {
                    fail.residual
                });
                self.record_solver_work(obs, fail.iterations as u64);
                Err(HydraulicError::NoConvergence {
                    iterations: fail.iterations,
                    residual: fail.residual,
                })
            }
            Err(InnerError::Other(err)) => {
                obs.inc("hydraulics.solve.error");
                Err(err)
            }
        }
    }

    /// Rolls one solve attempt's deterministic effort into the work
    /// profile: outer iterations, one numeric factorization of the
    /// nodal matrix per iteration, and iterations × unknown pressure
    /// nodes (the figure that scales the per-iteration elimination).
    fn record_solver_work(&self, obs: &Registry, iterations: u64) {
        let unknowns = self.junctions.len().saturating_sub(1) as u64;
        obs.work("hydraulics.iterations", iterations);
        obs.work("hydraulics.factorizations", iterations);
        obs.work("hydraulics.iter_unknowns", iterations * unknowns);
    }

    /// Solves through a retry ladder — [`SolveOptions::ladder`] is the
    /// standard one: default options first (bit-identical to
    /// [`HydraulicNetwork::solve`] when it converges, so healthy
    /// networks pay nothing), then two progressively damped re-solves.
    /// A network that defeats every rung returns
    /// [`HydraulicError::Unsolvable`] with structured diagnostics naming
    /// the worst junction and branch.
    ///
    /// The symbolic factorization in `ctx` is shared by every rung; the
    /// warm seed (if any) feeds the first rung only — a seed that failed
    /// to converge is discarded, so damped rungs restart cold — and a
    /// converged rung leaves its flows as the next solve's seed.
    ///
    /// Telemetry, all golden:
    ///
    /// - counters on `sinks.obs`: `hydraulics.ladder.calls` /
    ///   `.converged` / `.unsolvable`, `hydraulics.ladder.escalations`
    ///   (rungs abandoned before convergence — the fallback count), the
    ///   `hydraulics.ladder.rung` histogram of the converged rung and
    ///   the `hydraulics.ladder.iterations` /
    ///   `hydraulics.ladder.residual_decade` histograms of its attempt;
    /// - trace on `sinks.trace`: every rung appends its final continuity
    ///   residual to `hydraulics.ladder.residual` (t = rung index) and
    ///   the converged rung its iteration count to
    ///   `hydraulics.ladder.iterations`;
    /// - spans on `sinks.spans`: one `hydraulics.ladder` span with one
    ///   `rung` child per attempt, so rollups show which rung burned the
    ///   solver work.
    ///
    /// # Errors
    ///
    /// [`HydraulicError::Unsolvable`] after every rung stalls (or for an
    /// empty ladder); singular-matrix and builder failures propagate
    /// immediately.
    #[allow(clippy::cast_precision_loss)]
    pub fn solve_with_ladder(
        &self,
        fluid: &FluidState,
        rungs: &[SolveOptions],
        ctx: &mut SolverContext,
        sinks: Sinks<'_>,
    ) -> Result<HydraulicSolution, HydraulicError> {
        let Sinks { obs, trace, spans } = sinks;
        obs.inc("hydraulics.ladder.calls");
        if rungs.is_empty() {
            return Err(HydraulicError::NonPositiveParameter {
                parameter: "retry ladder rung count",
            });
        }
        spans.enter("hydraulics.ladder", obs);
        let mut attempts = Vec::new();
        let mut last_failure: Option<SolveFailure> = None;
        for (rung, opts) in rungs.iter().enumerate() {
            spans.enter("rung", obs);
            let attempt = self.solve_inner(fluid, opts, ctx);
            match attempt {
                Ok(outcome) => {
                    let solution = outcome.solution;
                    obs.inc("hydraulics.ladder.converged");
                    obs.add("hydraulics.ladder.escalations", rung as u64);
                    obs.record_histogram("hydraulics.ladder.rung", &RUNG_BOUNDS, rung as u64);
                    obs.record_histogram(
                        "hydraulics.ladder.iterations",
                        &ITER_BOUNDS,
                        solution.iterations() as u64,
                    );
                    obs.record_histogram(
                        "hydraulics.ladder.residual_decade",
                        &DECADE_BOUNDS,
                        residual_decade(solution.worst_residual_m3s()),
                    );
                    self.record_solver_work(obs, solution.iterations() as u64);
                    if outcome.warm_started {
                        obs.work("hydraulics.warm_starts", 1);
                    }
                    spans.exit(obs);
                    trace.record_named(
                        "hydraulics.ladder.residual",
                        ChannelKind::Residual,
                        rung as f64,
                        solution.worst_residual_m3s(),
                    );
                    trace.record_named(
                        "hydraulics.ladder.iterations",
                        ChannelKind::Scalar,
                        rung as f64,
                        solution.iterations() as f64,
                    );
                    spans.exit(obs);
                    return Ok(solution);
                }
                Err(InnerError::Stalled(fail)) => {
                    self.record_solver_work(obs, fail.iterations as u64);
                    spans.exit(obs);
                    trace.record_named(
                        "hydraulics.ladder.residual",
                        ChannelKind::Residual,
                        rung as f64,
                        fail.residual,
                    );
                    attempts.push(SolveAttempt {
                        relax: opts.relax,
                        max_iter: opts.max_iter,
                        residual: fail.residual,
                    });
                    last_failure = Some(fail);
                }
                Err(InnerError::Other(err)) => {
                    obs.inc("hydraulics.ladder.error");
                    spans.exit(obs);
                    spans.exit(obs);
                    return Err(err);
                }
            }
        }
        spans.exit(obs);
        let fail = last_failure.expect("ladder has at least one rung");
        obs.inc("hydraulics.ladder.unsolvable");
        obs.add("hydraulics.ladder.escalations", (rungs.len() - 1) as u64);
        Err(HydraulicError::Unsolvable {
            diagnostics: ConvergenceDiagnostics {
                attempts,
                worst_junction: self
                    .junctions
                    .get(fail.worst_junction)
                    .map_or_else(|| "<none>".into(), |j| j.name.clone()),
                worst_branch: self
                    .branches
                    .get(fail.worst_branch)
                    .map_or_else(|| "<none>".into(), |b| b.name.clone()),
                residual: fail.residual,
            },
        })
    }

    /// Solves a parameter sweep: `configure` mutates the network for
    /// step `i` (valve trims, branch failures, a new fluid state) and
    /// each step is solved through the standard ladder with a shared
    /// context, recording into `sinks`. With `warm = true` every step
    /// starts from the previous step's solution — the neighboring solve
    /// is the cheapest possible starting point — while `warm = false`
    /// solves every step cold (the cross-check the warm path is
    /// validated against).
    ///
    /// # Errors
    ///
    /// Propagates the first step's solver failure.
    pub fn solve_sweep<F>(
        &mut self,
        steps: usize,
        warm: bool,
        sinks: Sinks<'_>,
        mut configure: F,
    ) -> Result<Vec<HydraulicSolution>, HydraulicError>
    where
        F: FnMut(&mut Self, usize) -> FluidState,
    {
        let mut ctx = self.solver_context();
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let fluid = configure(self, i);
            if !warm {
                ctx.clear_seed();
            }
            out.push(self.solve_with_ladder(&fluid, &SolveOptions::ladder(), &mut ctx, sinks)?);
        }
        Ok(out)
    }

    fn solve_inner(
        &self,
        fluid: &FluidState,
        opts: &SolveOptions,
        ctx: &mut SolverContext,
    ) -> Result<SolveOutcome, InnerError> {
        ctx.ensure(self);
        let n_junctions = self.junctions.len();
        let reference = ctx.reference;
        let n = ctx.unknowns.len();

        // Initial guess: the previous solution's flows when the context
        // carries a seed (closed branches forced shut), else a small
        // uniform flow through every open branch.
        let seed = ctx.take_seed(self);
        let warm_started = seed.is_some();
        let mut flows: Vec<f64> = match seed {
            Some(mut w) => {
                for (q, b) in w.iter_mut().zip(self.branches.iter()) {
                    if !b.open {
                        *q = 0.0;
                    }
                }
                w
            }
            None => self
                .branches
                .iter()
                .map(|b| if b.open { 1e-4 } else { 0.0 })
                .collect(),
        };
        let min_iter = if warm_started {
            MIN_ITER_WARM
        } else {
            MIN_ITER_COLD
        };
        let mut pressures = vec![0.0; n_junctions];

        let mut last_residual = f64::INFINITY;
        let mut worst_junction = 0usize;
        let mut worst_branch = 0usize;
        for iter in 0..opts.max_iter {
            // Linearize each open branch: dp(Q) ~ h + h' (Qnew - Q). From
            // the second iteration on, `drops` already holds h at these
            // exact flows (the head-closure check below evaluated it), so
            // only the derivative is new. Iteration 0 evaluates h afresh:
            // drops left by an earlier solve or rung belong to other flows.
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    ctx.drops[k] = 0.0;
                    ctx.conductance[k] = 0.0;
                    continue;
                }
                let q = VolumeFlow::from_cubic_meters_per_second(flows[k]);
                if iter == 0 {
                    ctx.drops[k] = b.pressure_drop(q, fluid).pascals();
                }
                ctx.conductance[k] = 1.0 / b.drop_derivative(q, fluid).max(1e-9);
            }

            // Assemble and solve the nodal system A p = rhs over the
            // unknown junctions with the context's engine; the pressures
            // come back in `ctx.rhs`.
            if n > 0 {
                match ctx.engine {
                    SolverEngine::Sparse => self.solve_nodal_sparse(ctx, &flows),
                    SolverEngine::Dense => self.solve_nodal_dense(ctx, &flows),
                }
                .map_err(|e| InnerError::Other(e.into()))?;
                for (c, &j) in ctx.unknowns.iter().enumerate() {
                    pressures[j] = ctx.rhs[c];
                }
                pressures[reference] = 0.0;
            }

            // Flow update with under-relaxation.
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    flows[k] = 0.0;
                    continue;
                }
                let dp = pressures[b.from.0] - pressures[b.to.0];
                let q_new = flows[k] + ctx.conductance[k] * (dp - ctx.drops[k]);
                flows[k] = opts.relax * q_new + (1.0 - opts.relax) * flows[k];
            }

            // Continuity check at every junction...
            let residual = &mut ctx.residual;
            residual.fill(0.0);
            for (k, b) in self.branches.iter().enumerate() {
                residual[b.from.0] -= flows[k];
                residual[b.to.0] += flows[k];
            }
            residual[reference] = 0.0; // the reference absorbs the closure
            let mut worst = 0.0f64;
            for (j, r) in residual.iter().enumerate() {
                if r.abs() > worst {
                    worst = r.abs();
                    worst_junction = j;
                }
            }
            let scale = flows.iter().fold(0.0f64, |m, q| m.max(q.abs())).max(1e-6);

            // ...plus head closure on every open branch. Continuity alone is
            // trivially satisfied on a pure loop (any circulating flow
            // conserves mass), so the energy equation must be checked too.
            // Each drop is kept for the next iteration's linearization.
            let mut worst_head = 0.0f64;
            let mut head_scale = 1.0f64;
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    continue;
                }
                let q = VolumeFlow::from_cubic_meters_per_second(flows[k]);
                let drop = b.pressure_drop(q, fluid).pascals();
                ctx.drops[k] = drop;
                let dp = pressures[b.from.0] - pressures[b.to.0];
                if (drop - dp).abs() > worst_head {
                    worst_head = (drop - dp).abs();
                    worst_branch = k;
                }
                head_scale = head_scale.max(drop.abs()).max(dp.abs());
            }

            if worst < CONTINUITY_TOL.max(1e-9 * scale)
                && worst_head < 1e-7 * head_scale
                && iter >= min_iter
            {
                ctx.warm_flows = Some(flows.clone());
                return Ok(SolveOutcome {
                    solution: HydraulicSolution::new(
                        self.clone(),
                        *fluid,
                        pressures,
                        flows,
                        iter + 1,
                        worst,
                    ),
                    warm_started,
                });
            }
            last_residual = worst.max(worst_head / head_scale * scale);
        }
        Err(InnerError::Stalled(SolveFailure {
            iterations: opts.max_iter,
            residual: last_residual,
            worst_junction,
            worst_branch,
        }))
    }

    /// One nodal solve on the sparse engine, in place: scatter the
    /// linearized conductances into the context's value workspace (same
    /// branch order as the dense assembly, so the accumulated sums are
    /// bit-identical), pin isolated rows, and replay the precomputed
    /// elimination schedule. The pressures are left in `ctx.rhs`.
    fn solve_nodal_sparse(
        &self,
        ctx: &mut SolverContext,
        flows: &[f64],
    ) -> Result<(), rcs_numeric::NumericError> {
        let sym = ctx.symbolic.as_ref().expect("sparse context has a plan");
        ctx.values.fill(0.0);
        ctx.rhs.fill(0.0);
        for (k, b) in self.branches.iter().enumerate() {
            if !b.open {
                continue;
            }
            let sc = ctx.scatter[k];
            let d = ctx.conductance[k];
            // Linearized: Qnew = Q + D*(p_i - p_j - h)
            let q_lin = flows[k] - d * ctx.drops[k];
            if let Some(ci) = sc.ci {
                ctx.values[sc.ii] += d;
                ctx.rhs[ci] -= q_lin;
                if sc.cj.is_some() {
                    ctx.values[sc.ij] -= d;
                }
            }
            if let Some(cj) = sc.cj {
                ctx.values[sc.jj] += d;
                ctx.rhs[cj] += q_lin;
                if sc.ci.is_some() {
                    ctx.values[sc.ji] -= d;
                }
            }
        }
        // Isolated junctions would produce a zero row; pin them to the
        // reference pressure instead (their row holds only the
        // diagonal — no open branch touches them, so no fill either).
        for (row, &j) in ctx.unknowns.iter().enumerate() {
            if !ctx.touched[j] {
                ctx.values[sym.diag_index(row)] = 1.0;
                ctx.rhs[row] = 0.0;
            }
        }
        sym.factor_solve(&mut ctx.values, &mut ctx.rhs)
    }

    /// One nodal solve on the dense reference engine — the historical
    /// assembly, kept as the cross-check the sparse schedule is
    /// validated against. The pressures are left in `ctx.rhs`.
    fn solve_nodal_dense(
        &self,
        ctx: &mut SolverContext,
        flows: &[f64],
    ) -> Result<(), rcs_numeric::NumericError> {
        let n = ctx.unknowns.len();
        let mut a = Matrix::zeros(n, n);
        ctx.rhs.fill(0.0);
        for (k, b) in self.branches.iter().enumerate() {
            if !b.open {
                continue;
            }
            let sc = ctx.scatter[k];
            let d = ctx.conductance[k];
            let q_lin = flows[k] - d * ctx.drops[k];
            if let Some(ci) = sc.ci {
                a[(ci, ci)] += d;
                ctx.rhs[ci] -= q_lin;
                if let Some(cj) = sc.cj {
                    a[(ci, cj)] -= d;
                }
            }
            if let Some(cj) = sc.cj {
                a[(cj, cj)] += d;
                ctx.rhs[cj] += q_lin;
                if let Some(ci) = sc.ci {
                    a[(cj, ci)] -= d;
                }
            }
        }
        for (row, &j) in ctx.unknowns.iter().enumerate() {
            if !ctx.touched[j] {
                a[(row, row)] = 1.0;
                ctx.rhs[row] = 0.0;
            }
        }
        let p = a.solve(&ctx.rhs)?;
        ctx.rhs.copy_from_slice(&p);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Element, Pipe, PumpCurve, Valve};
    use rcs_fluids::Coolant;
    use rcs_units::{Celsius, Length, Pressure};

    /// One default attempt through `ctx`, no telemetry.
    fn attempt(
        net: &HydraulicNetwork,
        ctx: &mut SolverContext,
    ) -> Result<HydraulicSolution, HydraulicError> {
        net.solve_with(&water(), &SolveOptions::default(), ctx, Sinks::disabled())
    }

    /// A ladder solve on a fresh context with counters into `obs`.
    fn ladder(
        net: &HydraulicNetwork,
        rungs: &[SolveOptions],
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        net.solve_with_ladder(
            &water(),
            rungs,
            &mut net.solver_context(),
            Sinks::counters(obs),
        )
    }

    fn water() -> FluidState {
        Coolant::water().state(Celsius::new(20.0))
    }

    fn pipe(len_m: f64) -> Element {
        Element::Pipe(Pipe::smooth(
            Length::from_meters(len_m),
            Length::millimeters(25.0),
        ))
    }

    fn pump() -> Element {
        Element::Pump(PumpCurve::new(
            Pressure::kilopascals(60.0),
            VolumeFlow::liters_per_minute(200.0),
        ))
    }

    #[test]
    fn single_loop_operating_point() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let loop_branch = net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        let pump_branch = net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let s = net.solve(&water()).unwrap();
        let q = s.flow(loop_branch);
        // pump and pipe carry the same flow
        assert!(
            (q.cubic_meters_per_second() - s.flow(pump_branch).cubic_meters_per_second()).abs()
                < 1e-9
        );
        // and the pressure gain matches the loss at that flow
        let gain = match pump() {
            Element::Pump(p) => p.pressure_gain(q).pascals(),
            _ => unreachable!(),
        };
        let loss = match pipe(20.0) {
            Element::Pipe(p) => p.pressure_loss(q, &water()).pascals(),
            _ => unreachable!(),
        };
        assert!(
            (gain - loss).abs() / loss < 1e-6,
            "gain {gain}, loss {loss}"
        );
        assert!(q.as_liters_per_minute() > 50.0 && q.as_liters_per_minute() < 200.0);
    }

    #[test]
    fn two_identical_parallel_branches_split_evenly() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("loop1", s, r, vec![pipe(10.0)]).unwrap();
        let b2 = net.add_branch("loop2", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        let q1 = sol.flow(b1).cubic_meters_per_second();
        let q2 = sol.flow(b2).cubic_meters_per_second();
        assert!((q1 - q2).abs() / q1 < 1e-6, "q1 {q1}, q2 {q2}");
    }

    #[test]
    fn unequal_parallel_branches_favor_the_short_one() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let short = net.add_branch("short", s, r, vec![pipe(5.0)]).unwrap();
        let long = net.add_branch("long", s, r, vec![pipe(40.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert!(
            sol.flow(short).cubic_meters_per_second()
                > 1.5 * sol.flow(long).cubic_meters_per_second()
        );
    }

    #[test]
    fn closed_branch_carries_no_flow() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("loop1", s, r, vec![pipe(10.0)]).unwrap();
        let b2 = net.add_branch("loop2", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let before = net
            .solve(&water())
            .unwrap()
            .flow(b1)
            .cubic_meters_per_second();
        net.set_branch_open(b2, false).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.flow(b2).cubic_meters_per_second(), 0.0);
        // survivor takes more than before, but less than double (pump curve)
        let after = sol.flow(b1).cubic_meters_per_second();
        assert!(after > before);
        assert!(after < 2.0 * before);
    }

    #[test]
    fn valve_throttling_reduces_branch_flow() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let v = Element::Valve(Valve::balancing(Length::millimeters(25.0)));
        let b1 = net.add_branch("valved", s, r, vec![pipe(10.0), v]).unwrap();
        let b2 = net.add_branch("plain", s, r, vec![pipe(10.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let open = net.solve(&water()).unwrap();
        net.set_valve_opening(b1, 0.3).unwrap();
        let throttled = net.solve(&water()).unwrap();
        assert!(
            throttled.flow(b1).cubic_meters_per_second() < open.flow(b1).cubic_meters_per_second()
        );
        assert!(
            throttled.flow(b2).cubic_meters_per_second() > open.flow(b2).cubic_meters_per_second()
        );
    }

    #[test]
    fn isolated_junction_is_pinned_to_reference_pressure() {
        // A working pump loop plus a junction no branch touches at all:
        // the solver must still converge, and the stranded node sits at
        // the reference pressure with zero continuity residual.
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let stranded = net.add_junction("stranded");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.pressure(stranded).pascals(), 0.0);
        assert_eq!(
            sol.continuity_residual(stranded).cubic_meters_per_second(),
            0.0
        );
        // the live loop is unaffected by the stranded node
        assert!(sol.flows()[0].as_liters_per_minute() > 50.0);
    }

    #[test]
    fn junction_isolated_by_closed_branches_is_pinned() {
        // Isolation must be judged on *open* incidence: a junction whose
        // only branch is closed is just as stranded as one with none.
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let spur_end = net.add_junction("spur end");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let spur = net
            .add_branch("spur", b, spur_end, vec![pipe(5.0)])
            .unwrap();
        net.set_branch_open(spur, false).unwrap();
        let sol = net.solve(&water()).unwrap();
        assert_eq!(sol.pressure(spur_end).pascals(), 0.0);
        assert_eq!(sol.flow(spur).cubic_meters_per_second(), 0.0);
    }

    #[test]
    fn robust_solve_is_identical_to_plain_solve_on_healthy_networks() {
        // First ladder rung == default options, so a converging network
        // must produce bit-identical flows through either entry point.
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("short", s, r, vec![pipe(5.0)]).unwrap();
        let b2 = net.add_branch("long", s, r, vec![pipe(40.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let plain = net.solve(&water()).unwrap();
        let robust = ladder(&net, &SolveOptions::ladder(), Registry::disabled()).unwrap();
        for b in [b1, b2] {
            assert_eq!(
                plain.flow(b).cubic_meters_per_second(),
                robust.flow(b).cubic_meters_per_second()
            );
        }
    }

    #[test]
    fn damped_rungs_rescue_a_budget_starved_first_attempt() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        // One-iteration budget cannot converge...
        let starved = SolveOptions::damped(0.7, 1);
        assert!(matches!(
            net.solve_with(
                &water(),
                &starved,
                &mut net.solver_context(),
                Sinks::disabled()
            ),
            Err(HydraulicError::NoConvergence { iterations: 1, .. })
        ));
        // ...but a ladder whose later rung has a real budget succeeds.
        let sol = net
            .solve_with_ladder(
                &water(),
                &[starved, SolveOptions::default()],
                &mut net.solver_context(),
                Sinks::disabled(),
            )
            .unwrap();
        assert!(sol.flows()[0].as_liters_per_minute() > 50.0);
    }

    #[test]
    fn exhausted_ladder_reports_structured_diagnostics() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("bath outlet");
        let b = net.add_junction("bath inlet");
        net.add_branch("loop pipe", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("bath pump", b, a, vec![pump()]).unwrap();
        let rungs = [SolveOptions::damped(0.7, 1), SolveOptions::damped(0.3, 2)];
        let err = ladder(&net, &rungs, Registry::disabled()).unwrap_err();
        let HydraulicError::Unsolvable { diagnostics } = err else {
            panic!("expected Unsolvable, got {err:?}");
        };
        assert_eq!(diagnostics.attempts.len(), 2);
        assert_eq!(diagnostics.attempts[0].max_iter, 1);
        assert_eq!(diagnostics.attempts[1].relax, 0.3);
        assert!(diagnostics.residual.is_finite());
        // the named offenders are real members of this network
        assert!(["bath outlet", "bath inlet"].contains(&diagnostics.worst_junction.as_str()));
        assert!(["loop pipe", "bath pump"].contains(&diagnostics.worst_branch.as_str()));
    }

    #[test]
    fn empty_ladder_is_rejected() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        assert!(matches!(
            ladder(&net, &[], Registry::disabled()),
            Err(HydraulicError::NonPositiveParameter { .. })
        ));
    }

    #[test]
    fn healthy_ladder_solve_records_rung_zero_and_no_escalations() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let sol = ladder(&net, &SolveOptions::ladder(), &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.calls"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 0);
        let rung = snap.histogram("hydraulics.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![1, 0, 0, 0], "healthy nets use rung 0");
        let iters = snap.histogram("hydraulics.ladder.iterations").unwrap();
        assert_eq!(iters.total(), 1);
        // the recorded iteration bucket matches the solution's count
        assert!(sol.iterations() > 0);
    }

    #[test]
    fn starved_first_rung_records_one_escalation() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let rungs = [SolveOptions::damped(0.7, 1), SolveOptions::default()];
        ladder(&net, &rungs, &obs).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 1);
        let rung = snap.histogram("hydraulics.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![0, 1, 0, 0]);
    }

    #[test]
    fn exhausted_ladder_records_unsolvable_telemetry() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let rungs = [SolveOptions::damped(0.7, 1), SolveOptions::damped(0.3, 2)];
        let _ = net
            .solve_with_ladder(
                &water(),
                &rungs,
                &mut net.solver_context(),
                Sinks::counters(&obs),
            )
            .unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 1);
        assert!(snap.histogram("hydraulics.ladder.rung").is_none());
    }

    #[test]
    fn single_attempt_telemetry_counts_calls_and_outcomes() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let obs = Registry::new();
        let mut ctx = net.solver_context();
        net.solve_with(
            &water(),
            &SolveOptions::default(),
            &mut ctx,
            Sinks::counters(&obs),
        )
        .unwrap();
        let _ = net
            .solve_with(
                &water(),
                &SolveOptions::damped(0.7, 1),
                &mut net.solver_context(),
                Sinks::counters(&obs),
            )
            .unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.solve.calls"), 2);
        assert_eq!(snap.counter("hydraulics.solve.converged"), 1);
        assert_eq!(snap.counter("hydraulics.solve.stalled"), 1);
        let decades = snap.histogram("hydraulics.solve.residual_decade").unwrap();
        assert_eq!(
            decades.total(),
            1,
            "only the converged attempt records a residual"
        );
    }

    #[test]
    fn observed_and_plain_solves_produce_identical_solutions() {
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("supply");
        let r = net.add_junction("return");
        let b1 = net.add_branch("short", s, r, vec![pipe(5.0)]).unwrap();
        let b2 = net.add_branch("long", s, r, vec![pipe(40.0)]).unwrap();
        net.add_branch("pump", r, s, vec![pump()]).unwrap();
        let obs = Registry::new();
        let plain = ladder(&net, &SolveOptions::ladder(), Registry::disabled()).unwrap();
        let observed = ladder(&net, &SolveOptions::ladder(), &obs).unwrap();
        for b in [b1, b2] {
            assert_eq!(
                plain.flow(b).cubic_meters_per_second(),
                observed.flow(b).cubic_meters_per_second()
            );
        }
        assert_eq!(plain.iterations(), observed.iterations());
    }

    #[test]
    fn mass_is_conserved_at_every_junction() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let c = net.add_junction("c");
        net.add_branch("ab", a, b, vec![pipe(8.0)]).unwrap();
        net.add_branch("bc1", b, c, vec![pipe(12.0)]).unwrap();
        net.add_branch("bc2", b, c, vec![pipe(18.0)]).unwrap();
        net.add_branch("pump", c, a, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
        for j in 0..net.junction_count() {
            let res = sol.continuity_residual(crate::JunctionId(j));
            assert!(
                res.cubic_meters_per_second().abs() < 1e-8,
                "junction {j}: {res:?}"
            );
        }
    }

    /// A 3-junction branched network with a valve — enough structure to
    /// exercise off-diagonal scatter, isolated handling and reuse.
    fn branched_net() -> (HydraulicNetwork, Vec<crate::BranchId>) {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let c = net.add_junction("c");
        let v = Element::Valve(Valve::balancing(Length::millimeters(25.0)));
        let ids = vec![
            net.add_branch("ab", a, b, vec![pipe(8.0)]).unwrap(),
            net.add_branch("bc1", b, c, vec![pipe(12.0), v]).unwrap(),
            net.add_branch("bc2", b, c, vec![pipe(18.0)]).unwrap(),
            net.add_branch("pump", c, a, vec![pump()]).unwrap(),
        ];
        (net, ids)
    }

    #[test]
    fn sparse_and_dense_engines_agree_bitwise_on_cold_solves() {
        let (net, ids) = branched_net();
        let mut sparse = net.solver_context_with(SolverEngine::Sparse);
        let mut dense = net.solver_context_with(SolverEngine::Dense);
        let s = attempt(&net, &mut sparse).unwrap();
        let d = attempt(&net, &mut dense).unwrap();
        assert_eq!(s.iterations(), d.iterations());
        for &b in &ids {
            assert_eq!(
                s.flow(b).cubic_meters_per_second(),
                d.flow(b).cubic_meters_per_second(),
                "sparse and dense engines must agree bitwise"
            );
        }
        for j in net.junction_ids() {
            assert_eq!(s.pressure(j).pascals(), d.pressure(j).pascals());
        }
    }

    #[test]
    fn stateless_solve_matches_fresh_context_solve_bitwise() {
        let (net, ids) = branched_net();
        let stateless = net.solve(&water()).unwrap();
        let mut ctx = net.solver_context();
        let via_ctx = attempt(&net, &mut ctx).unwrap();
        assert_eq!(stateless.iterations(), via_ctx.iterations());
        for &b in &ids {
            assert_eq!(
                stateless.flow(b).cubic_meters_per_second(),
                via_ctx.flow(b).cubic_meters_per_second()
            );
        }
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_solution() {
        let (net, ids) = branched_net();
        let mut ctx = net.solver_context();
        let cold = attempt(&net, &mut ctx).unwrap();
        assert!(ctx.is_warm());
        let warm = attempt(&net, &mut ctx).unwrap();
        assert!(
            warm.iterations() < cold.iterations(),
            "warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
        for &b in &ids {
            let qc = cold.flow(b).cubic_meters_per_second();
            let qw = warm.flow(b).cubic_meters_per_second();
            assert!(
                (qc - qw).abs() <= 1e-9,
                "warm flow {qw} drifted from cold {qc}"
            );
        }
    }

    #[test]
    fn context_survives_valve_retrims_and_rebuilds_on_openness_change() {
        let (mut net, ids) = branched_net();
        let mut ctx = net.solver_context();
        attempt(&net, &mut ctx).unwrap();
        // a valve trim keeps the topology: the context stays warm
        net.set_valve_opening(ids[1], 0.4).unwrap();
        let trimmed = attempt(&net, &mut ctx).unwrap();
        // closing a branch changes the incidence: the plan is rebuilt
        // (keeping the neighboring seed) and the result matches a
        // from-scratch solve of the same network within tolerance
        net.set_branch_open(ids[1], false).unwrap();
        let failed_warm = attempt(&net, &mut ctx).unwrap();
        let failed_cold = net.solve(&water()).unwrap();
        assert_eq!(failed_warm.flow(ids[1]).cubic_meters_per_second(), 0.0);
        for &b in &ids {
            let qw = failed_warm.flow(b).cubic_meters_per_second();
            let qc = failed_cold.flow(b).cubic_meters_per_second();
            assert!((qw - qc).abs() <= 1e-9, "warm {qw} vs cold {qc}");
        }
        assert!(trimmed.flow(ids[1]).cubic_meters_per_second() > 0.0);
    }

    #[test]
    fn failed_attempt_discards_the_seed() {
        let (net, _) = branched_net();
        let mut ctx = net.solver_context();
        attempt(&net, &mut ctx).unwrap();
        assert!(ctx.is_warm());
        // a starved warm attempt fails and must not leave a stale seed
        let starved = SolveOptions::damped(0.7, 1);
        let _ = net
            .solve_with(&water(), &starved, &mut ctx, Sinks::disabled())
            .unwrap_err();
        assert!(!ctx.is_warm(), "failed attempts must clear the seed");
        // the next solve is cold and matches the stateless path bitwise
        let recovered = attempt(&net, &mut ctx).unwrap();
        let stateless = net.solve(&water()).unwrap();
        assert_eq!(recovered.iterations(), stateless.iterations());
    }

    #[test]
    fn warm_ladder_records_warm_start_work() {
        let (net, _) = branched_net();
        let mut ctx = net.solver_context();
        let obs = Registry::new();
        let sinks = Sinks::counters(&obs);
        for _ in 0..2 {
            net.solve_with_ladder(&water(), &SolveOptions::ladder(), &mut ctx, sinks)
                .unwrap();
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 2);
        assert_eq!(
            snap.counter("profile.hydraulics.warm_starts"),
            1,
            "only the second solve starts from a seed"
        );
    }

    #[test]
    fn sweep_warm_and_cold_agree_within_solver_tolerance() {
        let (net, ids) = branched_net();
        let openings = [1.0, 0.8, 0.6, 0.4, 0.3, 0.5, 0.9];
        let sweep = |warm: bool| {
            let mut n = net.clone();
            let valve = ids[1];
            n.solve_sweep(openings.len(), warm, Sinks::disabled(), |net, i| {
                net.set_valve_opening(valve, openings[i]).unwrap();
                water()
            })
            .unwrap()
        };
        let cold = sweep(false);
        let warm = sweep(true);
        assert_eq!(cold.len(), warm.len());
        let mut warm_iters = 0;
        let mut cold_iters = 0;
        for (c, w) in cold.iter().zip(&warm) {
            cold_iters += c.iterations();
            warm_iters += w.iterations();
            for &b in &ids {
                let qc = c.flow(b).cubic_meters_per_second();
                let qw = w.flow(b).cubic_meters_per_second();
                assert!((qc - qw).abs() <= 1e-9, "step flows {qc} vs {qw}");
            }
        }
        assert!(
            warm_iters < cold_iters,
            "warm sweep {warm_iters} iters vs cold {cold_iters}"
        );
    }

    #[test]
    fn warm_starting_is_deterministic_across_repeats() {
        // The seed is a pure function of the solve history, so two
        // identical warm chains must agree bit for bit.
        let (net, ids) = branched_net();
        let chain = || {
            let mut ctx = net.solver_context();
            let _ = attempt(&net, &mut ctx).unwrap();
            attempt(&net, &mut ctx).unwrap()
        };
        let a = chain();
        let b = chain();
        assert_eq!(a.iterations(), b.iterations());
        for &id in &ids {
            assert_eq!(
                a.flow(id).cubic_meters_per_second(),
                b.flow(id).cubic_meters_per_second()
            );
        }
    }

    /// Asserts two solutions carry the same bits: iterations, residual,
    /// every flow and every pressure.
    fn assert_bitwise_eq(a: &HydraulicSolution, b: &HydraulicSolution) {
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.flows().len(), b.flows().len());
        assert_eq!(
            a.worst_residual_m3s().to_bits(),
            b.worst_residual_m3s().to_bits()
        );
        for (qa, qb) in a.flows().iter().zip(b.flows()) {
            assert_eq!(
                qa.cubic_meters_per_second().to_bits(),
                qb.cubic_meters_per_second().to_bits()
            );
        }
        for j in a.network().junction_ids() {
            assert_eq!(
                a.pressure(j).pascals().to_bits(),
                b.pressure(j).pascals().to_bits()
            );
        }
    }

    #[test]
    fn rescued_ladder_through_a_used_context_matches_a_fresh_one_bitwise() {
        // The reused context carries a seed and Newton workspaces from a
        // solve at another temperature; rung 0 starts from that seed and
        // stalls on its one-iteration budget, rung 1 restarts cold. No
        // drop, conductance or residual left by the earlier solve or by
        // the stalled rung may reach rung 1's arithmetic.
        let (net, _) = branched_net();
        let warm_water = Coolant::water().state(Celsius::new(45.0));
        let rungs = [SolveOptions::damped(0.7, 1), SolveOptions::default()];
        let mut used = net.solver_context();
        net.solve_with(
            &warm_water,
            &SolveOptions::default(),
            &mut used,
            Sinks::disabled(),
        )
        .unwrap();
        assert!(used.is_warm());
        let reused = net
            .solve_with_ladder(&water(), &rungs, &mut used, Sinks::disabled())
            .unwrap();
        let fresh = ladder(&net, &rungs, Registry::disabled()).unwrap();
        assert_bitwise_eq(&reused, &fresh);
    }

    #[test]
    fn context_reused_across_topology_changes_matches_a_fresh_one_bitwise() {
        let (mut net, ids) = branched_net();
        let mut ctx = net.solver_context();
        attempt(&net, &mut ctx).unwrap();

        // An openness flip rebuilds the plan but keeps the seed; with the
        // seed dropped the solve must equal a fresh context's.
        net.set_branch_open(ids[2], false).unwrap();
        ctx.clear_seed();
        let reused = attempt(&net, &mut ctx).unwrap();
        let fresh = net.solve(&water()).unwrap();
        assert_bitwise_eq(&reused, &fresh);

        // ...and flipping back, warm from the closed-branch solution,
        // equals a fresh context given the same history.
        net.set_branch_open(ids[2], true).unwrap();
        let reused_warm = attempt(&net, &mut ctx).unwrap();
        let mut replay = net.solver_context();
        let mut closed = net.clone();
        closed.set_branch_open(ids[2], false).unwrap();
        attempt(&closed, &mut replay).unwrap();
        let fresh_warm = attempt(&net, &mut replay).unwrap();
        assert_bitwise_eq(&reused_warm, &fresh_warm);

        // A different branch count resizes every workspace and drops
        // the seed: the next solve is cold and equals a fresh context's.
        let (a, c) = net.branch_endpoints(ids[1]);
        net.add_branch("bypass", a, c, vec![pipe(30.0)]).unwrap();
        let grown = attempt(&net, &mut ctx).unwrap();
        let fresh_grown = net.solve(&water()).unwrap();
        assert_bitwise_eq(&grown, &fresh_grown);
        assert_eq!(grown.flows().len(), 5);
    }

    #[test]
    fn solution_keeps_the_topology_it_solved_after_the_network_mutates() {
        // The network is shared copy-on-write with its solutions, so a
        // later trim or failure must not reach an earlier solution.
        let (mut net, ids) = branched_net();
        let sol = net.solve(&water()).unwrap();
        let pump_power = sol.total_pump_power().watts();
        net.set_valve_opening(ids[1], 0.2).unwrap();
        net.set_branch_open(ids[2], false).unwrap();
        assert!(!net.branch_is_open(ids[2]).unwrap());
        assert!(sol.network().branch_is_open(ids[2]).unwrap());
        assert_eq!(
            sol.total_pump_power().watts().to_bits(),
            pump_power.to_bits()
        );
        // re-solving the recorded network reproduces the solution, so
        // the valve opening it holds is the pre-trim one as well
        let again = sol.network().solve(&water()).unwrap();
        assert_bitwise_eq(&sol, &again);
        let after = net.solve(&water()).unwrap();
        assert!(after.total_pump_power().watts() != pump_power);
    }

    #[test]
    fn sparse_and_dense_engines_agree_bitwise_on_warm_chains() {
        // Both engines through their own long-lived context over a chain
        // of temperatures, trims and a failure: warm starts, carried
        // drops and plan rebuilds must keep them bit-identical.
        let (mut net, ids) = branched_net();
        let mut sparse = net.solver_context_with(SolverEngine::Sparse);
        let mut dense = net.solver_context_with(SolverEngine::Dense);
        for step in 0..8u32 {
            let fluid = Coolant::water().state(Celsius::new(20.0 + 3.0 * f64::from(step)));
            net.set_valve_opening(ids[1], 1.0 - 0.1 * f64::from(step))
                .unwrap();
            if step == 5 {
                net.set_branch_open(ids[2], false).unwrap();
            }
            let s = net
                .solve_with_ladder(
                    &fluid,
                    &SolveOptions::ladder(),
                    &mut sparse,
                    Sinks::disabled(),
                )
                .unwrap();
            let d = net
                .solve_with_ladder(
                    &fluid,
                    &SolveOptions::ladder(),
                    &mut dense,
                    Sinks::disabled(),
                )
                .unwrap();
            assert_bitwise_eq(&s, &d);
        }
    }

    #[test]
    fn isolated_junctions_are_pinned_identically_by_both_engines() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let stranded = net.add_junction("stranded");
        let spur_end = net.add_junction("spur end");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let spur = net
            .add_branch("spur", b, spur_end, vec![pipe(5.0)])
            .unwrap();
        net.set_branch_open(spur, false).unwrap();
        let mut sparse = net.solver_context_with(SolverEngine::Sparse);
        let mut dense = net.solver_context_with(SolverEngine::Dense);
        let s = attempt(&net, &mut sparse).unwrap();
        let d = attempt(&net, &mut dense).unwrap();
        for j in [stranded, spur_end] {
            assert_eq!(s.pressure(j).pascals(), 0.0);
            assert_eq!(d.pressure(j).pascals(), 0.0);
        }
        assert_eq!(s.flow(spur).cubic_meters_per_second(), 0.0);
        assert_eq!(
            s.flows()
                .iter()
                .map(|q| q.cubic_meters_per_second())
                .sum::<f64>(),
            d.flows()
                .iter()
                .map(|q| q.cubic_meters_per_second())
                .sum::<f64>()
        );
    }
}
