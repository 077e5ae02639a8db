//! Global-gradient (Newton) solver for the flow distribution.
//!
//! The algorithm is Todini & Pilati's global gradient method as used by
//! EPANET: each outer iteration linearizes every branch's head-loss curve
//! around its current flow, solves the resulting nodal pressure system,
//! and updates branch flows from the new pressures. The default attempt
//! takes full Newton steps (relax 1.0), as EPANET does, and converges
//! quadratically near the solution. At relax 1.0 the updated flows solve
//! the linearized nodal equations exactly, so they satisfy junction
//! continuity by construction (to rounding) and head closure on every
//! branch decides convergence. A relax below 1 blends each update with
//! the previous flows; only the retry ladder's damped rungs use it, for
//! stiff loss curves on which full steps oscillate.
//!
//! The nodal system is solved with sparse graph elimination over the
//! node incidence structure ([`rcs_numeric::SparseSymbolic`]): the
//! symbolic factorization is analyzed once per topology and replayed
//! per Newton iteration. The elimination schedule mirrors the dense
//! loop order exactly, so on the diagonally dominant systems the
//! assembly produces it is bit-identical to dense Gaussian elimination
//! ([`rcs_numeric::Matrix::solve`]), which the unit tests keep as the
//! reference every nodal solve is checked against.
//!
//! Repeated solves — parameter sweeps, coupled fixed points, failure
//! studies — reuse a [`SolverContext`]: the symbolic factorization is
//! shared across Newton iterations and ladder rungs, and each
//! successful solve leaves its flows behind as a **warm start** for the
//! next, so neighboring solves start from the neighboring solution
//! instead of from scratch.
//!
//! Faulted networks (deeply derated pumps, nearly shut valves) can sit
//! on much stiffer loss curves than healthy ones, so every solve runs a
//! retry ladder ([`HydraulicNetwork::solve_with_ladder`]): the default
//! settings first, then progressively heavier damping with a larger
//! iteration budget, and finally a structured
//! [`ConvergenceDiagnostics`] naming the worst junction and branch if
//! every rung fails.
//!
//! [`ConvergenceDiagnostics`]: crate::error::ConvergenceDiagnostics

use rcs_fluids::FluidState;
use rcs_numeric::SparseSymbolic;
use rcs_obs::trace::ChannelKind;
use rcs_obs::{residual_decade, Registry, Sinks};
use rcs_units::VolumeFlow;

use crate::error::{ConvergenceDiagnostics, HydraulicError, SolveAttempt};
use crate::network::{BranchData, HydraulicNetwork};
use crate::solution::HydraulicSolution;

/// Convergence tolerance on the worst junction continuity residual, m³/s.
const CONTINUITY_TOL: f64 = 1e-9;
/// Maximum outer Newton iterations.
const MAX_ITER: usize = 200;
/// Under-relaxation on flow updates of the default attempt: 1.0 takes
/// full Newton steps.
const RELAX: f64 = 1.0;
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
/// The defaults take full Newton steps (relax 1.0) with a 200-iteration
/// budget; [`SolveOptions::damped`] builds the heavier rungs of the
/// retry ladder.
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
    /// [`HydraulicNetwork::solve_with_ladder`] (and so for
    /// [`HydraulicNetwork::solve`]): the default full Newton steps first,
    /// then two progressively damped re-solves with larger budgets for
    /// stiff networks on which full steps oscillate.
    #[must_use]
    pub fn ladder() -> [Self; 3] {
        [
            Self::default(),
            Self::damped(0.45, 500),
            Self::damped(0.15, 1500),
        ]
    }
}

/// Precomputed per-branch assembly plan: the unknown-column of each
/// endpoint and the value-array indices the branch conductance
/// scatters into.
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
/// if the topology changed (junction count, reference, any branch's
/// endpoints or openness) the plan is rebuilt automatically — the warm
/// seed survives pure openness changes (a failure sweep's neighboring
/// solution is still the best available guess) and is dropped when the
/// branch set itself changed. Valve re-trims and fluid changes don't
/// invalidate anything.
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
/// let (ladder, off) = (SolveOptions::ladder(), Sinks::disabled());
/// let mut ctx = net.solver_context();
/// let cold = net.solve_with_ladder(&water, &ladder, &mut ctx, off)?;
/// let warm = net.solve_with_ladder(&water, &ladder, &mut ctx, off)?; // starts from `cold`'s flows
/// assert!(warm.iterations() < cold.iterations());
/// # Ok::<(), rcs_hydraulics::HydraulicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolverContext {
    // -- topology fingerprint --
    n_junctions: usize,
    reference: usize,
    /// `(from, to, open)` of every branch.
    incidence: Vec<(usize, usize, bool)>,
    // -- assembly plan --
    unknowns: Vec<usize>,
    touched: Vec<bool>,
    scatter: Vec<BranchScatter>,
    symbolic: SparseSymbolic,
    // -- numeric workspaces (`rhs` returns the pressures of the unknown
    //    junctions) --
    values: Vec<f64>,
    rhs: Vec<f64>,
    // -- Newton workspaces --
    /// Per-branch pressure drop `h` at the current flows, Pa. The first
    /// iteration of every attempt evaluates it; later iterations reuse
    /// the drops the previous head-closure check evaluated at the same
    /// flows.
    drops: Vec<f64>,
    /// Per-branch linearized conductance `d = 1 / h'`, m³/s per Pa,
    /// evaluated together with `drops` and carried the same way.
    conductance: Vec<f64>,
    /// Per-junction continuity residual, m³/s.
    residual: Vec<f64>,
    // -- warm state --
    warm_flows: Option<Vec<f64>>,
}

impl SolverContext {
    fn build(net: &HydraulicNetwork, warm: Option<Vec<f64>>) -> Self {
        let n_junctions = net.junctions.len();
        let reference = net.reference.map_or(0, |r| r.0);
        let incidence: Vec<(usize, usize, bool)> = net
            .branches
            .iter()
            .map(|b| (b.from.0, b.to.0, b.open))
            .collect();
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

        // Open-branch incidence only: exactly the edges whose
        // conductances the assembly scatters. Closed branches contribute
        // nothing, so openness is part of the fingerprint above.
        let edges: Vec<(usize, usize)> = net
            .branches
            .iter()
            .filter(|b| b.open)
            .filter_map(|b| Some((col_of[b.from.0]?, col_of[b.to.0]?)))
            .collect();
        let symbolic = SparseSymbolic::analyze(unknowns.len(), &edges);
        let scatter = net
            .branches
            .iter()
            .map(|b| {
                let ci = col_of[b.from.0];
                let cj = col_of[b.to.0];
                let idx = |r: Option<usize>, c: Option<usize>| -> usize {
                    match (r, c, b.open) {
                        (Some(r), Some(c), true) => symbolic
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

        let nnz = symbolic.nnz();
        let n = unknowns.len();
        let n_branches = net.branches.len();
        Self {
            n_junctions,
            reference,
            incidence,
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

    /// `true` if `net` has the same branches, endpoint for endpoint, as
    /// the network the plan was built for (openness aside).
    fn same_branches(&self, net: &HydraulicNetwork) -> bool {
        self.incidence.len() == net.branches.len()
            && self
                .incidence
                .iter()
                .zip(net.branches.iter())
                .all(|(&(from, to, _), b)| from == b.from.0 && to == b.to.0)
    }

    /// `true` if the stored plan still describes `net`'s topology.
    fn matches(&self, net: &HydraulicNetwork) -> bool {
        self.n_junctions == net.junctions.len()
            && self.reference == net.reference.map_or(0, |r| r.0)
            && self.same_branches(net)
            && self
                .incidence
                .iter()
                .zip(net.branches.iter())
                .all(|(&(_, _, open), b)| open == b.open)
    }

    /// Revalidates against `net`, rebuilding the plan if the topology
    /// changed. The warm seed survives a rebuild when the branches are
    /// unchanged but for openness; otherwise it is dropped.
    fn ensure(&mut self, net: &HydraulicNetwork) {
        if self.matches(net) {
            return;
        }
        let warm = self.warm_flows.take().filter(|_| self.same_branches(net));
        *self = Self::build(net, warm);
    }

    /// Consumes the warm seed if it is usable for `net`.
    fn take_seed(&mut self, net: &HydraulicNetwork) -> Option<Vec<f64>> {
        self.warm_flows
            .take()
            .filter(|w| w.len() == net.branches.len() && w.iter().all(|q| q.is_finite()))
    }

    /// Drops the warm-start seed: the next solve starts cold.
    pub fn clear_seed(&mut self) {
        self.warm_flows = None;
    }

    /// Replaces the warm-start seed with caller-supplied branch flows,
    /// one per branch in [`HydraulicNetwork::add_branch`] order — for a
    /// caller that knows a neighboring solution this context never
    /// solved. The next solve starts from them if they are usable: a
    /// seed of the wrong length or with a non-finite flow is dropped
    /// there, and that solve starts cold.
    pub fn set_seed(&mut self, flows: &[VolumeFlow]) {
        self.warm_flows = Some(flows.iter().map(|q| q.cubic_meters_per_second()).collect());
    }
}

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
    /// Builds a reusable [`SolverContext`] for this topology. Reuse it
    /// across repeated solves to share the symbolic factorization and
    /// warm-start each solve from the previous solution.
    #[must_use]
    pub fn solver_context(&self) -> SolverContext {
        SolverContext::build(self, None)
    }

    /// Solves the steady flow distribution for the given fluid state:
    /// the standard retry ladder ([`SolveOptions::ladder`]) on a fresh
    /// context, with no telemetry.
    ///
    /// # Errors
    ///
    /// As [`HydraulicNetwork::solve_with_ladder`]:
    /// [`HydraulicError::Unsolvable`] if every rung stalls, and
    /// singular-matrix failures from degenerate networks.
    pub fn solve(&self, fluid: &FluidState) -> Result<HydraulicSolution, HydraulicError> {
        self.solve_observed(fluid, Registry::disabled())
    }

    /// [`HydraulicNetwork::solve`] with counters recorded into `obs`.
    /// Kept for `perfbench/src/sinks.rs`, its only caller.
    ///
    /// # Errors
    ///
    /// Same contract as [`HydraulicNetwork::solve`].
    pub fn solve_observed(
        &self,
        fluid: &FluidState,
        obs: &Registry,
    ) -> Result<HydraulicSolution, HydraulicError> {
        self.solve_with_ladder(
            fluid,
            &SolveOptions::ladder(),
            &mut self.solver_context(),
            Sinks::counters(obs),
        )
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

    /// Solves through a retry ladder — the only solve attempt driver;
    /// [`SolveOptions::ladder`] is the standard one: the default full
    /// Newton steps first (so healthy networks pay nothing extra), then
    /// two progressively damped re-solves. A caller that needs one
    /// specific attempt passes a one-rung slice, such as
    /// `&[SolveOptions::default()]`.
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
                    obs.record_golden("hydraulics.ladder.rung", rung as u64);
                    obs.record_golden("hydraulics.ladder.iterations", solution.iterations() as u64);
                    obs.record_golden(
                        "hydraulics.ladder.residual_decade",
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
            // Linearize each open branch: dp(Q) ~ h + h' (Qnew - Q), kept
            // as the drop h and the conductance 1/h'. From the second
            // iteration on, the head-closure check below has already
            // evaluated both at these exact flows, so each iteration
            // evaluates each branch's loss curve once. Iteration 0
            // evaluates them afresh: workspaces left by an earlier solve
            // or rung belong to other flows.
            if iter == 0 {
                for (k, b) in self.branches.iter().enumerate() {
                    (ctx.drops[k], ctx.conductance[k]) = if b.open {
                        linearize(b, flows[k], fluid)
                    } else {
                        (0.0, 0.0)
                    };
                }
            }

            // Assemble and solve the nodal system A p = rhs over the
            // unknown junctions; the pressures come back in `ctx.rhs`.
            if n > 0 {
                self.solve_nodal(ctx, &flows)
                    .map_err(|e| InnerError::Other(e.into()))?;
                for (c, &j) in ctx.unknowns.iter().enumerate() {
                    pressures[j] = ctx.rhs[c];
                }
                pressures[reference] = 0.0;
            }

            // Flow update: the full Newton step, blended with the
            // previous flows when `opts.relax < 1`.
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
            // conserves mass), and a full step satisfies it everywhere by
            // construction, so the energy equation must be checked too.
            // Each drop and conductance is kept for the next iteration's
            // linearization.
            let mut worst_head = 0.0f64;
            let mut head_scale = 1.0f64;
            for (k, b) in self.branches.iter().enumerate() {
                if !b.open {
                    continue;
                }
                let (drop, conductance) = linearize(b, flows[k], fluid);
                ctx.drops[k] = drop;
                ctx.conductance[k] = conductance;
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
                    solution: HydraulicSolution::new(self.clone(), flows, iter + 1, worst),
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

    /// One nodal solve, in place: scatter the linearized conductances
    /// into the context's value workspace in branch order, pin isolated
    /// rows, and replay the precomputed elimination schedule. The
    /// pressures are left in `ctx.rhs`.
    fn solve_nodal(
        &self,
        ctx: &mut SolverContext,
        flows: &[f64],
    ) -> Result<(), rcs_numeric::NumericError> {
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
                ctx.values[ctx.symbolic.diag_index(row)] = 1.0;
                ctx.rhs[row] = 0.0;
            }
        }
        ctx.symbolic.factor_solve(&mut ctx.values, &mut ctx.rhs)
    }
}

/// The drop `h` of branch `b` at flow `q` and its linearized conductance
/// `1 / h'`, from one evaluation of each element's loss curve.
fn linearize(b: &BranchData, q: f64, fluid: &FluidState) -> (f64, f64) {
    let (drop, slope) = b.drop_and_slope(VolumeFlow::from_cubic_meters_per_second(q), fluid);
    (drop.pascals(), 1.0 / slope.max(1e-9))
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
        net.solve_with_ladder(&water(), &[SolveOptions::default()], ctx, Sinks::disabled())
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
            Element::Pipe(p) => p.loss_and_slope(q, &water()).0.pascals(),
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
        // the solver must still converge, and the stranded node has zero
        // continuity residual.
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let stranded = net.add_junction("stranded");
        net.add_branch("loop", a, b, vec![pipe(20.0)]).unwrap();
        net.add_branch("pump", b, a, vec![pump()]).unwrap();
        let sol = net.solve(&water()).unwrap();
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
        assert_eq!(sol.flow(spur).cubic_meters_per_second(), 0.0);
    }

    #[test]
    fn solve_is_identical_to_a_single_default_attempt_on_healthy_networks() {
        // The ladder's first rung is the default options, so on a network
        // that converges there `solve()` returns the single attempt's bits.
        let manifold = crate::layout::rack_manifold(32, crate::layout::ReturnStyle::Direct);
        for net in [branched_net().0, manifold.network] {
            let single = ladder(&net, &[SolveOptions::default()], Registry::disabled()).unwrap();
            assert_bitwise_eq(&net.solve(&water()).unwrap(), &single);
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
            ladder(&net, &[starved], Registry::disabled()),
            Err(HydraulicError::Unsolvable { .. })
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
        let _ = ladder(&net, &rungs, &obs).unwrap_err();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 0);
        assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 1);
        assert!(snap.histogram("hydraulics.ladder.rung").is_none());
        assert!(
            snap.histogram("hydraulics.ladder.residual_decade")
                .is_none(),
            "only a converged rung records a residual decade"
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
        let plain = net.solve(&water()).unwrap();
        let observed = net.solve_observed(&water(), &obs).unwrap();
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
        for j in 0..net.junctions.len() {
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

    /// The dense reference for one nodal solve: the system
    /// `solve_nodal` factors, assembled from `ctx`'s scatter plan into a
    /// dense [`rcs_numeric::Matrix`] and solved by partially pivoted
    /// Gaussian elimination. Returns the unknown junctions' pressures.
    fn solve_nodal_dense(net: &HydraulicNetwork, ctx: &SolverContext, flows: &[f64]) -> Vec<f64> {
        let n = ctx.unknowns.len();
        let mut a = rcs_numeric::Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        for (k, _) in net.branches.iter().enumerate().filter(|(_, b)| b.open) {
            let sc = ctx.scatter[k];
            let d = ctx.conductance[k];
            let q_lin = flows[k] - d * ctx.drops[k];
            if let Some(ci) = sc.ci {
                a[(ci, ci)] += d;
                rhs[ci] -= q_lin;
                if let Some(cj) = sc.cj {
                    a[(ci, cj)] -= d;
                }
            }
            if let Some(cj) = sc.cj {
                a[(cj, cj)] += d;
                rhs[cj] += q_lin;
                if let Some(ci) = sc.ci {
                    a[(cj, ci)] -= d;
                }
            }
        }
        for (row, &j) in ctx.unknowns.iter().enumerate() {
            if !ctx.touched[j] {
                a[(row, row)] = 1.0;
                rhs[row] = 0.0;
            }
        }
        a.solve(&rhs).unwrap()
    }

    /// `steps` full Newton steps from `flows`, each nodal system solved
    /// by both `solve_nodal` and the dense reference, which must agree
    /// bit for bit. Returns the flows and junction pressures after the
    /// last step.
    fn dense_newton(
        net: &HydraulicNetwork,
        fluid: &FluidState,
        mut flows: Vec<f64>,
        steps: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let relax = SolveOptions::default().relax;
        let mut ctx = net.solver_context();
        let mut pressures = vec![0.0; net.junctions.len()];
        for _ in 0..steps {
            for (k, b) in net.branches.iter().enumerate() {
                (ctx.drops[k], ctx.conductance[k]) = if b.open {
                    linearize(b, flows[k], fluid)
                } else {
                    (0.0, 0.0)
                };
            }
            let dense = solve_nodal_dense(net, &ctx, &flows);
            net.solve_nodal(&mut ctx, &flows).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ctx.rhs),
                bits(&dense),
                "sparse and dense nodal solves differ"
            );
            for (c, &j) in ctx.unknowns.iter().enumerate() {
                pressures[j] = dense[c];
            }
            for (k, b) in net.branches.iter().enumerate() {
                let dp = pressures[b.from.0] - pressures[b.to.0];
                let q_new = flows[k] + ctx.conductance[k] * (dp - ctx.drops[k]);
                flows[k] = if b.open {
                    relax * q_new + (1.0 - relax) * flows[k]
                } else {
                    0.0
                };
            }
        }
        (flows, pressures)
    }

    /// The cold initial guess of `solve_inner`.
    fn cold_guess(net: &HydraulicNetwork) -> Vec<f64> {
        net.branches
            .iter()
            .map(|b| if b.open { 1e-4 } else { 0.0 })
            .collect()
    }

    /// Asserts that `sol`, a default-rung solve started from `start`,
    /// has bitwise the flows of the dense-reference Newton walk of as
    /// many steps, and that the nodal solve at its converged flows
    /// matches the dense reference too. Returns the walk's junction
    /// pressures.
    fn assert_matches_dense_newton(
        net: &HydraulicNetwork,
        fluid: &FluidState,
        start: Vec<f64>,
        sol: &HydraulicSolution,
    ) -> Vec<f64> {
        let (flows, pressures) = dense_newton(net, fluid, start, sol.iterations());
        for (q, s) in flows.iter().zip(sol.flows()) {
            assert_eq!(q.to_bits(), s.cubic_meters_per_second().to_bits());
        }
        dense_newton(net, fluid, flows, 1);
        pressures
    }

    #[test]
    fn sparse_nodal_solves_match_the_dense_reference_bitwise_on_cold_solves() {
        let (net, _) = branched_net();
        let s = attempt(&net, &mut net.solver_context()).unwrap();
        assert_matches_dense_newton(&net, &water(), cold_guess(&net), &s);
    }

    #[test]
    fn warm_start_converges_faster_to_the_same_solution() {
        let (net, ids) = branched_net();
        let mut ctx = net.solver_context();
        let cold = attempt(&net, &mut ctx).unwrap();
        assert!(ctx.warm_flows.is_some());
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
        assert!(ctx.warm_flows.is_some());
        // a starved warm attempt fails and must not leave a stale seed
        let starved = SolveOptions::damped(0.7, 1);
        let _ = net
            .solve_with_ladder(&water(), &[starved], &mut ctx, Sinks::disabled())
            .unwrap_err();
        assert!(
            ctx.warm_flows.is_none(),
            "failed attempts must clear the seed"
        );
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
    fn an_unusable_caller_seed_is_a_cold_solve_and_a_usable_one_a_warm_start() {
        let (net, _) = branched_net();
        let counted = |seed: &[VolumeFlow]| {
            let obs = Registry::new();
            let mut ctx = net.solver_context();
            ctx.set_seed(seed);
            let sol = net
                .solve_with_ladder(
                    &water(),
                    &SolveOptions::ladder(),
                    &mut ctx,
                    Sinks::counters(&obs),
                )
                .unwrap();
            (
                sol,
                obs.snapshot().counter("profile.hydraulics.warm_starts"),
            )
        };
        let cold = net.solve(&water()).unwrap();
        let q = |m3s: f64| VolumeFlow::from_cubic_meters_per_second(m3s);
        let bad: [&[VolumeFlow]; 4] = [
            &[q(1e-3); 3],
            &[q(1e-3); 5],
            &[q(1e-3), q(f64::NAN), q(1e-3), q(1e-3)],
            &[q(1e-3), q(1e-3), q(f64::INFINITY), q(1e-3)],
        ];
        for seed in bad {
            let (sol, warm_starts) = counted(seed);
            assert_bitwise_eq(&sol, &cold);
            assert_eq!(warm_starts, 0, "{seed:?} must not count a warm start");
        }
        // the cold solution itself is the best seed there is
        let (sol, warm_starts) = counted(&cold.flows());
        assert_eq!(warm_starts, 1);
        assert!(sol.iterations() < cold.iterations());
    }

    #[test]
    fn sweep_warm_and_cold_agree_within_solver_tolerance() {
        let (net, ids) = branched_net();
        let openings = [1.0, 0.8, 0.6, 0.4, 0.3, 0.5, 0.9];
        let sweep = |warm: bool| {
            let mut n = net.clone();
            let mut ctx = n.solver_context();
            let mut out = Vec::new();
            for opening in openings {
                n.set_valve_opening(ids[1], opening).unwrap();
                if !warm {
                    ctx.clear_seed();
                }
                out.push(attempt(&n, &mut ctx).unwrap());
            }
            out
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
        net.solve_with_ladder(
            &warm_water,
            &[SolveOptions::default()],
            &mut used,
            Sinks::disabled(),
        )
        .unwrap();
        assert!(used.warm_flows.is_some());
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
        let (a, c) = (net.branches[ids[1].0].from, net.branches[ids[1].0].to);
        net.add_branch("bypass", a, c, vec![pipe(30.0)]).unwrap();
        let grown = attempt(&net, &mut ctx).unwrap();
        let fresh_grown = net.solve(&water()).unwrap();
        assert_bitwise_eq(&grown, &fresh_grown);
        assert_eq!(grown.flows().len(), 5);
    }

    #[test]
    fn context_handed_a_rewired_network_of_the_same_shape_replans() {
        // Same junction and branch counts, reference and openness, but
        // every branch on other endpoints (and another junction left
        // isolated): the context must rebuild its plan and drop its seed,
        // so the solve equals a fresh context's.
        let build = |ends: [(usize, usize); 3]| {
            let mut net = HydraulicNetwork::new();
            let j = [
                net.add_junction("a"),
                net.add_junction("b"),
                net.add_junction("c"),
            ];
            for (elements, (from, to)) in [vec![pipe(20.0)], vec![pipe(10.0)], vec![pump()]]
                .into_iter()
                .zip(ends)
            {
                net.add_branch("branch", j[from], j[to], elements).unwrap();
            }
            net
        };
        let first = build([(0, 1), (0, 1), (1, 0)]);
        let rewired = build([(0, 2), (0, 2), (2, 0)]);
        let mut ctx = first.solver_context();
        attempt(&first, &mut ctx).unwrap();
        let reused = rewired
            .solve_with_ladder(
                &water(),
                &SolveOptions::ladder(),
                &mut ctx,
                Sinks::disabled(),
            )
            .unwrap();
        assert_bitwise_eq(&reused, &rewired.solve(&water()).unwrap());
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
        assert!(sol.network.branch_is_open(ids[2]).unwrap());
        assert_eq!(
            sol.total_pump_power().watts().to_bits(),
            pump_power.to_bits()
        );
        // re-solving the recorded network reproduces the solution, so
        // the valve opening it holds is the pre-trim one as well
        let again = sol.network.solve(&water()).unwrap();
        assert_bitwise_eq(&sol, &again);
        let after = net.solve(&water()).unwrap();
        assert!(after.total_pump_power().watts() != pump_power);
    }

    #[test]
    fn sparse_nodal_solves_match_the_dense_reference_bitwise_on_warm_chains() {
        // One long-lived context over a chain of temperatures, trims and
        // a failure: every step's Newton walk from its warm seed, carried
        // drops and plan rebuilds included, must match the dense
        // reference bit for bit.
        let (mut net, ids) = branched_net();
        let mut ctx = net.solver_context();
        let mut seed = cold_guess(&net);
        for step in 0..8u32 {
            let fluid = Coolant::water().state(Celsius::new(20.0 + 3.0 * f64::from(step)));
            net.set_valve_opening(ids[1], 1.0 - 0.1 * f64::from(step))
                .unwrap();
            if step == 5 {
                net.set_branch_open(ids[2], false).unwrap();
                seed[ids[2].0] = 0.0;
            }
            let s = net
                .solve_with_ladder(&fluid, &SolveOptions::ladder(), &mut ctx, Sinks::disabled())
                .unwrap();
            assert_matches_dense_newton(&net, &fluid, seed, &s);
            seed = s
                .flows()
                .iter()
                .map(|q| q.cubic_meters_per_second())
                .collect();
        }
    }

    #[test]
    fn isolated_junctions_are_pinned_identically_by_the_dense_reference() {
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
        let s = attempt(&net, &mut net.solver_context()).unwrap();
        let dense = assert_matches_dense_newton(&net, &water(), cold_guess(&net), &s);
        for j in [stranded, spur_end] {
            assert_eq!(dense[j.0], 0.0);
        }
        assert_eq!(s.flow(spur).cubic_meters_per_second(), 0.0);
    }

    /// On every randomized topology and open/close pattern, each nodal
    /// solve of a cold solve matches the dense reference bitwise,
    /// including the isolated-junction class: a junction whose last
    /// open branch closes is pinned to the reference pressure.
    #[test]
    fn sparse_and_dense_agree_under_random_branch_outages() {
        rcs_testkit::check_cases(
            "sparse_and_dense_agree_under_random_branch_outages",
            64,
            |g| {
                let loops = g.draw(2usize..=6);
                let mut net = HydraulicNetwork::new();
                // supply/return headers with one loop and one dead-end
                // spur per station; spurs and loops open or close
                // independently
                let supply: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("s{i}")))
                    .collect();
                let ret: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("r{i}")))
                    .collect();
                let spurs: Vec<_> = (0..loops)
                    .map(|i| net.add_junction(format!("x{i}")))
                    .collect();
                let pipe = |len: f64| {
                    Element::Pipe(Pipe::smooth(
                        Length::from_meters(len),
                        Length::millimeters(20.0),
                    ))
                };
                for i in 0..loops - 1 {
                    let run = g.draw(0.5..4.0f64);
                    net.add_branch(format!("sh{i}"), supply[i], supply[i + 1], vec![pipe(run)])
                        .unwrap();
                    net.add_branch(format!("rh{i}"), ret[i + 1], ret[i], vec![pipe(run)])
                        .unwrap();
                }
                let mut loop_ids = Vec::new();
                let mut spur_ids = Vec::new();
                for i in 0..loops {
                    let len = g.draw(2.0..25.0f64);
                    loop_ids.push(
                        net.add_branch(format!("loop{i}"), supply[i], ret[i], vec![pipe(len)])
                            .unwrap(),
                    );
                    spur_ids.push(
                        net.add_branch(format!("spur{i}"), supply[i], spurs[i], vec![pipe(1.0)])
                            .unwrap(),
                    );
                }
                net.add_branch(
                    "pump",
                    ret[0],
                    supply[0],
                    vec![Element::Pump(PumpCurve::new(
                        Pressure::kilopascals(g.draw(40.0..120.0f64)),
                        VolumeFlow::liters_per_minute(400.0),
                    ))],
                )
                .unwrap();
                // random outages: keep loop 0 so the pump always has a
                // circuit; every spur is a dead end, so closing one
                // isolates its junction
                let mut closed_spurs = Vec::new();
                for &id in &loop_ids[1..] {
                    if g.draw(0.0..1.0f64) < 0.35 {
                        net.set_branch_open(id, false).unwrap();
                    }
                }
                for (i, &id) in spur_ids.iter().enumerate() {
                    if g.draw(0.0..1.0f64) < 0.5 {
                        net.set_branch_open(id, false).unwrap();
                        closed_spurs.push(i);
                    }
                }

                let s = attempt(&net, &mut net.solver_context()).unwrap();
                let dense = assert_matches_dense_newton(&net, &water(), cold_guess(&net), &s);
                // a spur junction cut off from the network is pinned to
                // the reference pressure with zero flow
                for &i in &closed_spurs {
                    assert_eq!(dense[spurs[i].0], 0.0);
                    assert_eq!(s.flow(spur_ids[i]).cubic_meters_per_second(), 0.0);
                }
            },
        );
    }
}
