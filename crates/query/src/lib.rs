//! The design-query service: a long-running front end over the solvers.
//!
//! A designer (or a batch driver such as the `query_cli` binary) asks
//! "what does a SKAT-class module in this bath at this utilization look
//! like?" many times over a session, and most of those questions repeat.
//! This crate turns each question into a [`DesignQuery`] with a
//! *canonical encoding* — fixed field order, length-prefixed strings,
//! canonicalized float bits — hashed by the vendored
//! [`rcs_numeric::hash::Fnv1a`] into a 64-bit content address. A bounded
//! [`QueryCache`] maps that address to the solved [`DesignVerdict`]
//! (steady-state temperatures, availability, annual energy, compliance),
//! and the [`QueryEngine`] batch scheduler answers whole request lists:
//! hits are served from the cache, in-batch duplicates are coalesced,
//! and the remaining distinct misses are solved concurrently over
//! [`rcs_parallel::par_map_isolated`], each reusing its availability
//! study when a sibling design point with the same [`StudyKey`] already
//! ran it.
//!
//! # Determinism contract
//!
//! Everything observable is a pure function of the request list and the
//! cache state — never of `RCS_THREADS`:
//!
//! - the lookup pass is sequential in request order, against the cache
//!   state at batch entry (inserts happen only after every lookup), so
//!   the hit/miss/coalesced partition is thread-independent;
//! - misses are solved in parallel but collected in first-occurrence
//!   order, and inserted into the cache in that order, so FIFO eviction
//!   follows insertion order exactly;
//! - a cached verdict is returned as stored — bit-identical to the
//!   solve that produced it — and the solvers themselves are
//!   deterministic, so a warm cache and a cold cache produce the same
//!   bytes;
//! - studies are resolved against the study table at batch entry in
//!   miss order and stored in miss order, and a stored study holds the
//!   bits a fresh run would produce, so reuse changes only the work
//!   done.
//!
//! The golden `query.*` counters ([`QueryEngine::run_batch`]) and their
//! `profile.query.*` work mirrors make the cache behaviour a pinned,
//! diffable artifact of every run.
//!
//! # Resilience
//!
//! `run_batch` never fails wholesale: it returns one [`QueryOutcome`]
//! per request — `Ok`, `Degraded` (a near-enough cached verdict served
//! with [`DegradedProvenance`] after a terminal failure), or `Failed`
//! with a structured, retry-classified [`QueryError`]. Behind each miss
//! sits [`solve_query_resilient`]: per-attempt panic isolation
//! ([`rcs_parallel::isolate`]), a bounded retry ladder that re-solves
//! retryable errors under progressively heavier damping, and a
//! per-query *work-unit* deadline ([`ResiliencePolicy::work_budget`],
//! measured in `profile.*` counters — never wall clock). Faults,
//! retries, budgets and degradations are all pure functions of the
//! request list and cache state, so every outcome and every
//! `resilience.*` counter is bit-identical at any `RCS_THREADS`.
//!
//! # Examples
//!
//! ```
//! use rcs_obs::{Registry, Sinks};
//! use rcs_query::{DesignQuery, QueryEngine};
//!
//! let q = DesignQuery::parse("family=skat util=0.85 trials=64 seed=7")?;
//! let mut engine = QueryEngine::new(8);
//! let obs = Registry::new();
//! let outcomes = engine.run_batch(&[q.clone(), q], 1, Sinks::counters(&obs));
//! assert_eq!(outcomes.len(), 2);
//! let verdict = outcomes[0].verdict().ok_or("in-budget point solves")?;
//! assert!(verdict.junction_c < 85.0);
//! // The duplicate was coalesced into one solve.
//! assert_eq!(obs.snapshot().counter("query.cache.misses"), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Resilience gate: non-test code in this crate must never take the
// panic shortcut — a panic in the engine is a lost request, not a bug
// report. (Unit tests under cfg(test) may still unwrap freely.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod e18_query_service;

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use rcs_cooling::{availability, risk, CoolingArchitecture, ImmersionBath};
use rcs_core::{rules, CoreError, ImmersionModel};
use rcs_devices::OperatingPoint;
use rcs_fluids::Coolant;
use rcs_numeric::hash::Fnv1a;
use rcs_obs::span::SpanSink;
use rcs_obs::{Registry, Sinks};
use rcs_platform::{presets, ComputeModule};
use rcs_units::{Power, Seconds};

/// Version tag folded into every canonical hash, so a change to the
/// encoding (new field, new scalar format) can never alias an old
/// address.
const CANON_TAG: &str = "rcs.query.v1";

/// Availability horizon every verdict is judged over, in years.
pub const HORIZON_YEARS: f64 = 3.0;

/// Structured post-mortem of a solve that did not converge: how far the
/// retry machinery got, so a retry policy can classify the failure
/// without string matching.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveDiagnostics {
    /// Damping rungs the solver ladder attempted (0 for an injected or
    /// synthetic non-convergence that never reached the solver).
    pub rungs_attempted: u32,
    /// Fixed-point / Newton iterations spent by the last attempt.
    pub iterations: u64,
    /// Last recorded residual, in the failing solver's own units
    /// (kelvins for the coupled fixed point, m³/s for hydraulics);
    /// `None` when no usable residual was produced.
    pub last_residual: Option<f64>,
}

impl core::fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} rung(s) attempted, {} iterations",
            self.rungs_attempted, self.iterations
        )?;
        match self.last_residual {
            Some(r) => write!(f, ", last residual {r:.3e}"),
            None => write!(f, ", no residual recorded"),
        }
    }
}

/// Errors of the query layer. Every variant is classified as retryable
/// or fatal by [`QueryError::is_retryable`] — the retry ladder consults
/// the structure, never the message.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A query spec string failed to parse.
    Parse(String),
    /// The solvers ran out of convergence headroom — **retryable**: a
    /// heavier-damped re-solve may still land it.
    NoConvergence {
        /// How far the failed solve got.
        diagnostics: SolveDiagnostics,
    },
    /// The design point itself is invalid (non-finite inputs, unphysical
    /// configuration, substrate rejection) — **fatal**: retrying cannot
    /// change a malformed question.
    InvalidDesign {
        /// Explanation, taken from the rejecting layer.
        reason: String,
    },
    /// A worker panicked while solving — **retryable** (isolated by
    /// `rcs_parallel::isolate`; a transient fault clears on re-solve,
    /// a deterministic one exhausts the ladder and degrades).
    WorkerPanic {
        /// The caught panic message.
        message: String,
    },
    /// The per-query work-unit deadline ran out before an answer —
    /// **fatal** for this solve (the request is shed to the degradation
    /// path instead of burning more budget).
    BudgetExhausted {
        /// Work units spent when the deadline tripped.
        spent: u64,
        /// The policy's work-unit budget.
        budget: u64,
    },
}

impl QueryError {
    /// `true` when a bounded re-solve might succeed (non-convergence,
    /// worker panic); `false` for malformed designs, exhausted budgets
    /// and parse errors.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::NoConvergence { .. } | Self::WorkerPanic { .. })
    }

    /// Bit-exact equality (float fields compared by IEEE bits) — the
    /// determinism suite's replacement for `==`, which would treat NaN
    /// residuals as unequal to themselves.
    #[must_use]
    pub(crate) fn bitwise_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Parse(a), Self::Parse(b)) => a == b,
            (Self::NoConvergence { diagnostics: a }, Self::NoConvergence { diagnostics: b }) => {
                a.rungs_attempted == b.rungs_attempted
                    && a.iterations == b.iterations
                    && a.last_residual.map(f64::to_bits) == b.last_residual.map(f64::to_bits)
            }
            (Self::InvalidDesign { reason: a }, Self::InvalidDesign { reason: b }) => a == b,
            (Self::WorkerPanic { message: a }, Self::WorkerPanic { message: b }) => a == b,
            (
                Self::BudgetExhausted {
                    spent: sa,
                    budget: ba,
                },
                Self::BudgetExhausted {
                    spent: sb,
                    budget: bb,
                },
            ) => sa == sb && ba == bb,
            _ => false,
        }
    }

    fn from_core(e: &CoreError) -> Self {
        match e {
            CoreError::NoConvergence {
                iterations,
                residual_k,
            } => Self::NoConvergence {
                diagnostics: SolveDiagnostics {
                    rungs_attempted: 1,
                    iterations: *iterations as u64,
                    last_residual: *residual_k,
                },
            },
            CoreError::Hydraulic(rcs_hydraulics::HydraulicError::Unsolvable { diagnostics }) => {
                Self::NoConvergence {
                    diagnostics: SolveDiagnostics {
                        rungs_attempted: diagnostics.attempts.len() as u32,
                        iterations: diagnostics.attempts.iter().map(|a| a.max_iter as u64).sum(),
                        last_residual: Some(diagnostics.residual),
                    },
                }
            }
            other => Self::InvalidDesign {
                reason: other.to_string(),
            },
        }
    }
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Parse(msg) => write!(f, "query parse error: {msg}"),
            // Solver-side variants keep the historical "query solve
            // error:" prefix — scripts that match on it stay stable.
            Self::NoConvergence { diagnostics } => {
                write!(f, "query solve error: no convergence ({diagnostics})")
            }
            Self::InvalidDesign { reason } => write!(f, "query solve error: {reason}"),
            Self::WorkerPanic { message } => write!(f, "query worker panic: {message}"),
            Self::BudgetExhausted { spent, budget } => write!(
                f,
                "query budget exhausted: {spent} of {budget} work units spent"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Device family of a query — one of the paper's module generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFamily {
    /// Virtex-6 RIGEL-2 module.
    Rigel2,
    /// Virtex-7 TAYGETA module.
    Taygeta,
    /// UltraScale SKAT module.
    Skat,
    /// UltraScale+ SKAT+ module.
    SkatPlus,
}

impl DeviceFamily {
    /// Stable canonical key (part of the hash preimage — never rename).
    #[must_use]
    pub(crate) fn key(self) -> &'static str {
        match self {
            Self::Rigel2 => "rigel2",
            Self::Taygeta => "taygeta",
            Self::Skat => "skat",
            Self::SkatPlus => "skat_plus",
        }
    }

    /// The preset compute module of this family.
    #[must_use]
    pub fn module(self) -> ComputeModule {
        match self {
            Self::Rigel2 => presets::rigel2(),
            Self::Taygeta => presets::taygeta(),
            Self::Skat => presets::skat(),
            Self::SkatPlus => presets::skat_plus(),
        }
    }

    fn parse(s: &str) -> Result<Self, QueryError> {
        match s {
            "rigel2" => Ok(Self::Rigel2),
            "taygeta" => Ok(Self::Taygeta),
            "skat" => Ok(Self::Skat),
            "skat_plus" => Ok(Self::SkatPlus),
            other => Err(QueryError::Parse(format!(
                "unknown family {other:?} (expected rigel2|taygeta|skat|skat_plus)"
            ))),
        }
    }
}

/// Immersion coolant of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoolantChoice {
    /// The SRC dielectric blend (the paper's working fluid).
    SrcDielectric,
    /// MD-4,5 mineral transformer oil.
    MineralOilMd45,
}

impl CoolantChoice {
    /// Stable canonical key (part of the hash preimage — never rename).
    #[must_use]
    pub(crate) fn key(self) -> &'static str {
        match self {
            Self::SrcDielectric => "src_dielectric",
            Self::MineralOilMd45 => "mineral_oil_md45",
        }
    }

    /// The fluid property model of this choice.
    #[must_use]
    pub(crate) fn coolant(self) -> Coolant {
        match self {
            Self::SrcDielectric => Coolant::src_dielectric(),
            Self::MineralOilMd45 => Coolant::mineral_oil_md45(),
        }
    }

    fn parse(s: &str) -> Result<Self, QueryError> {
        match s {
            "src_dielectric" => Ok(Self::SrcDielectric),
            "mineral_oil_md45" => Ok(Self::MineralOilMd45),
            other => Err(QueryError::Parse(format!(
                "unknown coolant {other:?} (expected src_dielectric|mineral_oil_md45)"
            ))),
        }
    }
}

/// Bath hardware variant of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BathVariant {
    /// The SKAT bath: one external pump, 1150 W/K exchanger.
    Skat,
    /// The SKAT+ bath: two immersed pumps, 1500 W/K exchanger.
    SkatPlus,
}

impl BathVariant {
    /// Stable canonical key (part of the hash preimage — never rename).
    #[must_use]
    pub(crate) fn key(self) -> &'static str {
        match self {
            Self::Skat => "skat",
            Self::SkatPlus => "skat_plus",
        }
    }

    /// The preset bath with the query's coolant substituted in.
    #[must_use]
    pub fn bath_with(self, coolant: CoolantChoice) -> ImmersionBath {
        let mut bath = match self {
            Self::Skat => ImmersionBath::skat_default(),
            Self::SkatPlus => ImmersionBath::skat_plus_default(),
        };
        bath.coolant = coolant.coolant();
        bath
    }

    fn parse(s: &str) -> Result<Self, QueryError> {
        match s {
            "skat" => Ok(Self::Skat),
            "skat_plus" => Ok(Self::SkatPlus),
            other => Err(QueryError::Parse(format!(
                "unknown bath {other:?} (expected skat|skat_plus)"
            ))),
        }
    }
}

/// One design question: which module, in which bath, under which
/// workload, judged by how many reliability trials.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignQuery {
    /// Module generation.
    pub family: DeviceFamily,
    /// Immersion coolant.
    pub coolant: CoolantChoice,
    /// Bath hardware variant.
    pub bath: BathVariant,
    /// Workload profile as sustained FPGA utilization in `[0, 1]`.
    pub utilization: f64,
    /// Monte-Carlo trial budget for the availability verdict.
    pub trials: u32,
    /// Monte-Carlo seed.
    pub seed: u64,
}

impl DesignQuery {
    /// Parses a `key=value` spec, whitespace- or comma-separated, e.g.
    /// `"family=skat coolant=src_dielectric bath=skat util=0.85
    /// trials=256 seed=42"`. Field order is free — permuted specs of
    /// the same query parse to the same value and therefore the same
    /// [`canonical_hash`](Self::canonical_hash). `family` is required;
    /// the rest default to the SKAT-paper baseline (`src_dielectric`,
    /// `skat` bath, `util=0.85`, `trials=256`, `seed=42`).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Parse`] on unknown keys, duplicate keys,
    /// malformed numbers, out-of-range utilization, a zero trial
    /// budget, or a missing `family`.
    pub fn parse(spec: &str) -> Result<Self, QueryError> {
        let mut family = None;
        let mut coolant = None;
        let mut bath = None;
        let mut utilization = None;
        let mut trials = None;
        let mut seed = None;

        fn set<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), QueryError> {
            if slot.is_some() {
                return Err(QueryError::Parse(format!("duplicate key {key:?}")));
            }
            *slot = Some(value);
            Ok(())
        }

        for token in spec.split(|c: char| c.is_whitespace() || c == ',') {
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| QueryError::Parse(format!("expected key=value, got {token:?}")))?;
            match key {
                "family" => set(&mut family, key, DeviceFamily::parse(value)?)?,
                "coolant" => set(&mut coolant, key, CoolantChoice::parse(value)?)?,
                "bath" => set(&mut bath, key, BathVariant::parse(value)?)?,
                "util" => {
                    let u: f64 = value
                        .parse()
                        .map_err(|_| QueryError::Parse(format!("bad util {value:?}")))?;
                    if !(0.0..=1.0).contains(&u) {
                        return Err(QueryError::Parse(format!("util {u} outside [0, 1]")));
                    }
                    set(&mut utilization, key, u)?;
                }
                "trials" => {
                    let t: u32 = value
                        .parse()
                        .map_err(|_| QueryError::Parse(format!("bad trials {value:?}")))?;
                    if t == 0 {
                        return Err(QueryError::Parse("trials must be positive".into()));
                    }
                    set(&mut trials, key, t)?;
                }
                "seed" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| QueryError::Parse(format!("bad seed {value:?}")))?;
                    set(&mut seed, key, s)?;
                }
                other => return Err(QueryError::Parse(format!("unknown key {other:?}"))),
            }
        }

        Ok(Self {
            family: family
                .ok_or_else(|| QueryError::Parse("missing required key family".into()))?,
            coolant: coolant.unwrap_or(CoolantChoice::SrcDielectric),
            bath: bath.unwrap_or(BathVariant::Skat),
            utilization: utilization.unwrap_or(0.85),
            trials: trials.unwrap_or(256),
            seed: seed.unwrap_or(42),
        })
    }

    /// The canonical spec string — parsing it reproduces `self`.
    #[must_use]
    pub fn spec(&self) -> String {
        format!(
            "family={} coolant={} bath={} util={} trials={} seed={}",
            self.family.key(),
            self.coolant.key(),
            self.bath.key(),
            self.utilization,
            self.trials,
            self.seed
        )
    }

    /// The 64-bit content address of this query: the fields absorbed in
    /// one fixed order under a version tag, strings length-prefixed and
    /// floats canonicalized, finalized by the avalanche pass. Equal
    /// queries — however their specs were spelled — share one hash.
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(CANON_TAG);
        h.write_str(self.family.key());
        h.write_str(self.coolant.key());
        h.write_str(self.bath.key());
        h.write_f64(self.utilization);
        h.write_u32(self.trials);
        h.write_u64(self.seed);
        h.finish()
    }
}

/// The solved answer to one [`DesignQuery`] — everything a designer
/// needs to accept or reject the point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignVerdict {
    /// Content address of the query this verdict answers.
    pub query_hash: u64,
    /// Hottest junction temperature, °C.
    pub junction_c: f64,
    /// Bath bulk (hot-side) temperature, °C.
    pub coolant_hot_c: f64,
    /// Coolant temperature re-entering the bath, °C.
    pub coolant_cold_c: f64,
    /// Total heat rejected, W.
    pub total_heat_w: f64,
    /// Cooling power overhead fraction (pumping + chiller over IT).
    pub cooling_overhead: f64,
    /// Mean availability over the [`HORIZON_YEARS`] horizon.
    pub availability_mean: f64,
    /// 5th-percentile availability over the horizon.
    pub availability_p05: f64,
    /// Annual energy of the module incl. cooling, kWh.
    pub annual_energy_kwh: f64,
    /// Whether every operating and structural rule passes.
    pub compliant: bool,
}

impl DesignVerdict {
    /// Bit-exact equality: every float compared by its IEEE bits. The
    /// determinism suite uses this instead of `==` so that even
    /// sign-of-zero drift across thread counts or cache states fails.
    #[must_use]
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.query_hash == other.query_hash
            && self.compliant == other.compliant
            && [
                (self.junction_c, other.junction_c),
                (self.coolant_hot_c, other.coolant_hot_c),
                (self.coolant_cold_c, other.coolant_cold_c),
                (self.total_heat_w, other.total_heat_w),
                (self.cooling_overhead, other.cooling_overhead),
                (self.availability_mean, other.availability_mean),
                (self.availability_p05, other.availability_p05),
                (self.annual_energy_kwh, other.annual_energy_kwh),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Everything an availability study depends on: the bath and coolant
/// that fix the failure classes, and the trial budget and seed of the
/// Monte-Carlo. A query's family and utilization are not part of it, so
/// every design point sharing a key shares one study — which is what
/// lets [`QueryEngine`] keep solved studies and reuse them across
/// design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StudyKey {
    /// Bath hardware variant.
    pub bath: BathVariant,
    /// Immersion coolant.
    pub coolant: CoolantChoice,
    /// Monte-Carlo trial budget.
    pub trials: u32,
    /// Monte-Carlo seed.
    pub seed: u64,
}

impl From<&DesignQuery> for StudyKey {
    fn from(query: &DesignQuery) -> Self {
        Self {
            bath: query.bath,
            coolant: query.coolant,
            trials: query.trials,
            seed: query.seed,
        }
    }
}

/// The part of an availability study a verdict keeps.
#[derive(Debug, Clone, Copy)]
struct Study {
    mean: f64,
    p05: f64,
}

impl StudyKey {
    /// Runs the study serially over [`HORIZON_YEARS`], with failure
    /// classes built from the key alone. Counters (`mc.*`) and work
    /// land on `obs`.
    fn run(self, obs: &Registry) -> Study {
        let bath = self.bath.bath_with(self.coolant);
        let classes = risk::failure_classes(&CoolingArchitecture::Immersion(bath));
        let report = availability::monte_carlo_with_threads(
            &classes,
            HORIZON_YEARS,
            self.trials as usize,
            self.seed,
            1,
            Sinks::counters(obs),
        );
        Study {
            mean: report.mean_availability,
            p05: report.p05_availability,
        }
    }
}

/// Damping rungs for retries after a stall: heavier damping than the
/// standard ladder's last rung (0.1), with matching iteration headroom.
/// After `n ≥ 1` stalled attempts a retry runs the one-rung ladder
/// `RETRY_RUNGS[n - 1]`, clamped to the last rung.
const RETRY_RUNGS: [(f64, usize); 2] = [(0.05, 2400), (0.02, 4800)];

/// Solves one query against the coupled steady-state model, the
/// availability Monte-Carlo and the compliance rules. The Monte-Carlo
/// runs serially here — batch parallelism lives in
/// [`QueryEngine::run_batch`], and nesting pools would not change the
/// (thread-invariant) result anyway. This is the uncached reference:
/// it always runs the study, through the same function an engine miss
/// runs with its resident study, if any.
///
/// This is attempt 0 of [`solve_query_resilient`]'s retry ladder: the
/// coupled fixed point runs the standard [`ImmersionModel::LADDER`],
/// with no retry damping.
///
/// # Errors
///
/// Returns [`QueryError::InvalidDesign`] for malformed design points
/// and [`QueryError::NoConvergence`] when the solvers run out of
/// headroom (e.g. a workload the bath cannot carry).
pub fn solve_query(query: &DesignQuery, obs: &Registry) -> Result<DesignVerdict, QueryError> {
    solve_query_at(query, 0, None, obs)
}

/// [`solve_query`] after `stalls` earlier attempts failed to converge,
/// reusing `resident` as the query's availability study when the
/// engine already holds it. With no stalls it runs the standard
/// [`ImmersionModel::LADDER`]; after a stall it runs a one-rung ladder
/// of `RETRY_RUNGS` damping through the same
/// [`ImmersionModel::solve_with_ladder`], trading iterations for
/// stability. Inputs are validated *before* any solver runs, so a
/// poisoned query (NaN utilization, zero trials) fails fast as the
/// fatal [`QueryError::InvalidDesign`] instead of panicking a worker.
fn solve_query_at(
    query: &DesignQuery,
    stalls: u32,
    resident: Option<Study>,
    obs: &Registry,
) -> Result<DesignVerdict, QueryError> {
    if !query.utilization.is_finite() || !(0.0..=1.0).contains(&query.utilization) {
        return Err(QueryError::InvalidDesign {
            reason: format!("utilization {} outside [0, 1]", query.utilization),
        });
    }
    if query.trials == 0 {
        return Err(QueryError::InvalidDesign {
            reason: "trials must be positive".into(),
        });
    }

    let model = ImmersionModel::new(query.family.module(), query.bath.bath_with(query.coolant))
        .with_operating_point(OperatingPoint::at_utilization(query.utilization));
    let rungs: &[(f64, usize)] = match stalls {
        0 => &ImmersionModel::LADDER,
        n => std::slice::from_ref(&RETRY_RUNGS[(n as usize - 1).min(RETRY_RUNGS.len() - 1)]),
    };
    let report = model
        .solve_with_ladder(rungs, Sinks::counters(obs))
        .map_err(|e| QueryError::from_core(&e))?;

    let study = resident.unwrap_or_else(|| StudyKey::from(query).run(obs));

    let mut checks = rules::operating_rules(&report);
    checks.extend(rules::structural_rules(model.module()));

    let total_w =
        report.total_heat.watts() + report.circulation_power.watts() + report.chiller_power.watts();
    let annual_energy_kwh =
        (Power::from_watts(total_w) * Seconds::days(365.25)).as_kilowatt_hours();

    Ok(DesignVerdict {
        query_hash: query.canonical_hash(),
        junction_c: report.junction.degrees(),
        coolant_hot_c: report.coolant_hot.degrees(),
        coolant_cold_c: report.coolant_cold.degrees(),
        total_heat_w: report.total_heat.watts(),
        cooling_overhead: report.cooling_overhead(),
        availability_mean: study.mean,
        availability_p05: study.p05,
        annual_energy_kwh,
        compliant: rules::all_pass(&checks),
    })
}

/// Knobs of the engine's resilience layer. Budgets are *work units*
/// (the `profile.*` counter total recorded by a query's own telemetry
/// shard) — never wall clock — so retry, shedding and degradation
/// decisions are bit-identical at every `RCS_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Solve attempts per query (first try + retries); clamped to ≥ 1.
    pub max_attempts: u32,
    /// Work-unit deadline per query, checked before each attempt; the
    /// default `u64::MAX` never trips.
    pub work_budget: u64,
    /// Half-width (±ε, in utilization) of the degradation window a
    /// failed request may be answered from.
    pub degrade_window: f64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            work_budget: u64::MAX,
            degrade_window: 0.1,
        }
    }
}

/// An engine fault injected by a [`FaultInjector`] (see `rcs-chaos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the worker closure, before the solve runs.
    Panic,
    /// Poison the query's utilization to NaN before the solve.
    PoisonUtilization,
    /// Replace the solve with a fabricated non-convergence report.
    ForceNoConvergence,
    /// Charge this many extra work units against the query's budget
    /// before the attempt (models a pathologically expensive request).
    InflateWork(u64),
}

/// Supplies the fault (if any) to inject into a given attempt of a
/// given query. Implementations must be pure functions of their
/// arguments — the engine calls them from worker threads in arbitrary
/// order, and the determinism contract extends to injected faults.
pub trait FaultInjector: Sync {
    /// The fault for `attempt` of `query`, or `None` for a clean run.
    fn fault_for(&self, query: &DesignQuery, attempt: u32) -> Option<InjectedFault>;
}

/// The production injector: never injects anything.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoFaults;

impl FaultInjector for NoFaults {
    fn fault_for(&self, _query: &DesignQuery, _attempt: u32) -> Option<InjectedFault> {
        None
    }
}

/// Answers one query under a [`ResiliencePolicy`]: a bounded retry
/// ladder over [`solve_query`]'s coupled solve, each attempt wrapped in
/// [`rcs_parallel::isolate`] so a panicking solve becomes the retryable
/// [`QueryError::WorkerPanic`] instead of taking down the worker.
/// Damping escalates only after a stall: a retry after a
/// [`QueryError::NoConvergence`], injected or real, runs the next, more
/// heavily damped `RETRY_RUNGS` rung, while a retry after a worker panic
/// re-runs the rung the panicked attempt would have run. A panic says
/// nothing about convergence.
///
/// `sinks` should be the query's *own* shard (as handed out by
/// [`rcs_parallel::par_map_isolated`]): spent work is the shard
/// registry's work clock ([`Registry::work_units`], its `profile.*`
/// total, which a clock-only shard keeps too), so the
/// [`work_budget`](ResiliencePolicy::work_budget) covers exactly this
/// query's attempts — including injected cost inflation.
///
/// Golden counters on `sinks.obs`, recorded only when the events occur:
/// `resilience.retry.attempts`, `resilience.retry.recoveries`,
/// `resilience.worker.panics`, `resilience.budget.exhausted`,
/// `resilience.failures.fatal`, `resilience.failures.exhausted`, and
/// `resilience.injected.*` for injected faults — each mirrored into
/// `profile.*` work. On `sinks.spans` every attempt runs inside an
/// `attempt` span, and a tripped work budget leaves a zero-width
/// `budget` marker span inside the attempt that tripped it — so span
/// rollups show which attempt of which request burned the work, and
/// where budgets cut runs short.
///
/// # Errors
///
/// The terminal [`QueryError`]: the first fatal error encountered, a
/// [`QueryError::BudgetExhausted`] deadline trip, or the last retryable
/// error once the ladder is exhausted.
pub fn solve_query_resilient(
    query: &DesignQuery,
    policy: &ResiliencePolicy,
    injector: &dyn FaultInjector,
    sinks: Sinks<'_>,
) -> Result<DesignVerdict, QueryError> {
    solve_resilient_at(query, None, policy, injector, sinks)
}

/// [`solve_query_resilient`] with every attempt reusing `resident` as
/// the availability study when the engine holds it.
fn solve_resilient_at(
    query: &DesignQuery,
    resident: Option<Study>,
    policy: &ResiliencePolicy,
    injector: &dyn FaultInjector,
    sinks: Sinks<'_>,
) -> Result<DesignVerdict, QueryError> {
    let Sinks { obs, spans, .. } = sinks;
    let max_attempts = policy.max_attempts.max(1);
    let mut last_err: Option<QueryError> = None;
    let mut stalls = 0;
    for attempt in 0..max_attempts {
        spans.enter("attempt", obs);
        if attempt > 0 {
            obs.inc("resilience.retry.attempts");
            obs.work("resilience.retry.attempts", 1);
        }
        let fault = injector.fault_for(query, attempt);
        if let Some(InjectedFault::InflateWork(units)) = fault {
            obs.add("resilience.injected.cost", units);
            obs.work("resilience.injected.cost", units);
        }
        let spent = obs.work_units();
        if spent >= policy.work_budget {
            obs.inc("resilience.budget.exhausted");
            obs.work("resilience.budget.exhausted", 1);
            spans.enter("budget", obs);
            spans.exit(obs);
            spans.exit(obs);
            return Err(QueryError::BudgetExhausted {
                spent,
                budget: policy.work_budget,
            });
        }
        let result = rcs_parallel::isolate(|| match fault {
            Some(InjectedFault::Panic) => {
                obs.inc("resilience.injected.panics");
                obs.work("resilience.injected.panics", 1);
                panic!("injected worker panic (attempt {attempt})");
            }
            Some(InjectedFault::PoisonUtilization) => {
                obs.inc("resilience.injected.poisoned");
                obs.work("resilience.injected.poisoned", 1);
                let mut poisoned = query.clone();
                poisoned.utilization = f64::NAN;
                solve_query_at(&poisoned, stalls, resident, obs)
            }
            Some(InjectedFault::ForceNoConvergence) => {
                obs.inc("resilience.injected.no_convergence");
                obs.work("resilience.injected.no_convergence", 1);
                Err(QueryError::NoConvergence {
                    diagnostics: SolveDiagnostics {
                        rungs_attempted: 0,
                        iterations: 0,
                        last_residual: None,
                    },
                })
            }
            _ => solve_query_at(query, stalls, resident, obs),
        });
        let err = match result {
            Ok(Ok(verdict)) => {
                if attempt > 0 {
                    obs.inc("resilience.retry.recoveries");
                    obs.work("resilience.retry.recoveries", 1);
                }
                spans.exit(obs);
                return Ok(verdict);
            }
            Ok(Err(e)) => e,
            Err(panic) => {
                obs.inc("resilience.worker.panics");
                obs.work("resilience.worker.panics", 1);
                QueryError::WorkerPanic {
                    message: panic.message,
                }
            }
        };
        if !err.is_retryable() {
            obs.inc("resilience.failures.fatal");
            obs.work("resilience.failures.fatal", 1);
            spans.exit(obs);
            return Err(err);
        }
        spans.exit(obs);
        stalls += u32::from(matches!(err, QueryError::NoConvergence { .. }));
        last_err = Some(err);
    }
    obs.inc("resilience.failures.exhausted");
    obs.work("resilience.failures.exhausted", 1);
    Err(last_err
        .unwrap_or_else(|| unreachable!("max_attempts >= 1 guarantees at least one attempt")))
}

/// Provenance attached to a [`QueryOutcome::Degraded`] answer: which
/// cached design point stood in, how far off it was, and the terminal
/// error the substitution papered over.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedProvenance {
    /// Canonical hash of the query that was asked.
    pub requested_hash: u64,
    /// Canonical hash of the cached query whose verdict was served.
    pub source_hash: u64,
    /// `|source.utilization − requested.utilization|`.
    pub delta_utilization: f64,
    /// The error that forced degradation.
    pub error: QueryError,
}

impl DegradedProvenance {
    /// Bit-exact equality (floats by IEEE bits).
    #[must_use]
    pub(crate) fn bitwise_eq(&self, other: &Self) -> bool {
        self.requested_hash == other.requested_hash
            && self.source_hash == other.source_hash
            && self.delta_utilization.to_bits() == other.delta_utilization.to_bits()
            && self.error.bitwise_eq(&other.error)
    }
}

/// Per-request result of [`QueryEngine::run_batch`]. A batch returns
/// one outcome per request, in request order — a failure never takes
/// its siblings down with it.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Solved (or cache-served) exactly as asked.
    Ok(DesignVerdict),
    /// The solve failed terminally, but a resident verdict within the
    /// policy's degradation window answered in its place.
    Degraded {
        /// The stand-in verdict (a *different* design point — check
        /// the provenance before trusting it blindly).
        verdict: DesignVerdict,
        /// Which entry stood in, and why it had to.
        provenance: DegradedProvenance,
    },
    /// No answer: the terminal error, with no cache entry close enough
    /// to degrade onto.
    Failed(QueryError),
}

impl QueryOutcome {
    /// The verdict, if any — exact for `Ok`, approximate for
    /// `Degraded`, `None` for `Failed`.
    #[must_use]
    pub fn verdict(&self) -> Option<&DesignVerdict> {
        match self {
            Self::Ok(v) | Self::Degraded { verdict: v, .. } => Some(v),
            Self::Failed(_) => None,
        }
    }

    /// The terminal error behind a `Failed` outcome.
    #[must_use]
    pub fn error(&self) -> Option<&QueryError> {
        match self {
            Self::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// `true` for an exact answer.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok(_))
    }

    /// `true` for a degraded stand-in answer.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, Self::Degraded { .. })
    }

    /// `true` when the request got no answer at all.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self, Self::Failed(_))
    }

    /// Bit-exact equality across the whole outcome (verdict floats,
    /// provenance, error payloads) — the determinism suite's `==`.
    #[must_use]
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Ok(a), Self::Ok(b)) => a.bitwise_eq(b),
            (
                Self::Degraded {
                    verdict: va,
                    provenance: pa,
                },
                Self::Degraded {
                    verdict: vb,
                    provenance: pb,
                },
            ) => va.bitwise_eq(vb) && pa.bitwise_eq(pb),
            (Self::Failed(a), Self::Failed(b)) => a.bitwise_eq(b),
            _ => false,
        }
    }
}

#[derive(Clone)]
struct CacheEntry {
    query: DesignQuery,
    verdict: DesignVerdict,
}

/// A bounded map evicting in insertion order — the store behind both
/// of the engine's tables (verdicts and availability studies).
#[derive(Clone)]
struct Fifo<K, V> {
    capacity: usize,
    order: VecDeque<K>,
    map: HashMap<K, V>,
}

impl<K: Copy + Eq + Hash, V> Fifo<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Inserts `value`, evicting the oldest entry when full; returns the
    /// evicted key, if any. Re-inserting a resident key replaces the
    /// value in place and keeps its eviction position. At capacity zero
    /// the insert is a no-op and nothing is ever "evicted".
    fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return None;
        }
        let evicted = if self.order.len() == self.capacity {
            self.order.pop_front().inspect(|old| {
                self.map.remove(old);
            })
        } else {
            None
        };
        self.order.push_back(key);
        self.map.insert(key, value);
        evicted
    }

    /// Resident keys, oldest (next-to-evict) first.
    fn keys(&self) -> Vec<K> {
        self.order.iter().copied().collect()
    }

    /// Resident values, oldest first.
    fn values(&self) -> impl Iterator<Item = &V> {
        self.order.iter().filter_map(|key| self.map.get(key))
    }
}

/// Bounded content-addressed verdict cache with FIFO eviction.
///
/// Insertion order alone decides eviction — no recency, no clocks — so
/// the resident set after any request sequence is a pure function of
/// that sequence. Lookups verify the stored query against the probe
/// (`query == stored`), so a 64-bit hash collision degrades to a miss
/// instead of serving a wrong verdict.
#[derive(Clone)]
pub struct QueryCache {
    entries: Fifo<u64, CacheEntry>,
}

impl QueryCache {
    /// An empty cache holding at most `capacity` verdicts. A capacity
    /// of zero is a pure pass-through: every lookup misses, every
    /// insert is a no-op (no insert-then-evict churn, no eviction
    /// counts) — useful for benchmarking the uncached solve path.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Fifo::new(capacity),
        }
    }

    /// Maximum resident verdicts.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity
    }

    /// Currently resident verdicts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.order.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.order.is_empty()
    }

    /// Resident hashes, oldest (next-to-evict) first.
    #[must_use]
    pub fn keys_in_eviction_order(&self) -> Vec<u64> {
        self.entries.keys()
    }

    /// The cached verdict for `hash`, provided the stored query equals
    /// `query` (hash-collision guard).
    #[must_use]
    pub fn lookup(&self, hash: u64, query: &DesignQuery) -> Option<&DesignVerdict> {
        self.entries
            .get(&hash)
            .filter(|e| e.query == *query)
            .map(|e| &e.verdict)
    }

    /// Inserts a verdict, evicting the oldest entry when full; returns
    /// the evicted hash, if any. Re-inserting a resident hash replaces
    /// the entry in place and keeps its eviction position. At capacity
    /// zero the insert is a no-op and nothing is ever "evicted".
    pub fn insert(&mut self, hash: u64, query: DesignQuery, verdict: DesignVerdict) -> Option<u64> {
        self.entries.insert(hash, CacheEntry { query, verdict })
    }

    /// The nearest resident verdict usable as a *degraded* stand-in for
    /// `query`: same family, coolant and bath, utilization within
    /// `±window`. Entries are scanned in eviction (insertion) order;
    /// the strictly smallest `|Δutilization|` wins and ties keep the
    /// earliest-inserted entry, so the choice is a pure function of the
    /// cache state. A non-finite probe utilization (or window) matches
    /// nothing.
    #[must_use]
    pub fn nearest_within(
        &self,
        query: &DesignQuery,
        window: f64,
    ) -> Option<(&DesignQuery, &DesignVerdict)> {
        let mut best: Option<(f64, &CacheEntry)> = None;
        for entry in self.entries.values() {
            if entry.query.family != query.family
                || entry.query.coolant != query.coolant
                || entry.query.bath != query.bath
            {
                continue;
            }
            let delta = (entry.query.utilization - query.utilization).abs();
            if delta.is_nan() || delta > window {
                continue;
            }
            match best {
                Some((best_delta, _)) if delta >= best_delta => {}
                _ => best = Some((delta, entry)),
            }
        }
        best.map(|(_, e)| (&e.query, &e.verdict))
    }
}

/// The batch scheduler: a [`QueryCache`] fronting
/// [`solve_query_resilient`], plus a table of solved availability
/// studies keyed by [`StudyKey`].
///
/// A verdict's availability half depends on its [`StudyKey`] alone, so
/// a miss whose key is already resident — solved for a sibling design
/// point at another family or utilization — reuses the stored
/// `(availability_mean, availability_p05)` instead of re-running the
/// Monte-Carlo. The study table is a FIFO with the verdict cache's
/// capacity (zero keeps both pass-through), and a reused study is
/// bit-identical to a fresh one, so reuse changes the work done, never
/// a verdict.
///
/// [`run_batch`](Self::run_batch) records the golden counters
/// `query.requests`, `query.batch.runs`, `query.batch.coalesced`,
/// `query.cache.hits`, `query.cache.misses` and
/// `query.cache.evictions`, each mirrored into `profile.query.*` work
/// so the E18 profile golden pins the hit/miss ratio, and
/// `query.studies.reused` (misses served a resident study; a plain
/// counter, because reuse is work *not* done). Resilience events
/// additionally land on `query.outcomes.*` and `resilience.*` counters
/// (recorded only when nonzero, so a clean batch's manifest is
/// unchanged).
#[derive(Clone)]
pub struct QueryEngine {
    cache: QueryCache,
    studies: Fifo<StudyKey, Study>,
    policy: ResiliencePolicy,
}

impl QueryEngine {
    /// An engine with an empty cache of the given capacity (zero means
    /// pass-through — see [`QueryCache::new`]), an empty study table of
    /// the same capacity, and the default [`ResiliencePolicy`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: QueryCache::new(capacity),
            studies: Fifo::new(capacity),
            policy: ResiliencePolicy::default(),
        }
    }

    /// Replaces the resilience policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The cache, for inspection.
    #[must_use]
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Resident availability studies, oldest (next-to-evict) first.
    #[must_use]
    pub fn studies_in_eviction_order(&self) -> Vec<StudyKey> {
        self.studies.keys()
    }

    /// Answers a batch of queries in input order, one [`QueryOutcome`]
    /// per request — this call never fails wholesale and never loses a
    /// request. Equivalent to [`run_batch_with`](Self::run_batch_with)
    /// under the fault-free `NoFaults` injector.
    pub fn run_batch(
        &mut self,
        queries: &[DesignQuery],
        threads: usize,
        sinks: Sinks<'_>,
    ) -> Vec<QueryOutcome> {
        self.run_batch_with(queries, threads, sinks, &NoFaults)
    }

    /// [`run_batch`](Self::run_batch) on separate sinks. Kept for
    /// `perfbench/src/sinks.rs`, its only caller.
    pub fn run_batch_spanned(
        &mut self,
        queries: &[DesignQuery],
        threads: usize,
        obs: &Registry,
        spans: &SpanSink,
    ) -> Vec<QueryOutcome> {
        self.run_batch(
            queries,
            threads,
            Sinks {
                obs,
                spans,
                ..Sinks::disabled()
            },
        )
    }

    /// [`run_batch`](Self::run_batch) with an explicit [`FaultInjector`]
    /// (the chaos-drill entry point).
    ///
    /// Four phases, only the second parallel:
    ///
    /// 1. a sequential lookup pass partitions requests into cache hits,
    ///    in-batch duplicates and distinct misses against the cache
    ///    state at batch entry, and resolves each distinct miss's
    ///    [`StudyKey`] against the study table at batch entry, in miss
    ///    order;
    /// 2. the misses solve concurrently over
    ///    [`rcs_parallel::par_map_isolated`] — each through
    ///    [`solve_query_resilient`]'s retry/budget ladder, each on its
    ///    own telemetry shard, panics contained per item. A miss with a
    ///    resident study skips the Monte-Carlo and is dispatched at cost
    ///    0; the others cost their trial count, so the largest studies
    ///    start first. Two misses sharing a study that is not resident
    ///    each run it, so every miss's work budget is charged for the
    ///    work its own solve did;
    /// 3. successful verdicts enter the cache sequentially in
    ///    first-occurrence order (driving FIFO eviction), *even when
    ///    sibling requests failed*, and studies that were not resident
    ///    enter the study table in the same order;
    /// 4. a sequential resolution pass assembles per-request outcomes:
    ///    failed requests are answered from the nearest cache entry
    ///    within the policy's degradation window (marked `Degraded`
    ///    with provenance; same-batch successes are eligible sources),
    ///    or `Failed` when nothing is close enough.
    ///
    /// The outcomes — and every golden channel — are bit-identical at
    /// any `threads`. On `sinks.spans` the whole batch runs inside one
    /// `query.batch` span; every distinct miss solves inside a
    /// `req.<canonical hash>` child (merged in miss order) with its
    /// retry ladder's `attempt` / `budget` spans nested inside; and
    /// every degraded resolution leaves a zero-width `degrade` marker on
    /// the batch span.
    pub fn run_batch_with(
        &mut self,
        queries: &[DesignQuery],
        threads: usize,
        sinks: Sinks<'_>,
        injector: &dyn FaultInjector,
    ) -> Vec<QueryOutcome> {
        let Sinks { obs, spans, .. } = sinks;
        obs.inc("query.batch.runs");
        spans.enter("query.batch", obs);
        obs.add("query.requests", queries.len() as u64);
        obs.work("query.requests", queries.len() as u64);

        // Phase 1: sequential lookup against the batch-entry cache state.
        enum Slot {
            Hit(DesignVerdict),
            Miss(usize),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<(u64, DesignQuery, Option<Study>)> = Vec::new();
        let mut miss_index: HashMap<u64, usize> = HashMap::new();
        let mut hits = 0u64;
        let mut coalesced = 0u64;
        for query in queries {
            let hash = query.canonical_hash();
            if let Some(verdict) = self.cache.lookup(hash, query) {
                hits += 1;
                slots.push(Slot::Hit(verdict.clone()));
            } else if let Some(&i) = miss_index.get(&hash).filter(|&&i| misses[i].1 == *query) {
                coalesced += 1;
                slots.push(Slot::Miss(i));
            } else {
                let i = misses.len();
                miss_index.insert(hash, i);
                let study = self.studies.get(&StudyKey::from(query)).copied();
                misses.push((hash, query.clone(), study));
                slots.push(Slot::Miss(i));
            }
        }
        let reused = misses.iter().filter(|m| m.2.is_some()).count() as u64;
        obs.add("query.cache.hits", hits);
        obs.work("query.cache.hits", hits);
        obs.add("query.cache.misses", misses.len() as u64);
        obs.work("query.cache.misses", misses.len() as u64);
        obs.add("query.batch.coalesced", coalesced);
        obs.work("query.batch.coalesced", coalesced);
        obs.add("query.studies.reused", reused);

        // Phase 2: solve distinct misses concurrently through the
        // resilience ladder; results and telemetry shards come back in
        // miss order. The outer isolation is belt-and-braces — the
        // ladder already catches per-attempt panics — so an escaped
        // panic costs exactly one request, never the batch.
        let policy = self.policy;
        let labels: Vec<String> = misses
            .iter()
            .map(|(hash, _, _)| format!("req.{hash:016x}"))
            .collect();
        let solved = rcs_parallel::par_map_isolated(
            misses,
            threads,
            sinks,
            |i| labels[i].clone(),
            // a Monte-Carlo to run dominates a miss: largest first
            |(_, query, study)| match study {
                Some(_) => 0,
                None => u64::from(query.trials),
            },
            |_, (hash, query, study), shard| {
                let result = solve_resilient_at(&query, study, &policy, injector, shard);
                (hash, query, study.is_none(), result)
            },
        );

        // Phase 3: sequential insertion in miss order drives FIFO
        // eviction of both tables deterministically. Successes are
        // cached even when sibling requests failed.
        let mut evictions = 0u64;
        let mut fresh: Vec<Result<DesignVerdict, QueryError>> = Vec::with_capacity(solved.len());
        for item in solved {
            match item {
                Ok((hash, query, new_study, Ok(verdict))) => {
                    if new_study {
                        let study = Study {
                            mean: verdict.availability_mean,
                            p05: verdict.availability_p05,
                        };
                        self.studies.insert(StudyKey::from(&query), study);
                    }
                    if self.cache.insert(hash, query, verdict.clone()).is_some() {
                        evictions += 1;
                    }
                    fresh.push(Ok(verdict));
                }
                Ok((_, _, _, Err(e))) => fresh.push(Err(e)),
                Err(panic) => fresh.push(Err(QueryError::WorkerPanic {
                    message: panic.message,
                })),
            }
        }
        obs.add("query.cache.evictions", evictions);
        obs.work("query.cache.evictions", evictions);

        // Phase 4: sequential resolution in request order. Runs after
        // insertion so same-batch successes can serve as degradation
        // sources.
        let mut ok_n = 0u64;
        let mut degraded_n = 0u64;
        let mut failed_n = 0u64;
        let mut outcomes = Vec::with_capacity(queries.len());
        for (query, slot) in queries.iter().zip(slots) {
            let outcome = match slot {
                Slot::Hit(v) => QueryOutcome::Ok(v),
                Slot::Miss(i) => match &fresh[i] {
                    Ok(v) => QueryOutcome::Ok(v.clone()),
                    Err(e) => match self.cache.nearest_within(query, self.policy.degrade_window) {
                        Some((source, verdict)) => QueryOutcome::Degraded {
                            verdict: verdict.clone(),
                            provenance: DegradedProvenance {
                                requested_hash: query.canonical_hash(),
                                source_hash: source.canonical_hash(),
                                delta_utilization: (source.utilization - query.utilization).abs(),
                                error: e.clone(),
                            },
                        },
                        None => QueryOutcome::Failed(e.clone()),
                    },
                },
            };
            match &outcome {
                QueryOutcome::Ok(_) => ok_n += 1,
                QueryOutcome::Degraded { .. } => {
                    degraded_n += 1;
                    // zero-width marker: a degraded answer was served
                    spans.enter("degrade", obs);
                    spans.exit(obs);
                }
                QueryOutcome::Failed(_) => failed_n += 1,
            }
            outcomes.push(outcome);
        }
        // Outcome tallies are event-driven (absent when zero) so a
        // clean batch's golden manifest — and the pinned E18 profile —
        // is byte-identical to the pre-resilience engine's.
        if degraded_n > 0 {
            obs.add("query.outcomes.degraded", degraded_n);
            obs.add("resilience.degraded.served", degraded_n);
            obs.work("resilience.degraded.served", degraded_n);
        }
        if failed_n > 0 {
            obs.add("query.outcomes.failed", failed_n);
            obs.add("resilience.degraded.unavailable", failed_n);
            obs.work("resilience.degraded.unavailable", failed_n);
        }
        if degraded_n > 0 || failed_n > 0 {
            obs.add("query.outcomes.ok", ok_n);
        }
        spans.exit(obs);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(spec: &str) -> DesignQuery {
        DesignQuery::parse(spec).expect("valid spec")
    }

    #[test]
    fn spec_round_trips() {
        let a = q(
            "family=skat_plus coolant=mineral_oil_md45 bath=skat_plus util=0.7 trials=32 seed=9",
        );
        assert_eq!(q(&a.spec()), a);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DesignQuery::parse("family=skat util=1.5").is_err());
        assert!(DesignQuery::parse("family=skat trials=0").is_err());
        assert!(DesignQuery::parse("family=skat family=skat").is_err());
        assert!(
            DesignQuery::parse("util=0.5").is_err(),
            "family is required"
        );
        assert!(DesignQuery::parse("family=skat color=red").is_err());
        assert!(DesignQuery::parse("family skat").is_err());
    }

    #[test]
    fn distinct_queries_get_distinct_hashes() {
        let base = q("family=skat");
        for other in [
            q("family=taygeta"),
            q("family=skat util=0.8"),
            q("family=skat trials=255"),
            q("family=skat seed=43"),
            q("family=skat bath=skat_plus"),
            q("family=skat coolant=mineral_oil_md45"),
        ] {
            assert_ne!(base.canonical_hash(), other.canonical_hash(), "{other:?}");
        }
    }

    #[test]
    fn cache_fifo_evicts_in_insertion_order() {
        let mut cache = QueryCache::new(2);
        let mk = |seed: u64| {
            let query = q(&format!("family=skat seed={seed}"));
            let hash = query.canonical_hash();
            let verdict = DesignVerdict {
                query_hash: hash,
                junction_c: 0.0,
                coolant_hot_c: 0.0,
                coolant_cold_c: 0.0,
                total_heat_w: 0.0,
                cooling_overhead: 0.0,
                availability_mean: 1.0,
                availability_p05: 1.0,
                annual_energy_kwh: 0.0,
                compliant: true,
            };
            (hash, query, verdict)
        };
        let (h1, q1, v1) = mk(1);
        let (h2, q2, v2) = mk(2);
        let (h3, q3, v3) = mk(3);
        assert_eq!(cache.insert(h1, q1.clone(), v1), None);
        assert_eq!(cache.insert(h2, q2, v2), None);
        assert_eq!(
            cache.insert(h3, q3.clone(), v3),
            Some(h1),
            "oldest goes first"
        );
        assert_eq!(cache.keys_in_eviction_order(), vec![h2, h3]);
        assert!(cache.lookup(h1, &q1).is_none());
        assert!(cache.lookup(h3, &q3).is_some());
    }

    #[test]
    fn cache_lookup_guards_against_collisions() {
        let mut cache = QueryCache::new(2);
        let stored = q("family=skat seed=1");
        let probe = q("family=skat seed=2");
        let hash = stored.canonical_hash();
        let verdict = DesignVerdict {
            query_hash: hash,
            junction_c: 0.0,
            coolant_hot_c: 0.0,
            coolant_cold_c: 0.0,
            total_heat_w: 0.0,
            cooling_overhead: 0.0,
            availability_mean: 1.0,
            availability_p05: 1.0,
            annual_energy_kwh: 0.0,
            compliant: true,
        };
        cache.insert(hash, stored.clone(), verdict);
        // Pretend probe collided onto the same hash: equality must veto.
        assert!(cache.lookup(hash, &probe).is_none());
        assert!(cache.lookup(hash, &stored).is_some());
    }

    #[test]
    fn a_usize_max_capacity_cache_grows_on_insert() {
        // Sizing the deque and map to the capacity up front would try
        // to allocate for usize::MAX entries and panic.
        let mut cache = QueryCache::new(usize::MAX);
        let query = q("family=skat");
        let hash = query.canonical_hash();
        let verdict = DesignVerdict {
            query_hash: hash,
            junction_c: 0.0,
            coolant_hot_c: 0.0,
            coolant_cold_c: 0.0,
            total_heat_w: 0.0,
            cooling_overhead: 0.0,
            availability_mean: 1.0,
            availability_p05: 1.0,
            annual_energy_kwh: 0.0,
            compliant: true,
        };
        assert_eq!(cache.insert(hash, query.clone(), verdict.clone()), None);
        assert_eq!(cache.lookup(hash, &query), Some(&verdict));
        assert_eq!(cache.len(), 1);
    }
}
