//! `rack_sweep`: cold rack sizing, the E7/E8 claim.
//!
//! One client solves one rack design after another with
//! `RackImmersionModel::solve`, serially (the rack model has no parallel
//! path), and balances direct-return designs with `balance::auto_trim`
//! on the matching valved manifold. An op is one design.

use std::collections::VecDeque;
use std::time::Duration;

use rcs_cooling::ImmersionBath;
use rcs_core::{CoreError, ImmersionModel, RackImmersionModel, RackReport};
use rcs_devices::OperatingPoint;
use rcs_fluids::{Coolant, FluidState};
use rcs_hydraulics::balance::{self, TrimReport};
use rcs_hydraulics::layout::{self, ManifoldParams, ReturnStyle};
use rcs_hydraulics::HydraulicError;
use rcs_numeric::hash::Fnv1a;
use rcs_obs::span::SpanSink;
use rcs_obs::Registry;
use rcs_platform::presets;
use rcs_thermal::Chiller;
use rcs_units::{Celsius, Length, Power, Pressure, VolumeFlow};

use crate::gen::{RackDesign, RackGen};
use crate::sinks::{self, Sinks};
use crate::spans::{self, Recorder};
use crate::stats::{self, write_bits, Digest};
use crate::{hydraulics_metrics, ratio, Budget, Deadline, Measured, Traced, Windows};

/// Designs generated per pool fill.
pub const POOL: usize = 256;
/// Designs per throughput and p50 window: one deck, so every window
/// holds the same designs.
pub const WINDOW_DESIGNS: usize = crate::gen::RACK_DECK;
/// Designs between host probes (about 0.25 s).
pub const PROBE_DESIGNS: usize = 16;
/// Designs of a traced pass; the digest covers this many designs.
pub const TRACE_DESIGNS: usize = 64;
/// Loop-flow spread (max ÷ min) the trim aims for.
pub const TRIM_TARGET: f64 = 1.02;
/// Trim rounds before the trim reports the best state it reached.
pub const TRIM_ROUNDS: usize = 60;
/// Relative tolerance of the rack heat balance check.
const HEAT_REL_TOL: f64 = 1e-9;
/// The rack model's facility chiller: 20 °C supply, 150 kW, COP 4.5.
const SUPPLY_C: f64 = 20.0;
const CHILLER_KW: f64 = 150.0;
const CHILLER_COP: f64 = 4.5;
/// Passes of the rack model's shared-chiller fixed point at most.
const SUPPLY_PASSES: usize = 20;

/// Manifold sizing of `RackImmersionModel` (header diameter growing with
/// √modules, 180 kPa pump sized for 150 L/min per module), optionally
/// with a balancing valve per loop. The traced run checks that the
/// unvalved manifold delivers the rack report's flows bit for bit.
#[must_use]
pub fn manifold_params(modules: usize, balancing_valves: bool) -> ManifoldParams {
    ManifoldParams {
        manifold_diameter: Length::millimeters(50.0 * (modules as f64 / 6.0).sqrt().max(1.0)),
        pump_shutoff: Pressure::kilopascals(180.0),
        pump_max_flow: VolumeFlow::liters_per_minute(150.0 * modules as f64),
        balancing_valves,
        ..ManifoldParams::default()
    }
}

fn water() -> FluidState {
    Coolant::water().state(Celsius::new(SUPPLY_C))
}

fn model(d: &RackDesign) -> RackImmersionModel {
    let rack = if d.plus {
        RackImmersionModel::skat_plus_rack(d.modules)
    } else {
        RackImmersionModel::skat_rack(d.modules)
    };
    rack.with_manifold_style(d.style)
        .with_operating_point(OperatingPoint::at_utilization(d.utilization))
}

/// Generated designs and the position in the design stream.
pub struct State {
    gen: RackGen,
    pool: VecDeque<RackDesign>,
}

impl State {
    fn next_design(&mut self) -> RackDesign {
        if self.pool.is_empty() {
            self.pool = self.gen.designs(POOL).into();
        }
        self.pool.pop_front().expect("pool refilled above")
    }
}

/// Input generation plus one untimed solve and trim of the heaviest
/// design, a full-load direct-return rack of 32 SKAT+ modules.
#[must_use]
pub fn setup(seed: u64) -> State {
    let mut gen = RackGen::new(seed);
    let pool = gen.designs(POOL).into();
    let warm = RackDesign {
        plus: true,
        modules: crate::gen::RACK_MODULES_MAX,
        style: ReturnStyle::Direct,
        utilization: 1.0,
    };
    let _ = run_op(&warm, None, 0);
    State { gen, pool }
}

struct OpResult {
    report: Result<RackReport, CoreError>,
    trim: Option<Result<TrimReport, HydraulicError>>,
    solve: Duration,
    trim_time: Option<Duration>,
}

/// One design: the coupled rack solve, then the trim of a direct-return
/// manifold.
fn run_op(d: &RackDesign, rec: Option<&Recorder>, op: u64) -> OpResult {
    spans::time(rec, "rack_sweep.op", Some(op), None, |root| {
        let (report, solve) = spans::time(rec, "rack.solve", Some(op), Some(root), |_| {
            model(d).solve()
        });
        let (trim, trim_time) = match d.style {
            ReturnStyle::Reverse => (None, None),
            ReturnStyle::Direct => {
                let (trim, took) = spans::time(rec, "rack.trim", Some(op), Some(root), |_| {
                    let mut plan = layout::rack_manifold_with(
                        d.modules,
                        d.style,
                        &manifold_params(d.modules, true),
                    );
                    balance::auto_trim(&mut plan, &water(), TRIM_TARGET, TRIM_ROUNDS)
                });
                (Some(trim), Some(took))
            }
        };
        OpResult {
            report,
            trim,
            solve,
            trim_time,
        }
    })
    .0
}

/// The correctness gate: the solve succeeds with one report per module
/// and rack heat equal to the Σ of module heat, and a trimmed manifold
/// reaches the target or spends every round.
fn check(d: &RackDesign, r: &OpResult) -> bool {
    let Ok(report) = &r.report else {
        return false;
    };
    let total = report.total_heat.watts();
    let sum: f64 = report.per_module.iter().map(|m| m.total_heat.watts()).sum();
    let heat_ok = report.per_module.len() == d.modules
        && total.is_finite()
        && (total - sum).abs() <= HEAT_REL_TOL * total.abs();
    let trim_ok = match &r.trim {
        None => d.style == ReturnStyle::Reverse,
        Some(Ok(t)) => t.spread_after <= TRIM_TARGET || t.rounds == TRIM_ROUNDS,
        Some(Err(_)) => false,
    };
    heat_ok && trim_ok
}

fn absorb(digest: &mut Digest, r: &OpResult) {
    digest.absorb(|h: &mut Fnv1a| {
        match &r.report {
            Ok(report) => {
                write_bits(
                    h,
                    &[report.total_heat.watts(), report.chiller_supply.degrees()],
                );
                h.write_u8(u8::from(report.within_chiller_capacity));
                for (m, q) in report.per_module.iter().zip(&report.water_flows) {
                    write_bits(h, &[m.junction.degrees(), q.cubic_meters_per_second()]);
                }
            }
            Err(_) => h.write_u8(2),
        }
        if let Some(Ok(t)) = &r.trim {
            write_bits(h, &[t.spread_before, t.spread_after]);
            write_bits(h, &t.openings);
            h.write_u64(t.rounds as u64);
        }
    });
}

/// Traced-pass state: the span store, layer timings and the registry
/// the shadow replays record into.
struct Tracing<'a> {
    rec: &'a Recorder,
    obs: &'a Registry,
    manifold: &'a Registry,
    solve_ms: Vec<f64>,
    trim_ms: Vec<f64>,
    trim_rounds: Vec<f64>,
    manifold_ms: Vec<f64>,
    immersion_us: Vec<f64>,
}

fn bits_eq(a: &[VolumeFlow], b: &[VolumeFlow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cubic_meters_per_second().to_bits() == y.cubic_meters_per_second().to_bits()
        })
}

/// Replays the layers a rack solve cannot report on by itself: one cold
/// solve of the rack's manifold, then the whole shared-chiller fixed
/// point, every pass over every module, as `RackImmersionModel::solve`
/// runs it. `false` when the replay's flows, supply or heat differ
/// bitwise from the rack's report, that is, when the replay is out of
/// step with the rack model.
fn shadow(d: &RackDesign, report: &RackReport, op: u64, tr: &mut Tracing<'_>) -> bool {
    let rec = tr.rec;
    let plan = layout::rack_manifold_with(d.modules, d.style, &manifold_params(d.modules, false));
    let manifold_sinks = Sinks {
        obs: tr.manifold,
        spans: SpanSink::disabled(),
    };
    let (solution, took) = rec.time("hydraulics.manifold_solve", Some(op), None, |_| {
        sinks::solve_network(&plan.network, &water(), manifold_sinks)
    });
    tr.manifold_ms.push(took.as_secs_f64() * 1e3);
    let flows_match = solution.is_ok_and(|s| bits_eq(&plan.loop_flows(&s), &report.water_flows));

    let (module, template) = if d.plus {
        (presets::skat_plus(), ImmersionBath::skat_plus_default())
    } else {
        (presets::skat(), ImmersionBath::skat_default())
    };
    let sinks = Sinks {
        obs: tr.obs,
        spans: SpanSink::disabled(),
    };
    let facility = Chiller::new(
        Celsius::new(SUPPLY_C),
        Power::kilowatts(CHILLER_KW),
        CHILLER_COP,
    );
    let mut supply = facility.setpoint();
    let mut total_heat = Power::ZERO;
    for _ in 0..SUPPLY_PASSES {
        total_heat = Power::ZERO;
        for flow in &report.water_flows {
            let mut bath = template.clone();
            bath.water_flow = *flow;
            bath.chiller = Chiller::new(supply, Power::kilowatts(1e3), CHILLER_COP);
            let m = ImmersionModel::new(module.clone(), bath)
                .with_operating_point(OperatingPoint::at_utilization(d.utilization));
            let (solved, took) = rec.time("immersion.solve_robust", Some(op), None, |_| {
                sinks::solve_immersion(&m, sinks)
            });
            tr.immersion_us.push(took.as_secs_f64() * 1e6);
            match solved {
                Ok(r) => total_heat += r.total_heat,
                Err(_) => return false,
            }
        }
        let next = facility.supply_temperature(total_heat);
        let settled = (next - supply).kelvins().abs() < 1e-6;
        supply = next;
        if settled {
            break;
        }
    }
    flows_match
        && supply.degrees().to_bits() == report.chiller_supply.degrees().to_bits()
        && total_heat.watts().to_bits() == report.total_heat.watts().to_bits()
}

/// The serial loop shared by the untraced run and the traced passes.
fn drive(
    state: &mut State,
    stop: impl Fn(u64, usize) -> bool,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Measured {
    let mut digest = Digest::new(TRACE_DESIGNS as u64);
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut timed = Duration::ZERO;
    let mut latencies_ms = Vec::new();
    let mut windows = Windows::new(WINDOW_DESIGNS, PROBE_DESIGNS);
    while !stop(ops, latencies_ms.len()) {
        let d = state.next_design();
        let rec = tracing.as_deref().map(|tr| tr.rec);
        let start = std::time::Instant::now();
        let result = run_op(&d, rec, ops);
        let dt = start.elapsed();
        timed += dt;
        latencies_ms.push(dt.as_secs_f64() * 1e3);
        windows.add(1, dt.as_secs_f64());
        let mut ok = check(&d, &result);
        absorb(&mut digest, &result);
        if let Some(tr) = tracing.as_deref_mut() {
            tr.solve_ms.push(result.solve.as_secs_f64() * 1e3);
            if let (Some(took), Some(Ok(t))) = (result.trim_time, &result.trim) {
                tr.trim_ms.push(took.as_secs_f64() * 1e3);
                tr.trim_rounds.push(t.rounds as f64);
            }
            if let Ok(report) = &result.report {
                ok &= shadow(&d, report, ops, tr);
            }
        }
        if !ok {
            failed += 1;
        }
        ops += 1;
    }
    let (window_rates, probes) = windows.finish();
    Measured {
        ops,
        failed,
        timed,
        latencies_ms,
        window_rates,
        window_samples: WINDOW_DESIGNS,
        section_samples: 1,
        probes,
        digest: digest.value(),
        digest_ops: digest.ops(),
    }
}

/// The untraced, time-bounded run on a prepared state.
#[must_use]
pub fn run(state: &mut State, budget: Budget) -> Measured {
    let deadline = Deadline::start(budget.seconds);
    drive(
        state,
        |ops, samples| deadline.over(ops, TRACE_DESIGNS as u64, samples),
        None,
    )
}

/// The traced run: an untraced pass and a traced pass over the same
/// [`TRACE_DESIGNS`] designs, with shadow replays of the manifold and
/// the shared-chiller fixed point on the traced one. A replay that does
/// not reproduce its rack report fails that op.
#[must_use]
pub fn traced(seed: u64) -> Traced {
    let stop = |ops: u64, _: usize| ops >= TRACE_DESIGNS as u64;
    let untraced = drive(&mut setup(seed), stop, None);
    let obs = Registry::new();
    let manifold = Registry::new();
    let rec = Recorder::new();
    let mut tr = Tracing {
        rec: &rec,
        obs: &obs,
        manifold: &manifold,
        solve_ms: Vec::new(),
        trim_ms: Vec::new(),
        trim_rounds: Vec::new(),
        manifold_ms: Vec::new(),
        immersion_us: Vec::new(),
    };
    let traced = drive(&mut setup(seed), stop, Some(&mut tr));

    let manifold_snap = manifold.snapshot();
    obs.absorb(&manifold_snap);
    let snap = obs.snapshot();
    let designs = traced.ops;
    let work = obs.work_units();
    let mut metrics = vec![
        ("rack.solve_ms_p50", stats::percentile(&tr.solve_ms, 0.5)),
        ("rack.trim_ms_p50", stats::percentile(&tr.trim_ms, 0.5)),
        ("rack.trim_rounds_per_op", stats::mean(&tr.trim_rounds)),
        (
            "hydraulics.manifold_solve_ms_p50",
            stats::percentile(&tr.manifold_ms, 0.5),
        ),
        (
            "hydraulics.manifold_solve_ms_p99",
            stats::percentile(&tr.manifold_ms, 0.99),
        ),
        (
            "hydraulics.us_per_iter",
            tr.manifold_ms.iter().sum::<f64>() * 1e3
                / manifold_snap
                    .counter("profile.hydraulics.iterations")
                    .max(1) as f64,
        ),
        (
            "immersion.solve_robust_us_p50",
            stats::percentile(&tr.immersion_us, 0.5),
        ),
        (
            "immersion.fixed_point_iters_per_op",
            ratio(
                snap.counter("profile.immersion.fixed_point_iterations"),
                designs,
            ),
        ),
        ("obs.work_units_per_op", ratio(work, designs)),
        (
            "obs.ns_per_work_unit",
            untraced.timed.as_secs_f64() * 1e9 / work.max(1) as f64,
        ),
        (
            "obs.trace_overhead_frac",
            traced.timed.as_secs_f64() / untraced.timed.as_secs_f64() - 1.0,
        ),
    ];
    metrics.extend(hydraulics_metrics(&snap));

    Traced {
        attempted: traced.ops,
        failed: traced.failed,
        correct: untraced.digest == traced.digest && untraced.failed + traced.failed == 0,
        metrics,
        spans: rec.spans(),
        digest: traced.digest,
    }
}
