//! Warm-start correctness contract for the hydraulic solver.
//!
//! Parameter sweeps may reuse a [`SolverContext`]: each step then starts
//! the Newton iteration from the neighboring step's converged flows
//! instead of the cold uniform guess. These tests pin the contract that
//! makes that reuse safe to ship:
//!
//! 1. **Agreement** — a warm-started sweep lands on the same physical
//!    solution as the cold sweep at every step, within the solver's own
//!    convergence tolerance (the two runs take different Newton paths,
//!    so last-ulp equality is not the contract; sub-tolerance agreement
//!    is).
//! 2. **Determinism** — the warm sweep itself is a pure function of the
//!    solve history: repeated runs are bit-identical, field for field,
//!    and golden values pin one known sweep so drift is caught as a
//!    diff. The CI `RCS_THREADS` matrix (1/2/4) runs this same binary
//!    at every thread count; solver contexts are never shared across
//!    threads, so the goldens must hold unchanged there too.
//! 3. **Economy** — the warm sweep spends strictly fewer Newton
//!    iterations than the cold sweep (that is the entire point), and
//!    the saving is visible in the `profile.*` work counters.

use rcs_sim::fluids::Coolant;
use rcs_sim::hydraulics::{layout, HydraulicNetwork, HydraulicSolution, SolveOptions};
use rcs_sim::obs::{Registry, Sinks};
use rcs_sim::units::Celsius;

/// Warm/cold agreement tolerance: same scale as the solver's own
/// continuity and head-closure tolerances.
const AGREE_TOL: f64 = 1e-9;

const LOOPS: usize = 6;
const OPENINGS: [f64; 7] = [1.0, 0.85, 0.7, 0.55, 0.4, 0.6, 0.9];

/// Solves one step per entry of [`OPENINGS`] through the standard
/// ladder and one shared context: `configure` sets the network up for
/// step `i`, and a cold sweep drops the seed before every step.
fn solve_steps(
    net: &mut HydraulicNetwork,
    warm: bool,
    sinks: Sinks<'_>,
    mut configure: impl FnMut(&mut HydraulicNetwork, usize),
) -> Vec<HydraulicSolution> {
    let water = Coolant::water().state(Celsius::new(20.0));
    let mut ctx = net.solver_context();
    (0..OPENINGS.len())
        .map(|i| {
            configure(net, i);
            if !warm {
                ctx.clear_seed();
            }
            net.solve_with_ladder(&water, &SolveOptions::ladder(), &mut ctx, sinks)
                .expect("sweep converges at every step")
        })
        .collect()
}

/// Solves the benchmark sweep — a direct-return rack manifold whose
/// first loop valve is trimmed step by step — warm or cold.
fn sweep(warm: bool) -> Vec<HydraulicSolution> {
    let mut plan = layout::rack_manifold_with(
        LOOPS,
        layout::ReturnStyle::Direct,
        &layout::ManifoldParams {
            balancing_valves: true,
            ..layout::ManifoldParams::default()
        },
    );
    let valve = plan.loop_branches[0];
    solve_steps(&mut plan.network, warm, Sinks::disabled(), |net, i| {
        net.set_valve_opening(valve, OPENINGS[i]).unwrap();
    })
}

#[test]
fn warm_sweep_agrees_with_cold_sweep_everywhere() {
    let cold = sweep(false);
    let warm = sweep(true);
    assert_eq!(cold.len(), warm.len());
    for (step, (c, w)) in cold.iter().zip(&warm).enumerate() {
        for (k, (qc, qw)) in c.flows().iter().zip(w.flows()).enumerate() {
            let (qc, qw) = (qc.cubic_meters_per_second(), qw.cubic_meters_per_second());
            assert!(
                (qc - qw).abs() <= AGREE_TOL,
                "step {step} branch {k}: cold {qc} vs warm {qw}"
            );
        }
    }
}

#[test]
fn warm_sweep_spends_fewer_iterations_than_cold() {
    let cold: usize = sweep(false).iter().map(HydraulicSolution::iterations).sum();
    let warm: usize = sweep(true).iter().map(HydraulicSolution::iterations).sum();
    assert!(
        warm < cold,
        "warm sweep must be cheaper: {warm} vs {cold} iterations"
    );
}

#[test]
fn warm_sweep_is_bit_deterministic_across_runs() {
    let a = sweep(true);
    let b = sweep(true);
    for (step, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.iterations(), y.iterations(), "step {step}");
        for (qx, qy) in x.flows().iter().zip(y.flows()) {
            assert_eq!(
                qx.cubic_meters_per_second(),
                qy.cubic_meters_per_second(),
                "warm sweep must be a pure function of the history (step {step})"
            );
        }
    }
}

#[test]
fn warm_sweep_matches_golden_values() {
    // Step 4 (the deepest trim, opening 0.4) of the warm sweep, pinned.
    // Re-pin from a fresh run if the solver or the manifold layout
    // changes deliberately — with a changelog note, never by accident.
    // The CI RCS_THREADS matrix replays these exact values at 1/2/4
    // worker threads.
    let warm = sweep(true);
    let deep = &warm[4];
    let q0 = deep.flows()[0].cubic_meters_per_second();
    let total: f64 = deep
        .flows()
        .iter()
        .take(LOOPS)
        .map(|q| q.cubic_meters_per_second())
        .sum();
    let golden_q0 = GOLDEN_DEEP_TRIM_LOOP0;
    let golden_total = GOLDEN_DEEP_TRIM_TOTAL;
    assert!(
        (q0 - golden_q0).abs() <= 1e-12,
        "loop 0 flow drifted: {q0:.17} vs {golden_q0:.17}"
    );
    assert!(
        (total - golden_total).abs() <= 1e-12,
        "loop total drifted: {total:.17} vs {golden_total:.17}"
    );
}

/// Loop 0 volumetric flow (m³/s) at the deepest trim step of the warm
/// benchmark sweep. Re-pinned (4.639_337_336_808_121e-3, 2.3e-9
/// relative lower) when the solver's default attempt moved to full
/// Newton steps: the warm step now converges quadratically and lands
/// within 7e-13 m³/s of the cold solve, where the under-relaxed path
/// stopped 1.2e-10 m³/s from it.
const GOLDEN_DEEP_TRIM_LOOP0: f64 = 4.639_337_347_375_676e-3;
/// Sum of all loop flows (m³/s) at the same step (re-pinned with loop
/// 0 from 1.460_823_054_136_066_1e-2).
const GOLDEN_DEEP_TRIM_TOTAL: f64 = 1.460_823_057_462_177e-2;

#[test]
fn warm_sweep_work_counters_drop() {
    // The iteration saving must be visible to the profiling layer: the
    // same sweep observed warm and cold shows strictly fewer
    // hydraulics iterations (== factorizations) and a warm_starts
    // count of steps - 1.
    let run = |warm: bool| {
        let mut plan = layout::rack_manifold(LOOPS, layout::ReturnStyle::Reverse);
        let valve_target = plan.loop_branches[0];
        let obs = Registry::new();
        solve_steps(&mut plan.network, warm, Sinks::counters(&obs), |net, i| {
            let _ = net.set_branch_open(valve_target, OPENINGS[i] > 0.5);
        });
        obs.snapshot()
    };
    let cold = run(false);
    let warm = run(true);
    assert_eq!(cold.counter("profile.hydraulics.warm_starts"), 0);
    assert_eq!(
        warm.counter("profile.hydraulics.warm_starts"),
        (OPENINGS.len() - 1) as u64,
        "every step after the first starts warm"
    );
    assert!(
        warm.counter("profile.hydraulics.iterations")
            < cold.counter("profile.hydraulics.iterations")
    );
    assert_eq!(
        warm.counter("profile.hydraulics.iterations"),
        warm.counter("profile.hydraulics.factorizations"),
        "one factorization per Newton iteration"
    );
}
