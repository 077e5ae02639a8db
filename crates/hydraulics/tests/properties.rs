//! Property-based tests for the hydraulic solver and layouts.

mod common;

use rcs_fluids::Coolant;
use rcs_hydraulics::{balance, layout, Element, HydraulicNetwork, Pipe, PumpCurve};
use rcs_hydraulics::{HydraulicSolution, SolveOptions, SolverContext};
use rcs_obs::{Registry, Sinks};
use rcs_testkit::check_cases;
use rcs_units::{Celsius, Length, Pressure, VolumeFlow};

fn water() -> rcs_fluids::FluidState {
    Coolant::water().state(Celsius::new(20.0))
}

/// Mass conservation holds at every junction for randomized parallel
/// ladders of 2..6 loops with randomized pipe lengths.
#[test]
fn random_ladder_conserves_mass() {
    check_cases("random_ladder_conserves_mass", 64, |g| {
        let lengths = g.vec_f64_in(2.0..40.0, 2..6);
        let shutoff_kpa = g.draw(30.0..200.0f64);
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("s");
        let r = net.add_junction("r");
        for (i, len) in lengths.iter().enumerate() {
            net.add_branch(
                format!("loop{i}"),
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(*len),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        }
        net.add_branch(
            "pump",
            r,
            s,
            vec![Element::Pump(PumpCurve::new(
                Pressure::kilopascals(shutoff_kpa),
                VolumeFlow::liters_per_minute(400.0),
            ))],
        )
        .unwrap();
        let sol = net.solve(&water()).unwrap();
        for j in net.junction_ids() {
            let res = sol.continuity_residual(j);
            assert!(res.cubic_meters_per_second().abs() < 1e-7);
        }
        // all loop flows positive (supply to return)
        for k in 0..lengths.len() {
            assert!(sol.flows()[k].cubic_meters_per_second() > 0.0);
        }
    });
}

/// Shorter parallel pipes always carry at least as much flow.
#[test]
fn flow_ordering_follows_resistance() {
    check_cases("flow_ordering_follows_resistance", 64, |g| {
        let l1 = g.draw(2.0..20.0f64);
        let extra = g.draw(0.5..30.0f64);
        let mut net = HydraulicNetwork::new();
        let s = net.add_junction("s");
        let r = net.add_junction("r");
        let short = net
            .add_branch(
                "short",
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(l1),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        let long = net
            .add_branch(
                "long",
                s,
                r,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(l1 + extra),
                    Length::millimeters(20.0),
                ))],
            )
            .unwrap();
        net.add_branch(
            "pump",
            r,
            s,
            vec![Element::Pump(PumpCurve::new(
                Pressure::kilopascals(80.0),
                VolumeFlow::liters_per_minute(300.0),
            ))],
        )
        .unwrap();
        let sol = net.solve(&water()).unwrap();
        assert!(
            sol.flow(short).cubic_meters_per_second()
                >= sol.flow(long).cubic_meters_per_second() - 1e-12
        );
    });
}

/// Reverse return beats direct return on spread for every rack size and
/// a range of loop resistances.
#[test]
fn reverse_always_beats_direct() {
    check_cases("reverse_always_beats_direct", 64, |g| {
        let n = g.draw(2usize..10);
        let hx_k = g.draw(3.0..12.0f64);
        let params = layout::ManifoldParams {
            exchanger_k: hx_k,
            ..layout::ManifoldParams::default()
        };
        let direct = layout::rack_manifold_with(n, layout::ReturnStyle::Direct, &params);
        let reverse = layout::rack_manifold_with(n, layout::ReturnStyle::Reverse, &params);
        let sd =
            balance::spread(&direct.loop_flows(&direct.network.solve(&water()).unwrap())).unwrap();
        let sr = balance::spread(&reverse.loop_flows(&reverse.network.solve(&water()).unwrap()))
            .unwrap();
        assert!(
            sr <= sd + 1e-9,
            "n={n} k={hx_k}: reverse {sr} !<= direct {sd}"
        );
    });
}

/// Failing any loop leaves the surviving reverse-return loops balanced
/// and faster than before.
#[test]
fn any_single_failure_redistributes() {
    check_cases("any_single_failure_redistributes", 64, |g| {
        let n = g.draw(3usize..8);
        let fail = g.draw(0usize..8) % n;
        let mut plan = layout::rack_manifold(n, layout::ReturnStyle::Reverse);
        let before = plan.loop_flows(&plan.network.solve(&water()).unwrap());
        plan.fail_loop(fail).unwrap();
        let after_sol = plan.network.solve(&water()).unwrap();
        let after = plan.loop_flows(&after_sol);
        for i in 0..n {
            if i == fail {
                assert_eq!(after[i].cubic_meters_per_second(), 0.0);
            } else {
                assert!(after[i] > before[i]);
            }
        }
        let survivors = plan.surviving_loop_flows(&after_sol);
        // manifold losses accumulate with rack height, so the achievable
        // balance loosens slightly with n
        let bound = 1.05 + 0.025 * n as f64;
        assert!(balance::spread(&survivors).unwrap() < bound);
    });
}

/// Cold oil is both denser and far more viscous than warm oil, so the
/// same pressure-driven network flows strictly less of it.
#[test]
fn cold_oil_flows_less_than_warm_oil() {
    check_cases("cold_oil_flows_less_than_warm_oil", 64, |g| {
        let n = g.draw(2usize..6);
        let plan = layout::rack_manifold(n, layout::ReturnStyle::Reverse);
        let cold = Coolant::mineral_oil_md45().state(Celsius::new(0.0));
        let warm = Coolant::mineral_oil_md45().state(Celsius::new(60.0));
        let qc = plan.network.solve(&cold).unwrap();
        let qw = plan.network.solve(&warm).unwrap();
        let total = |flows: Vec<VolumeFlow>| -> f64 {
            flows.iter().map(|q| q.cubic_meters_per_second()).sum()
        };
        assert!(total(plan.loop_flows(&qc)) < total(plan.loop_flows(&qw)));
    });
}

/// The sparse engine must agree with the dense reference on every
/// randomized topology and open/close pattern — including the PR 2
/// isolated-junction class, where a junction's last open branch closes
/// and the node must be pinned to the reference pressure by both
/// engines identically.
#[test]
fn sparse_and_dense_agree_under_random_branch_outages() {
    use rcs_hydraulics::SolverEngine;
    check_cases(
        "sparse_and_dense_agree_under_random_branch_outages",
        64,
        |g| {
            let loops = g.draw(2usize..=6);
            let mut net = HydraulicNetwork::new();
            // supply/return headers with one loop and one dead-end spur per
            // station; spurs and loops open or close independently
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
            // random outages: keep loop 0 so the pump always has a circuit;
            // every spur is a dead end, so closing one isolates its junction
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

            let mut sparse = net.solver_context_with(SolverEngine::Sparse);
            let mut dense = net.solver_context_with(SolverEngine::Dense);
            let s = net
                .solve_with_ladder(
                    &water(),
                    &[SolveOptions::default()],
                    &mut sparse,
                    Sinks::disabled(),
                )
                .unwrap();
            let d = net
                .solve_with_ladder(
                    &water(),
                    &[SolveOptions::default()],
                    &mut dense,
                    Sinks::disabled(),
                )
                .unwrap();
            assert_eq!(s.iterations(), d.iterations());
            for (k, (qs, qd)) in s.flows().iter().zip(d.flows()).enumerate() {
                let (qs, qd) = (qs.cubic_meters_per_second(), qd.cubic_meters_per_second());
                assert!((qs - qd).abs() <= 1e-12, "branch {k}: {qs} vs {qd}");
            }
            for j in net.junction_ids() {
                let (ps, pd) = (s.pressure(j).pascals(), d.pressure(j).pascals());
                assert!((ps - pd).abs() <= 1e-12 * ps.abs().max(1.0), "{ps} vs {pd}");
            }
            // a spur junction cut off from the network is pinned to the
            // reference pressure with zero residual by BOTH engines
            for &i in &closed_spurs {
                assert_eq!(s.pressure(spurs[i]).pascals(), 0.0);
                assert_eq!(d.pressure(spurs[i]).pascals(), 0.0);
                assert_eq!(s.flow(spur_ids[i]).cubic_meters_per_second(), 0.0);
            }
        },
    );
}

fn water_at(t: f64) -> rcs_fluids::FluidState {
    Coolant::water().state(Celsius::new(t))
}

/// Solves through the standard ladder and asserts that its first rung,
/// the default options, converged: no escalation to a damped rung.
fn solve_on_rung_zero(
    net: &HydraulicNetwork,
    fluid: &rcs_fluids::FluidState,
    ctx: &mut SolverContext,
    what: &str,
) -> HydraulicSolution {
    let obs = Registry::new();
    let sol = net
        .solve_with_ladder(fluid, &SolveOptions::ladder(), ctx, Sinks::counters(&obs))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        obs.snapshot().counter("hydraulics.ladder.escalations"),
        0,
        "{what}: the default options did not converge"
    );
    sol
}

/// Asserts that every branch flow of `sol` matches a cold solve of the
/// same network under heavy damping within 1e-6 of the network's
/// largest flow. The scale is the network's, as in the solver's own
/// tolerance: a dead-end branch carries zero flow, which the damped
/// reference only approaches.
fn assert_matches_damped_reference(
    net: &HydraulicNetwork,
    fluid: &rcs_fluids::FluidState,
    sol: &HydraulicSolution,
    what: &str,
) {
    let reference = net
        .solve_with_ladder(
            fluid,
            &[SolveOptions::damped(0.15, 1500)],
            &mut net.solver_context(),
            Sinks::disabled(),
        )
        .unwrap_or_else(|e| panic!("{what}: damped reference: {e}"));
    let scale = reference
        .flows()
        .iter()
        .fold(0.0f64, |m, q| m.max(q.cubic_meters_per_second().abs()));
    for (k, (q, r)) in sol.flows().iter().zip(reference.flows()).enumerate() {
        let (q, r) = (q.cubic_meters_per_second(), r.cubic_meters_per_second());
        assert!(
            (q - r).abs() <= 1e-6 * scale,
            "{what}: branch {k} flows {q} vs damped reference {r}"
        );
    }
}

/// An `n`-loop manifold as the benchmark sizes it: with balancing valves
/// at openings spread over 0.05–1 when `valves`, and with loop `n / 2`
/// failed when `failed`.
fn benchmark_manifold(
    n: usize,
    style: layout::ReturnStyle,
    valves: bool,
    failed: bool,
) -> layout::ManifoldPlan {
    let params = layout::ManifoldParams {
        balancing_valves: valves,
        ..layout::ManifoldParams::default()
    };
    let mut plan = layout::rack_manifold_with(n, style, &params);
    if valves {
        for (i, &b) in plan.loop_branches.iter().enumerate() {
            let opening = 0.05 + 0.95 * ((i * 7) % 10) as f64 / 9.0;
            plan.network.set_valve_opening(b, opening).unwrap();
        }
    }
    if failed {
        plan.fail_loop(n / 2).unwrap();
    }
    plan
}

/// Every manifold the benchmark sizes (1–48 loops, direct and reverse
/// return, with and without balancing valves at openings 0.05–1, with
/// and without a failed loop, water at 5/20/45 °C) converges on full
/// Newton steps, cold and warm after a 0.5 K water change, and lands
/// where the heavily damped solver does.
#[test]
fn manifolds_converge_on_full_newton_steps() {
    for n in [1usize, 2, 3, 5, 8, 13, 21, 32, 48] {
        for style in [layout::ReturnStyle::Direct, layout::ReturnStyle::Reverse] {
            for valves in [false, true] {
                for failed in [false, true] {
                    if failed && n == 1 {
                        continue; // the pump would be dead-headed
                    }
                    let plan = benchmark_manifold(n, style, valves, failed);
                    let net = &plan.network;
                    for t in [5.0, 20.0, 45.0] {
                        let what =
                            format!("{n} loops, {style}, valves {valves}, failed {failed}, {t} °C");
                        let mut ctx = net.solver_context();
                        let cold = solve_on_rung_zero(net, &water_at(t), &mut ctx, &what);
                        assert_matches_damped_reference(net, &water_at(t), &cold, &what);
                        let warm = water_at(t + 0.5);
                        let resolved = solve_on_rung_zero(net, &warm, &mut ctx, &what);
                        assert_matches_damped_reference(net, &warm, &resolved, &what);
                    }
                }
            }
        }
    }
}

/// A failed loop leaves a dead end whose flow tends to zero, where the
/// friction curve is clamped and its own slope vanishes with the flow; a
/// linearization that used it would hand the dead end a near-infinite
/// conductance and wander. On the 2-loop direct-return valved manifold
/// in 5 °C water a cold full-Newton solve takes the 4 iterations a cold
/// solve must take at least.
#[test]
fn dead_end_loop_converges_in_the_minimum_cold_iterations() {
    let plan = benchmark_manifold(2, layout::ReturnStyle::Direct, true, true);
    let net = &plan.network;
    let mut ctx = net.solver_context();
    let sol = solve_on_rung_zero(net, &water_at(5.0), &mut ctx, "dead end");
    assert_eq!(sol.iterations(), 4);
}

/// Bath circulation with one of 1–4 parallel pumps derated down to
/// 0.001 of its head converges on full Newton steps through a warm oil
/// temperature sweep, the shape of the coupled immersion fixed point,
/// and matches the heavily damped solver at every step.
#[test]
fn derated_bath_pumps_converge_on_full_newton_steps() {
    let oils = [Coolant::src_dielectric(), Coolant::mineral_oil_md45()];
    for pumps in 1..=4 {
        for head in [1.0, 0.3, 0.1, 0.01, 0.001] {
            let net = common::bath_circulation(pumps, head);
            for oil in &oils {
                let mut ctx = net.solver_context();
                for step in 0..8u32 {
                    let fluid = oil.state(Celsius::new(20.0 + 5.0 * f64::from(step)));
                    let what = format!("{pumps} pumps, head {head}, step {step}");
                    let sol = solve_on_rung_zero(&net, &fluid, &mut ctx, &what);
                    assert_matches_damped_reference(&net, &fluid, &sol, &what);
                }
            }
        }
    }
}

/// Full Newton steps converge quadratically near the solution: a cold
/// solve of a 32-loop direct-return manifold takes at most 10
/// iterations, and a warm re-solve after a 0.5 K water change at most 3.
/// Under-relaxed steps converge only linearly and need about twice as
/// many.
#[test]
fn full_newton_steps_bound_manifold_iterations() {
    let plan = layout::rack_manifold(32, layout::ReturnStyle::Direct);
    let net = &plan.network;
    let (opts, off) = ([SolveOptions::default()], Sinks::disabled());
    let mut ctx = net.solver_context();
    let cold = net
        .solve_with_ladder(&water_at(20.0), &opts, &mut ctx, off)
        .unwrap();
    assert!(
        cold.iterations() <= 10,
        "cold solve took {} iterations",
        cold.iterations()
    );
    let warm = net
        .solve_with_ladder(&water_at(20.5), &opts, &mut ctx, off)
        .unwrap();
    assert!(
        warm.iterations() <= 3,
        "warm re-solve took {} iterations",
        warm.iterations()
    );
}
