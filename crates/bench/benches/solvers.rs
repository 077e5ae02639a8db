//! Substrate solver micro-benchmarks: the kernels every experiment leans
//! on. These bound the cost of scaling the reproduction up (bigger racks,
//! finer transients) and catch algorithmic regressions.

use std::hint::black_box;

use rcs_bench::Harness;
use rcs_cooling::ImmersionBath;
use rcs_core::ImmersionModel;
use rcs_fluids::Coolant;
use rcs_hydraulics::SolveOptions;
use rcs_hydraulics::{balance, layout, Element, HydraulicNetwork, Pipe};
use rcs_numeric::Matrix;
use rcs_obs::Sinks;
use rcs_thermal::ThermalNetwork;
use rcs_units::{Celsius, Length, Power, Pressure, Seconds, ThermalResistance, VolumeFlow};

/// Dense elimination at the sizes our networks actually reach.
fn bench_matrix_solve(h: &mut Harness) {
    for n in [8usize, 32, 96, 192] {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j {
                    4.0
                } else {
                    1.0 / (1.0 + (i + j) as f64)
                };
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        h.bench(&format!("matrix_solve/{n}"), || {
            black_box(a.solve(black_box(&b)).unwrap())
        });
    }
}

/// A SKAT-shaped thermal network: N chips into a bath into chilled water.
fn skat_network(chips: usize) -> ThermalNetwork {
    let mut net = ThermalNetwork::new();
    let bath = net.add_node("bath");
    let water = net.add_boundary("water", Celsius::new(20.0));
    net.connect(bath, water, ThermalResistance::from_kelvin_per_watt(9.6e-4))
        .unwrap();
    for i in 0..chips {
        let chip = net.add_node(format!("chip{i}"));
        net.connect(chip, bath, ThermalResistance::from_kelvin_per_watt(0.22))
            .unwrap();
        net.add_heat(chip, Power::from_watts(91.0)).unwrap();
    }
    net
}

fn bench_thermal_steady(h: &mut Harness) {
    for chips in [8usize, 96, 192] {
        let net = skat_network(chips);
        h.bench(&format!("thermal_steady/{chips}"), || {
            black_box(net.solve_steady().unwrap())
        });
    }
}

fn bench_thermal_transient(h: &mut Harness) {
    let mut net = ThermalNetwork::new();
    let chip = net.add_node_with_capacitance("chips", 14_400.0);
    let bath = net.add_node_with_capacitance("bath", 105_000.0);
    let water = net.add_boundary("water", Celsius::new(20.0));
    net.connect(chip, bath, ThermalResistance::from_kelvin_per_watt(2.3e-3))
        .unwrap();
    net.connect(bath, water, ThermalResistance::from_kelvin_per_watt(9.6e-4))
        .unwrap();
    net.add_heat(chip, Power::from_watts(8736.0)).unwrap();
    h.bench("thermal_transient_1h", || {
        black_box(
            net.solve_transient(Celsius::new(20.0), Seconds::hours(1.0), Seconds::new(2.0))
                .unwrap(),
        )
    });
}

/// The Fig. 5 manifold at growing rack sizes.
fn bench_hydraulic_manifold(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    for loops in [6usize, 12, 24] {
        let plan = layout::rack_manifold(loops, layout::ReturnStyle::Reverse);
        h.bench(&format!("hydraulic_manifold/{loops}"), || {
            black_box(plan.network.solve(black_box(&water)).unwrap())
        });
    }
}

/// Warm ladder solves of the SKAT+ bath circulation network (the bath +
/// exchanger loss path against two immersed pumps) through one context
/// while the oil temperature drifts — the inner solve of every immersion
/// fixed-point iteration and drill relinearization. One sample is a
/// 32-step drift.
fn bench_hydraulic_warm_circulation(h: &mut Harness) {
    let bath = ImmersionBath::skat_plus_default();
    let mut net = HydraulicNetwork::new();
    let inlet = net.add_junction("bath inlet");
    let outlet = net.add_junction("bath outlet");
    let d50 = Length::millimeters(50.0);
    let path = [2.0, 4.0, 2.0, 6.0]
        .into_iter()
        .map(|k| Element::MinorLoss { k, diameter: d50 })
        .chain([Element::Pipe(Pipe::smooth(Length::from_meters(1.5), d50))])
        .collect();
    net.add_branch("bath + exchanger path", inlet, outlet, path)
        .unwrap();
    for i in 0..bath.pump_count {
        net.add_branch(
            format!("pump {i}"),
            outlet,
            inlet,
            vec![Element::Pump(bath.pump)],
        )
        .unwrap();
    }
    let oil: Vec<_> = (0..32)
        .map(|i| {
            bath.coolant
                .state(Celsius::new(28.0 + 0.125 * f64::from(i)))
        })
        .collect();
    let mut ctx = net.solver_context();
    net.solve_with_ladder(
        &oil[0],
        &SolveOptions::ladder(),
        &mut ctx,
        Sinks::disabled(),
    )
    .unwrap();
    h.bench("hydraulic_warm_circulation", || {
        for fluid in &oil {
            black_box(
                net.solve_with_ladder(
                    black_box(fluid),
                    &SolveOptions::ladder(),
                    &mut ctx,
                    Sinks::disabled(),
                )
                .unwrap(),
            );
        }
    });
}

/// The full coupled SKAT solve: hydraulics + convection + exchanger +
/// leakage fixed point.
fn bench_coupled_immersion(h: &mut Harness) {
    h.bench("coupled_immersion_skat", || {
        black_box(ImmersionModel::skat().solve().unwrap())
    });
}

/// The sparse graph-elimination kernel on a manifold, sharing one
/// analyzed context across solves (the production shape: symbolic once,
/// numeric per Newton iteration). The `_sparse` row names are kept so
/// history stays comparable.
fn bench_sparse_manifold(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    for loops in [6usize, 12, 24] {
        let plan = layout::rack_manifold(loops, layout::ReturnStyle::Reverse);
        let mut ctx = plan.network.solver_context();
        h.bench(&format!("hydraulic_manifold_sparse/{loops}"), || {
            // cold every time: isolate the per-solve elimination cost
            ctx.clear_seed();
            black_box(
                plan.network
                    .solve_with_ladder(
                        black_box(&water),
                        &[SolveOptions::default()],
                        &mut ctx,
                        Sinks::disabled(),
                    )
                    .unwrap(),
            )
        });
    }
}

/// A valve-trim parameter sweep, cold versus warm-started — the reuse
/// pattern `auto_trim`, transients and Monte-Carlo trials lean on.
fn bench_hydraulic_sweep(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    let openings = [1.0, 0.8, 0.6, 0.45, 0.6, 0.8, 1.0];
    for warm in [false, true] {
        let tag = if warm { "warm" } else { "cold" };
        let plan = layout::rack_manifold_with(
            12,
            layout::ReturnStyle::Direct,
            &layout::ManifoldParams {
                balancing_valves: true,
                ..layout::ManifoldParams::default()
            },
        );
        let valve = plan.loop_branches[0];
        h.bench(
            &format!("hydraulic_sweep_{tag}/12x{}", openings.len()),
            || {
                let mut net = plan.network.clone();
                let mut ctx = net.solver_context();
                for opening in openings {
                    net.set_valve_opening(valve, opening).unwrap();
                    if !warm {
                        ctx.clear_seed();
                    }
                    black_box(
                        net.solve_with_ladder(
                            &water,
                            &SolveOptions::ladder(),
                            &mut ctx,
                            Sinks::disabled(),
                        )
                        .unwrap(),
                    );
                }
            },
        );
    }
}

/// Balancing-valve trim of a valved direct-return rack to a 1.02 spread,
/// from fully open valves: the direct-return cost that reverse return
/// avoids. The rack is sized as racks are sized for the immersion
/// models: the header grows as √(n/6) from 50 mm and the pump delivers
/// 150 L/min per loop against 180 kPa shutoff.
fn bench_auto_trim(h: &mut Harness) {
    let water = Coolant::water().state(Celsius::new(20.0));
    for loops in [6usize, 32] {
        let plan = layout::rack_manifold_with(
            loops,
            layout::ReturnStyle::Direct,
            &layout::ManifoldParams {
                manifold_diameter: Length::millimeters(50.0 * (loops as f64 / 6.0).sqrt()),
                pump_shutoff: Pressure::kilopascals(180.0),
                pump_max_flow: VolumeFlow::liters_per_minute(150.0 * loops as f64),
                balancing_valves: true,
                ..layout::ManifoldParams::default()
            },
        );
        h.bench(&format!("auto_trim/{loops}"), || {
            let mut plan = plan.clone();
            black_box(balance::auto_trim(&mut plan, black_box(&water), 1.02, 60).unwrap())
        });
    }
}

fn main() {
    let mut h = Harness::from_args_for("solvers");
    bench_matrix_solve(&mut h);
    bench_thermal_steady(&mut h);
    bench_thermal_transient(&mut h);
    bench_hydraulic_manifold(&mut h);
    bench_sparse_manifold(&mut h);
    bench_hydraulic_sweep(&mut h);
    bench_hydraulic_warm_circulation(&mut h);
    bench_auto_trim(&mut h);
    bench_coupled_immersion(&mut h);
    h.finish();
}
