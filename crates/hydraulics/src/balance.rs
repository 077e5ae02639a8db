//! Flow-balance metrics and balancing-valve auto-trim.
//!
//! The paper argues the reverse-return layout "makes it possible to
//! balance the hydraulic resistance in all the circulation loops ... no
//! additional hydraulic balancing system is needed". This module provides
//! the metrics that quantify balance and the valve-trim algorithm a
//! direct-return system would need instead — the complexity the paper's
//! layout eliminates.
//!
//! [`auto_trim`] inverts the valve law instead of searching for the
//! openings. A balancing valve's loss coefficient is K = k_open /
//! opening² ([`Valve`](crate::Valve)), and valves can only throttle, so
//! each round aims every open loop at the most starved loop's flow q_t.
//! Holding the loop's solved drop Δp_i, the valve must take Δp_i less
//! the loop's other losses at q_t; its drop scales as 1/opening², which
//! fixes the opening. Where that is not finite and positive the loop
//! keeps its opening for the round. The drop a loop sees shifts as its
//! neighbours throttle, so the trim re-solves and repeats: a 1.02
//! spread takes at most four rounds on racks of up to 32 loops. Each
//! re-solve starts from the previous round's flows.
//!
//! Closed (failed) loops carry no flow; they are left out of the spread
//! and the target, and their valves are not touched. A plan without
//! valves is a [`HydraulicError::MissingValve`], not a trim.

use rcs_fluids::FluidState;
use rcs_obs::Sinks;
use rcs_units::VolumeFlow;

use crate::elements::Element;
use crate::error::HydraulicError;
use crate::layout::ManifoldPlan;
use crate::network::BranchData;
use crate::{SolveOptions, SolverContext};

/// Ratio of the largest to the smallest loop flow (`>= 1`, 1 is perfectly
/// balanced); `None` for an empty slice — there is no meaningful spread
/// of zero loops, and folding from `f64::MIN`/`f64::MAX` would invent
/// one.
#[must_use]
pub fn spread(flows: &[VolumeFlow]) -> Option<f64> {
    let (first, rest) = flows.split_first()?;
    let mut max = first.cubic_meters_per_second();
    let mut min = max;
    for q in rest {
        let q = q.cubic_meters_per_second();
        max = max.max(q);
        min = min.min(q);
    }
    Some(if min <= 0.0 { f64::INFINITY } else { max / min })
}

/// Coefficient of variation (standard deviation over mean) of loop
/// flows; `None` for an empty slice.
#[must_use]
pub fn coefficient_of_variation(flows: &[VolumeFlow]) -> Option<f64> {
    if flows.is_empty() {
        return None;
    }
    let xs: Vec<f64> = flows.iter().map(|q| q.cubic_meters_per_second()).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return Some(0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt() / mean)
}

/// Report of an auto-trim run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimReport {
    /// Spread of the surviving loops' flows before trimming.
    pub spread_before: f64,
    /// Spread of the surviving loops' flows after trimming.
    pub spread_after: f64,
    /// Trim rounds used: valve adjustments, each followed by a re-solve.
    pub rounds: usize,
    /// Final valve openings per loop, in rack order, as the network
    /// holds them.
    pub openings: Vec<f64>,
}

/// Smallest opening the trim sets: a valve pinched further is as good
/// as shut and makes the manifold stiff to solve.
const MIN_OPENING: f64 = 0.05;

/// Trims the balancing valves of a manifold plan until the flow spread
/// of its surviving loops falls to `target_spread` or `max_rounds` trim
/// rounds are spent. Either way it returns the last state, which is the
/// state the network holds.
///
/// Each round takes every open loop's solved flow q_i and drop Δp_i,
/// and aims it at the smallest surviving flow q_t: the valve must take
/// Δp_i minus the loop's non-valve drop at q_t. Under the valve law
/// K = k_open / opening² the valve's drop scales as 1/opening², so the
/// new opening is the current one times √(valve drop at q_t / that
/// share), clamped to [0.05, 1]. Where that is not finite and positive
/// the loop keeps its opening for the round. A loop closed with
/// [`ManifoldPlan::fail_loop`] is left out of the spread and the
/// target, and its valve keeps its opening. A plan that already meets
/// the target uses no rounds.
///
/// # Errors
///
/// [`HydraulicError::MissingValve`] names the first loop that carries
/// no [`Valve`](crate::Valve), as in a plan built with
/// `balancing_valves: false`; it is returned before any solve. A loop
/// branch foreign to the network is [`HydraulicError::UnknownBranch`].
/// Solver failures propagate.
pub fn auto_trim(
    plan: &mut ManifoldPlan,
    fluid: &FluidState,
    target_spread: f64,
    max_rounds: usize,
) -> Result<TrimReport, HydraulicError> {
    let mut openings = (0..plan.loop_count())
        .map(|i| valve_opening(plan, i))
        .collect::<Result<Vec<_>, _>>()?;

    // Valve trims keep the incidence structure, so every round reuses
    // one solver context: the sparse schedule is analyzed once and each
    // round warm-starts from the previous round's flows.
    let mut ctx = plan.network.solver_context();
    let (mut flows, mut survivors) = solve_loop_flows(plan, fluid, &mut ctx)?;
    // a plan with no surviving loops is trivially balanced
    let spread_before = spread(&survivors).unwrap_or(1.0);
    let mut spread_after = spread_before;
    let mut rounds = 0;
    while spread_after > target_spread && rounds < max_rounds {
        let q_t = survivors.iter().copied().fold(
            VolumeFlow::from_cubic_meters_per_second(f64::INFINITY),
            VolumeFlow::min,
        );
        // `solve_loop_flows` drops each solution once its flows are
        // read, so these writes find the branch list unshared and copy
        // nothing.
        for (i, &b) in plan.loop_branches.iter().enumerate() {
            if !plan.network.branch_is_open(b)? {
                continue;
            }
            let branch = &plan.network.branches[b.0];
            if let Some(opening) = valve_law_opening(branch, openings[i], flows[i], q_t, fluid) {
                openings[i] = opening.clamp(MIN_OPENING, 1.0);
                plan.network.set_valve_opening(b, openings[i])?;
            }
        }
        rounds += 1;
        (flows, survivors) = solve_loop_flows(plan, fluid, &mut ctx)?;
        spread_after = spread(&survivors).unwrap_or(1.0);
    }
    Ok(TrimReport {
        spread_before,
        spread_after,
        rounds,
        openings,
    })
}

/// The valve opening of loop `loop_index`, as the network holds it.
fn valve_opening(plan: &ManifoldPlan, loop_index: usize) -> Result<f64, HydraulicError> {
    let b = plan.loop_branches[loop_index];
    plan.network
        .branches
        .get(b.0)
        .ok_or(HydraulicError::UnknownBranch { index: b.0 })?
        .elements
        .iter()
        .find_map(|e| match e {
            Element::Valve(v) => Some(v.opening),
            _ => None,
        })
        .ok_or(HydraulicError::MissingValve { loop_index })
}

/// Solves the plan's network through `ctx` and returns its loop flows
/// and its surviving loops' flows, dropping the solution.
fn solve_loop_flows(
    plan: &ManifoldPlan,
    fluid: &FluidState,
    ctx: &mut SolverContext,
) -> Result<(Vec<VolumeFlow>, Vec<VolumeFlow>), HydraulicError> {
    let sol =
        plan.network
            .solve_with_ladder(fluid, &SolveOptions::ladder(), ctx, Sinks::disabled())?;
    Ok((plan.loop_flows(&sol), plan.surviving_loop_flows(&sol)))
}

/// The opening at which `branch`'s valves, at `opening` and solved at
/// flow `q_i`, pass `q_t` through the same pressure drop: they must
/// take the branch's drop at `q_i` less the other elements' drop at
/// `q_t`, and a valve's drop scales as 1/opening². `None` where the
/// result is not finite and positive.
fn valve_law_opening(
    branch: &BranchData,
    opening: f64,
    q_i: VolumeFlow,
    q_t: VolumeFlow,
    fluid: &FluidState,
) -> Option<f64> {
    let (mut valves, mut others) = (0.0, 0.0);
    for e in &branch.elements {
        let drop = e.pressure_drop(q_t, fluid).pascals();
        match e {
            Element::Valve(_) => valves += drop,
            _ => others += drop,
        }
    }
    let share = branch.pressure_drop(q_i, fluid).pascals() - others;
    let opening = opening * (valves / share).sqrt();
    (opening.is_finite() && opening > 0.0).then_some(opening)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{rack_manifold_with, ManifoldParams, ReturnStyle};
    use rcs_fluids::Coolant;
    use rcs_units::{Celsius, Length, Pressure};

    fn water() -> FluidState {
        Coolant::water().state(Celsius::new(20.0))
    }

    /// A valved direct-return rack sized the way the rack-sizing
    /// benchmark sizes one: the header grows as √(n/6) from 50 mm and
    /// the pump delivers 150 L/min per loop against 180 kPa shutoff.
    fn sized_rack(n: usize) -> ManifoldPlan {
        let params = ManifoldParams {
            manifold_diameter: Length::millimeters(50.0 * (n as f64 / 6.0).sqrt().max(1.0)),
            pump_shutoff: Pressure::kilopascals(180.0),
            pump_max_flow: VolumeFlow::liters_per_minute(150.0 * n as f64),
            balancing_valves: true,
            ..ManifoldParams::default()
        };
        rack_manifold_with(n, ReturnStyle::Direct, &params)
    }

    /// Every loop valve's opening as the network holds it.
    fn network_openings(plan: &ManifoldPlan) -> Vec<f64> {
        (0..plan.loop_count())
            .map(|i| valve_opening(plan, i).expect("valved rack"))
            .collect()
    }

    #[test]
    fn spread_of_equal_flows_is_one() {
        let flows = vec![VolumeFlow::liters_per_minute(40.0); 5];
        assert!((spread(&flows).unwrap() - 1.0).abs() < 1e-12);
        assert!(coefficient_of_variation(&flows).unwrap() < 1e-12);
    }

    #[test]
    fn spread_detects_imbalance() {
        let flows = vec![
            VolumeFlow::liters_per_minute(60.0),
            VolumeFlow::liters_per_minute(40.0),
        ];
        assert!((spread(&flows).unwrap() - 1.5).abs() < 1e-12);
        assert!(coefficient_of_variation(&flows).unwrap() > 0.19);
    }

    #[test]
    fn spread_is_infinite_with_a_dead_loop() {
        let flows = vec![VolumeFlow::liters_per_minute(60.0), VolumeFlow::ZERO];
        assert!(spread(&flows).unwrap().is_infinite());
    }

    #[test]
    fn empty_flow_sets_have_no_metrics() {
        assert_eq!(spread(&[]), None);
        assert_eq!(coefficient_of_variation(&[]), None);
    }

    #[test]
    fn auto_trim_balances_a_direct_return_rack() {
        let params = ManifoldParams {
            balancing_valves: true,
            ..ManifoldParams::default()
        };
        let mut plan = rack_manifold_with(6, ReturnStyle::Direct, &params);
        let water = Coolant::water().state(Celsius::new(20.0));
        let report = auto_trim(&mut plan, &water, 1.03, 40).unwrap();
        assert!(
            report.spread_before > 1.1,
            "before = {}",
            report.spread_before
        );
        assert!(
            report.spread_after <= 1.03,
            "after = {}",
            report.spread_after
        );
        // the near (over-served) loop ends up pinched hardest
        assert!(report.openings[0] < report.openings[5]);
    }

    #[test]
    fn the_openings_reported_are_the_openings_the_network_holds() {
        let mut plan = sized_rack(12);
        let report = auto_trim(&mut plan, &water(), 1.02, 60).unwrap();
        assert!(report.rounds > 0);
        let held = network_openings(&plan);
        assert_eq!(held.len(), report.openings.len());
        for (i, (h, r)) in held.iter().zip(&report.openings).enumerate() {
            assert_eq!(
                h.to_bits(),
                r.to_bits(),
                "loop {i}: network {h} vs report {r}"
            );
        }
    }

    #[test]
    fn spread_after_is_what_a_cold_solve_of_the_trimmed_plan_gives() {
        let mut plan = sized_rack(16);
        let report = auto_trim(&mut plan, &water(), 1.02, 60).unwrap();
        let cold = spread(&plan.loop_flows(&plan.network.solve(&water()).unwrap())).unwrap();
        let rel = (cold - report.spread_after).abs() / report.spread_after;
        assert!(
            rel <= 1e-6,
            "cold {cold} vs reported {} ({rel:e})",
            report.spread_after
        );
        assert!(report.spread_after <= 1.02);
    }

    #[test]
    fn an_unreachable_target_spends_exactly_the_round_budget() {
        let mut plan = sized_rack(6);
        let report = auto_trim(&mut plan, &water(), 1.0, 2).unwrap();
        assert_eq!(report.rounds, 2);
        assert!(report.spread_after > 1.0);
        assert!(report.spread_after < report.spread_before);
    }

    #[test]
    fn inverting_the_valve_law_balances_any_rack_in_a_few_rounds() {
        let mut rounds = Vec::new();
        for n in 1..=32 {
            let mut plan = sized_rack(n);
            let report = auto_trim(&mut plan, &water(), 1.02, 60).unwrap();
            assert!(report.spread_after <= 1.02, "n={n}: {report:?}");
            assert!(report.rounds <= 5, "n={n}: {} rounds", report.rounds);
            rounds.push(report.rounds as f64);
        }
        let mean = rounds.iter().sum::<f64>() / rounds.len() as f64;
        assert!(mean <= 3.0, "mean rounds {mean}: {rounds:?}");
    }

    #[test]
    fn a_closed_loop_is_left_out_of_the_trim() {
        let mut plan = sized_rack(6);
        plan.fail_loop(2).unwrap();
        let report = auto_trim(&mut plan, &water(), 1.02, 60).unwrap();
        assert!(report.spread_before.is_finite(), "{report:?}");
        assert!(report.spread_after.is_finite() && report.spread_after <= 1.02);
        assert!(report.rounds <= 3, "{report:?}");
        for (i, o) in report.openings.iter().enumerate() {
            if i == 2 {
                // the failed loop's valve is never touched
                assert_eq!(*o, 1.0);
            } else {
                assert!(*o > MIN_OPENING, "survivor {i} pinched to the floor: {o}");
            }
        }
        assert_eq!(network_openings(&plan), report.openings);
    }

    #[test]
    fn a_plan_without_valves_is_a_typed_error() {
        let params = ManifoldParams::default();
        let mut plan = rack_manifold_with(6, ReturnStyle::Direct, &params);
        let before = plan.network.branches.clone();
        let err = auto_trim(&mut plan, &water(), 1.02, 60).unwrap_err();
        assert_eq!(err, HydraulicError::MissingValve { loop_index: 0 });
        assert!(err.to_string().contains("loop 0"), "{err}");
        // nothing was set: the branch list is still the one built
        assert!(std::sync::Arc::ptr_eq(&before, &plan.network.branches));
    }
}
