//! Manifold layouts for a rack of computational modules (Fig. 5).
//!
//! The paper's §4 engineering contribution: connect the circulation loops
//! of all computational modules to the supply and return manifolds so that
//! "the closed trajectory of the heat-transfer agent flow is similar for
//! all loops" — the **reverse-return** (Tichelmann) arrangement — making
//! hydraulic balancing automatic, with no balancing-valve subsystem. The
//! conventional **direct-return** arrangement, where the return manifold
//! exits on the same end as the supply enters, is the baseline it is
//! compared against.

use rcs_units::{Length, Pressure, VolumeFlow};

use crate::elements::{Element, Pipe, PumpCurve, Valve};
use crate::error::HydraulicError;
use crate::network::{BranchId, HydraulicNetwork};
use crate::solution::HydraulicSolution;

/// Which end of the return manifold the heated agent leaves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReturnStyle {
    /// Return manifold exits next to the supply inlet: loop path lengths
    /// differ, near loops are favored.
    Direct,
    /// Return manifold exits at the far end (Tichelmann/reverse return):
    /// every loop sees the same total path, self-balancing the flows.
    Reverse,
}

impl core::fmt::Display for ReturnStyle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Direct => "direct return",
            Self::Reverse => "reverse return",
        })
    }
}

/// Geometry and equipment parameters for a rack manifold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManifoldParams {
    /// Manifold pipe internal diameter.
    pub manifold_diameter: Length,
    /// Manifold segment length between adjacent module taps.
    pub segment_length: Length,
    /// Minor-loss coefficient of each manifold tee/segment.
    pub segment_k: f64,
    /// Loop (module umbilical) pipe diameter.
    pub loop_diameter: Length,
    /// Total loop pipe length (supply + return hose).
    pub loop_length: Length,
    /// Minor-loss coefficient of the module's plate heat exchanger.
    pub exchanger_k: f64,
    /// Whether each loop carries a balancing valve.
    pub balancing_valves: bool,
    /// Central pump shutoff pressure.
    pub pump_shutoff: Pressure,
    /// Central pump zero-head flow.
    pub pump_max_flow: VolumeFlow,
    /// Minor-loss coefficient of the chiller passage (at manifold
    /// diameter).
    pub chiller_k: f64,
}

impl Default for ManifoldParams {
    /// Parameters sized for a 47U rack of 3U computational modules: a
    /// 50 mm steel manifold with 0.5 m between taps, 20 mm module
    /// umbilicals, and a pump sized for ~60 L/min per module.
    fn default() -> Self {
        Self {
            manifold_diameter: Length::millimeters(50.0),
            segment_length: Length::from_meters(0.5),
            segment_k: 1.2,
            loop_diameter: Length::millimeters(20.0),
            loop_length: Length::from_meters(3.0),
            exchanger_k: 6.0,
            balancing_valves: false,
            pump_shutoff: Pressure::kilopascals(120.0),
            pump_max_flow: VolumeFlow::liters_per_minute(600.0),
            chiller_k: 4.0,
        }
    }
}

/// A built manifold network plus the handles needed to interrogate and
/// perturb it.
#[derive(Debug, Clone)]
pub struct ManifoldPlan {
    /// The underlying network (mutable: close loops, trim valves).
    pub network: HydraulicNetwork,
    /// One branch per computational-module circulation loop, in rack
    /// order (index 0 is nearest the supply inlet).
    pub loop_branches: Vec<BranchId>,
    /// The main branch containing chiller and pump.
    pub main_branch: BranchId,
    /// The layout style this plan was built with.
    pub style: ReturnStyle,
}

impl ManifoldPlan {
    /// Per-loop flows of a solution, in rack order.
    #[must_use]
    pub fn loop_flows(&self, solution: &HydraulicSolution) -> Vec<VolumeFlow> {
        self.loop_branches
            .iter()
            .map(|&b| solution.flow(b))
            .collect()
    }

    /// Per-loop flows excluding closed (failed) loops.
    #[must_use]
    pub fn surviving_loop_flows(&self, solution: &HydraulicSolution) -> Vec<VolumeFlow> {
        self.loop_branches
            .iter()
            .filter(|&&b| self.network.branch_is_open(b).unwrap_or(false))
            .map(|&b| solution.flow(b))
            .collect()
    }

    /// Closes the circulation loop of module `index` (failure injection /
    /// module servicing).
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::UnknownBranch`] for an out-of-range index.
    pub fn fail_loop(&mut self, index: usize) -> Result<(), HydraulicError> {
        let id = *self
            .loop_branches
            .get(index)
            .ok_or(HydraulicError::UnknownBranch { index })?;
        self.network.set_branch_open(id, false)
    }

    /// Number of module loops.
    #[must_use]
    pub(crate) fn loop_count(&self) -> usize {
        self.loop_branches.len()
    }
}

/// Builds a rack manifold with `n_loops` computational-module loops using
/// default parameters.
///
/// # Panics
///
/// Panics if `n_loops == 0`.
#[must_use]
pub fn rack_manifold(n_loops: usize, style: ReturnStyle) -> ManifoldPlan {
    rack_manifold_with(n_loops, style, &ManifoldParams::default())
}

/// Builds a rack manifold with explicit parameters.
///
/// The topology follows Fig. 5: the pump feeds the supply manifold inlet;
/// taps along the supply manifold feed each module loop (heat exchanger +
/// umbilical pipes, optionally a balancing valve); loops discharge into
/// the return manifold; the return manifold exits either at the near end
/// (direct) or far end (reverse) into the chiller-and-pump main line.
///
/// # Panics
///
/// Panics if `n_loops == 0`.
#[must_use]
pub fn rack_manifold_with(
    n_loops: usize,
    style: ReturnStyle,
    params: &ManifoldParams,
) -> ManifoldPlan {
    assert!(n_loops > 0, "a rack manifold needs at least one loop");
    let mut net = HydraulicNetwork::new();

    let supply: Vec<_> = (0..n_loops)
        .map(|i| net.add_junction(format!("supply[{i}]")))
        .collect();
    let ret: Vec<_> = (0..n_loops)
        .map(|i| net.add_junction(format!("return[{i}]")))
        .collect();

    let manifold_segment = || {
        vec![
            Element::Pipe(Pipe {
                length: params.segment_length,
                diameter: params.manifold_diameter,
                roughness: Length::from_meters(45e-6),
            }),
            Element::MinorLoss {
                k: params.segment_k,
                diameter: params.manifold_diameter,
            },
        ]
    };

    // Supply manifold: inlet at supply[0], flowing toward supply[n-1].
    for i in 0..n_loops.saturating_sub(1) {
        net.add_branch(
            format!("supply seg {i}"),
            supply[i],
            supply[i + 1],
            manifold_segment(),
        )
        .expect("valid by construction");
    }
    // Return manifold: direction depends on style.
    match style {
        ReturnStyle::Direct => {
            // flows back toward return[0]
            for i in (1..n_loops).rev() {
                net.add_branch(
                    format!("return seg {i}"),
                    ret[i],
                    ret[i - 1],
                    manifold_segment(),
                )
                .expect("valid by construction");
            }
        }
        ReturnStyle::Reverse => {
            // flows onward toward return[n-1]
            for i in 0..n_loops.saturating_sub(1) {
                net.add_branch(
                    format!("return seg {i}"),
                    ret[i],
                    ret[i + 1],
                    manifold_segment(),
                )
                .expect("valid by construction");
            }
        }
    }

    // Module loops.
    let mut loop_branches = Vec::with_capacity(n_loops);
    for i in 0..n_loops {
        let mut elements = vec![
            Element::Pipe(Pipe::smooth(params.loop_length, params.loop_diameter)),
            Element::MinorLoss {
                k: params.exchanger_k,
                diameter: params.loop_diameter,
            },
        ];
        if params.balancing_valves {
            elements.push(Element::Valve(Valve::balancing(params.loop_diameter)));
        }
        let id = net
            .add_branch(format!("module loop {i}"), supply[i], ret[i], elements)
            .expect("valid by construction");
        loop_branches.push(id);
    }

    // Main line: return outlet -> chiller -> pump -> supply inlet.
    let outlet = match style {
        ReturnStyle::Direct => ret[0],
        ReturnStyle::Reverse => ret[n_loops - 1],
    };
    let main_branch = net
        .add_branch(
            "main (chiller + pump)",
            outlet,
            supply[0],
            vec![
                Element::MinorLoss {
                    k: params.chiller_k,
                    diameter: params.manifold_diameter,
                },
                Element::Pipe(Pipe {
                    length: Length::from_meters(4.0),
                    diameter: params.manifold_diameter,
                    roughness: Length::from_meters(45e-6),
                }),
                Element::Pump(PumpCurve::new(params.pump_shutoff, params.pump_max_flow)),
            ],
        )
        .expect("valid by construction");

    ManifoldPlan {
        network: net,
        loop_branches,
        main_branch,
        style,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance;
    use rcs_fluids::Coolant;
    use rcs_units::Celsius;

    fn water() -> rcs_fluids::FluidState {
        Coolant::water().state(Celsius::new(20.0))
    }

    #[test]
    fn reverse_return_is_nearly_balanced() {
        let plan = rack_manifold(6, ReturnStyle::Reverse);
        let sol = plan.network.solve(&water()).unwrap();
        let flows = plan.loop_flows(&sol);
        let spread = balance::spread(&flows).unwrap();
        assert!(spread < 1.10, "reverse-return spread = {spread}");
    }

    #[test]
    fn direct_return_is_visibly_unbalanced() {
        let plan = rack_manifold(6, ReturnStyle::Direct);
        let sol = plan.network.solve(&water()).unwrap();
        let flows = plan.loop_flows(&sol);
        let spread = balance::spread(&flows).unwrap();
        assert!(spread > 1.15, "direct-return spread = {spread}");
        // and the near loop wins
        assert!(flows[0] > flows[5]);
    }

    #[test]
    fn reverse_beats_direct_for_any_loop_count() {
        for n in [2, 4, 6, 8, 12] {
            let direct = rack_manifold(n, ReturnStyle::Direct);
            let reverse = rack_manifold(n, ReturnStyle::Reverse);
            let sd = balance::spread(&direct.loop_flows(&direct.network.solve(&water()).unwrap()))
                .unwrap();
            let sr =
                balance::spread(&reverse.loop_flows(&reverse.network.solve(&water()).unwrap()))
                    .unwrap();
            assert!(sr < sd, "n={n}: reverse {sr} !< direct {sd}");
        }
    }

    #[test]
    fn loop_failure_redistributes_evenly_in_reverse_return() {
        let mut plan = rack_manifold(6, ReturnStyle::Reverse);
        let before = plan.network.solve(&water()).unwrap();
        let before_flows = plan.loop_flows(&before);
        plan.fail_loop(2).unwrap();
        let after = plan.network.solve(&water()).unwrap();
        let survivors = plan.surviving_loop_flows(&after);
        assert_eq!(survivors.len(), 5);
        // survivors stay balanced
        let spread = balance::spread(&survivors).unwrap();
        assert!(spread < 1.10, "post-failure spread = {spread}");
        // and they all gained a little flow
        for (i, q) in plan.loop_flows(&after).iter().enumerate() {
            if i == 2 {
                assert_eq!(q.cubic_meters_per_second(), 0.0);
            } else {
                assert!(*q > before_flows[i]);
            }
        }
    }

    #[test]
    fn per_loop_flow_is_in_a_sane_range() {
        let plan = rack_manifold(6, ReturnStyle::Reverse);
        let sol = plan.network.solve(&water()).unwrap();
        for q in plan.loop_flows(&sol) {
            let lpm = q.as_liters_per_minute();
            assert!(lpm > 20.0 && lpm < 120.0, "loop flow {lpm} L/min");
        }
    }

    #[test]
    fn main_branch_carries_the_sum_of_loops() {
        let plan = rack_manifold(5, ReturnStyle::Reverse);
        let sol = plan.network.solve(&water()).unwrap();
        let total: f64 = plan
            .loop_flows(&sol)
            .iter()
            .map(|q| q.cubic_meters_per_second())
            .sum();
        let main = sol.flow(plan.main_branch).cubic_meters_per_second();
        assert!((total - main).abs() < 1e-8, "loops {total} vs main {main}");
    }
}
