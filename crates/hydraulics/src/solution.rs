//! Solved flow distribution of a hydraulic network.

use rcs_units::{Power, VolumeFlow};

use crate::elements::Element;
use crate::network::{BranchId, HydraulicNetwork, JunctionId};

/// The result of [`HydraulicNetwork::solve`]: signed branch flows on the
/// solved network.
#[derive(Debug, Clone)]
pub struct HydraulicSolution {
    pub(crate) network: HydraulicNetwork,
    flows: Vec<f64>,
    iterations: usize,
    residual: f64,
}

impl HydraulicSolution {
    pub(crate) fn new(
        network: HydraulicNetwork,
        flows: Vec<f64>,
        iterations: usize,
        residual: f64,
    ) -> Self {
        Self {
            network,
            flows,
            iterations,
            residual,
        }
    }

    /// Flow through a branch, positive in its `from → to` direction.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    #[must_use]
    pub fn flow(&self, branch: BranchId) -> VolumeFlow {
        VolumeFlow::from_cubic_meters_per_second(self.flows[branch.0])
    }

    /// All branch flows, indexed by branch id.
    #[must_use]
    pub fn flows(&self) -> Vec<VolumeFlow> {
        self.flows
            .iter()
            .map(|&q| VolumeFlow::from_cubic_meters_per_second(q))
            .collect()
    }

    /// Newton iterations used.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Worst junction continuity residual at convergence.
    #[must_use]
    pub(crate) fn worst_residual_m3s(&self) -> f64 {
        self.residual
    }

    /// Net volumetric imbalance at a junction (should be ~0).
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    #[must_use]
    pub fn continuity_residual(&self, junction: JunctionId) -> VolumeFlow {
        let mut total = 0.0;
        for (k, b) in self.network.branches.iter().enumerate() {
            if b.from == junction {
                total -= self.flows[k];
            }
            if b.to == junction {
                total += self.flows[k];
            }
        }
        VolumeFlow::from_cubic_meters_per_second(total)
    }

    /// Total hydraulic power delivered by all pumps at the solved flows.
    #[must_use]
    pub fn total_pump_power(&self) -> Power {
        let mut total = Power::ZERO;
        for (k, b) in self.network.branches.iter().enumerate() {
            if !b.open {
                continue;
            }
            let q = VolumeFlow::from_cubic_meters_per_second(self.flows[k]);
            for e in &b.elements {
                if let Element::Pump(p) = e {
                    total += p.hydraulic_power(q);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Pipe, PumpCurve};
    use rcs_fluids::Coolant;
    use rcs_units::{Celsius, Length, Pressure};

    #[test]
    fn pump_power_matches_dp_times_q() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let loop_b = net
            .add_branch(
                "pipe",
                a,
                b,
                vec![Element::Pipe(Pipe::smooth(
                    Length::from_meters(15.0),
                    Length::millimeters(25.0),
                ))],
            )
            .unwrap();
        net.add_branch(
            "pump",
            b,
            a,
            vec![Element::Pump(PumpCurve::new(
                Pressure::kilopascals(40.0),
                VolumeFlow::liters_per_minute(150.0),
            ))],
        )
        .unwrap();
        let water = Coolant::water().state(Celsius::new(20.0));
        let sol = net.solve(&water).unwrap();
        let q = sol.flow(loop_b);
        let p = PumpCurve::new(
            Pressure::kilopascals(40.0),
            VolumeFlow::liters_per_minute(150.0),
        );
        let expected = p.pressure_gain(q) * q;
        assert!((sol.total_pump_power().watts() - expected.watts()).abs() < 1e-9);
        assert!(sol.total_pump_power().watts() > 0.0);
        assert!(sol.iterations() > 0);
        assert!(sol.worst_residual_m3s() < 1e-8);
    }
}
