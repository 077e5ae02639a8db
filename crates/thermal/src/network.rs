//! Lumped thermal resistance networks and their steady-state solution.

use rcs_numeric::Matrix;
use rcs_units::{Celsius, Power, ThermalResistance};

use crate::error::ThermalError;

/// Handle to a node in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Handle to a resistor in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResistorId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    /// Unknown temperature, solved for. Capacitance (J/K) enables transient
    /// integration.
    Internal { capacitance_j_per_k: Option<f64> },
    /// Imposed temperature.
    Boundary { temperature: Celsius },
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) heat: Power,
}

#[derive(Debug, Clone)]
pub(crate) struct ResistorData {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) resistance: ThermalResistance,
}

/// A lumped thermal network: nodes connected by thermal resistances, with
/// heat sources on internal nodes and imposed temperatures on boundary
/// nodes.
///
/// # Examples
///
/// One chip dissipating into a coolant boundary through a 0.3 K/W path:
///
/// ```
/// use rcs_thermal::ThermalNetwork;
/// use rcs_units::{Celsius, Power, ThermalResistance};
///
/// let mut net = ThermalNetwork::new();
/// let junction = net.add_node("junction");
/// let coolant = net.add_boundary("coolant", Celsius::new(30.0));
/// net.connect(junction, coolant, ThermalResistance::from_kelvin_per_watt(0.3))?;
/// net.add_heat(junction, Power::from_watts(100.0))?;
///
/// let solution = net.solve_steady()?;
/// assert!((solution.temperature(junction).degrees() - 60.0).abs() < 1e-9);
/// # Ok::<(), rcs_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThermalNetwork {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) resistors: Vec<ResistorData>,
}

impl ThermalNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an internal (solved-for) node without heat capacitance.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(NodeData {
            name: name.into(),
            kind: NodeKind::Internal {
                capacitance_j_per_k: None,
            },
            heat: Power::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds an internal node carrying a heat capacitance in J/K, enabling
    /// transient integration.
    pub fn add_node_with_capacitance(
        &mut self,
        name: impl Into<String>,
        capacitance_j_per_k: f64,
    ) -> NodeId {
        self.nodes.push(NodeData {
            name: name.into(),
            kind: NodeKind::Internal {
                capacitance_j_per_k: Some(capacitance_j_per_k),
            },
            heat: Power::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a boundary node with an imposed temperature.
    pub fn add_boundary(&mut self, name: impl Into<String>, temperature: Celsius) -> NodeId {
        self.nodes.push(NodeData {
            name: name.into(),
            kind: NodeKind::Boundary { temperature },
            heat: Power::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Changes the imposed temperature of a boundary node.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for a foreign id and
    /// [`ThermalError::HeatOnBoundary`]-style misuse is prevented by only
    /// accepting boundary nodes (internal nodes return `UnknownNode`).
    pub fn set_boundary_temperature(
        &mut self,
        node: NodeId,
        temperature: Celsius,
    ) -> Result<(), ThermalError> {
        let data = self
            .nodes
            .get_mut(node.0)
            .ok_or(ThermalError::UnknownNode { index: node.0 })?;
        match &mut data.kind {
            NodeKind::Boundary { temperature: t } => {
                *t = temperature;
                Ok(())
            }
            NodeKind::Internal { .. } => Err(ThermalError::UnknownNode { index: node.0 }),
        }
    }

    /// Connects two nodes with a thermal resistance.
    ///
    /// # Errors
    ///
    /// Rejects unknown ids, self-loops and non-positive resistances.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        resistance: ThermalResistance,
    ) -> Result<ResistorId, ThermalError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(ThermalError::SelfLoop { index: a.0 });
        }
        if resistance.kelvin_per_watt() <= 0.0 {
            return Err(ThermalError::NonPositiveParameter {
                parameter: "resistance",
            });
        }
        self.resistors.push(ResistorData { a, b, resistance });
        Ok(ResistorId(self.resistors.len() - 1))
    }

    /// Replaces the resistance of an existing resistor (used by coupled
    /// solvers whose convection coefficients change between iterations).
    ///
    /// # Errors
    ///
    /// Rejects unknown resistor ids and non-positive resistances.
    pub fn set_resistance(
        &mut self,
        resistor: ResistorId,
        resistance: ThermalResistance,
    ) -> Result<(), ThermalError> {
        if resistance.kelvin_per_watt() <= 0.0 {
            return Err(ThermalError::NonPositiveParameter {
                parameter: "resistance",
            });
        }
        let r = self
            .resistors
            .get_mut(resistor.0)
            .ok_or(ThermalError::UnknownNode { index: resistor.0 })?;
        r.resistance = resistance;
        Ok(())
    }

    /// Adds heat generation to an internal node (accumulates).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::HeatOnBoundary`] if the node is a boundary.
    pub fn add_heat(&mut self, node: NodeId, power: Power) -> Result<(), ThermalError> {
        let data = self
            .nodes
            .get_mut(node.0)
            .ok_or(ThermalError::UnknownNode { index: node.0 })?;
        if matches!(data.kind, NodeKind::Boundary { .. }) {
            return Err(ThermalError::HeatOnBoundary {
                node: data.name.clone(),
            });
        }
        data.heat += power;
        Ok(())
    }

    /// Number of nodes (internal + boundary).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total heat injected into the network.
    #[must_use]
    pub fn total_heat(&self) -> Power {
        self.nodes.iter().map(|n| n.heat).sum()
    }

    fn check_node(&self, n: NodeId) -> Result<(), ThermalError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(ThermalError::UnknownNode { index: n.0 })
        }
    }

    /// Solves the steady-state temperature field.
    ///
    /// Assembles nodal conductance equations for every internal node and
    /// solves the dense linear system.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::FloatingNetwork`] when a heated component has
    /// no path to any boundary (the matrix is singular), and propagates
    /// numeric failures.
    pub fn solve_steady(&self) -> Result<SteadySolution, ThermalError> {
        let internal: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Internal { .. }))
            .map(|(i, _)| i)
            .collect();
        let index_of: std::collections::HashMap<usize, usize> = internal
            .iter()
            .enumerate()
            .map(|(row, &node)| (node, row))
            .collect();

        let n = internal.len();
        let mut temperatures: Vec<Celsius> = self
            .nodes
            .iter()
            .map(|node| match node.kind {
                NodeKind::Boundary { temperature } => temperature,
                NodeKind::Internal { .. } => Celsius::new(0.0),
            })
            .collect();

        if n > 0 {
            let mut a = Matrix::zeros(n, n);
            let mut rhs = vec![0.0; n];
            for (row, &node) in internal.iter().enumerate() {
                rhs[row] = self.nodes[node].heat.watts();
            }
            for r in &self.resistors {
                let g = 1.0 / r.resistance.kelvin_per_watt();
                let (ia, ib) = (r.a.0, r.b.0);
                match (index_of.get(&ia), index_of.get(&ib)) {
                    (Some(&ra), Some(&rb)) => {
                        a[(ra, ra)] += g;
                        a[(rb, rb)] += g;
                        a[(ra, rb)] -= g;
                        a[(rb, ra)] -= g;
                    }
                    (Some(&ra), None) => {
                        a[(ra, ra)] += g;
                        rhs[ra] += g * temperatures[ib].degrees();
                    }
                    (None, Some(&rb)) => {
                        a[(rb, rb)] += g;
                        rhs[rb] += g * temperatures[ia].degrees();
                    }
                    (None, None) => {}
                }
            }
            // Isolated internal nodes (no resistor at all) have a zero row.
            // Unheated ones are harmless — pin them to 0 °C rather than
            // failing the whole solve; heated ones are a genuine floating
            // network.
            for row in 0..n {
                if a[(row, row)] == 0.0 {
                    let only_diagonal = (0..n).all(|c| c == row || a[(row, c)] == 0.0);
                    if only_diagonal {
                        if rhs[row] != 0.0 {
                            return Err(ThermalError::FloatingNetwork);
                        }
                        a[(row, row)] = 1.0;
                    }
                }
            }
            let solved = a.solve(&rhs).map_err(|e| match e {
                rcs_numeric::NumericError::SingularMatrix { .. } => ThermalError::FloatingNetwork,
                other => ThermalError::Numeric(other),
            })?;
            for (row, &node) in internal.iter().enumerate() {
                temperatures[node] = Celsius::new(solved[row]);
            }
        }

        let flows = self
            .resistors
            .iter()
            .map(|r| (temperatures[r.a.0] - temperatures[r.b.0]) / r.resistance)
            .collect();

        Ok(SteadySolution {
            temperatures,
            flows,
            network: self.clone(),
        })
    }
}

/// Result of a steady-state solve: per-node temperatures and per-resistor
/// heat flows.
#[derive(Debug, Clone)]
pub struct SteadySolution {
    temperatures: Vec<Celsius>,
    flows: Vec<Power>,
    network: ThermalNetwork,
}

impl SteadySolution {
    /// Temperature of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the solved network.
    #[must_use]
    pub fn temperature(&self, node: NodeId) -> Celsius {
        self.temperatures[node.0]
    }

    /// Heat flow through a resistor, positive from its first to its second
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the solved network.
    #[must_use]
    pub fn flow(&self, resistor: ResistorId) -> Power {
        self.flows[resistor.0]
    }

    /// The hottest node and its temperature.
    ///
    /// Returns `None` for an empty network.
    ///
    /// # Panics
    ///
    /// Panics if any solved node temperature is non-finite — a NaN here
    /// means an upstream solver bug, and silently ranking it as
    /// "hottest" (or not) would forward garbage to the safety logic
    /// that consumes this readout.
    #[must_use]
    pub fn hottest(&self) -> Option<(NodeId, Celsius)> {
        self.temperatures
            .iter()
            .enumerate()
            .max_by(|a, b| {
                let (ta, tb) = (a.1.degrees(), b.1.degrees());
                assert!(
                    ta.is_finite() && tb.is_finite(),
                    "non-finite node temperature in solved network: \
                     node {} = {ta} C, node {} = {tb} C",
                    a.0,
                    b.0
                );
                ta.total_cmp(&tb)
            })
            .map(|(i, &t)| (NodeId(i), t))
    }

    /// Net heat absorbed by a boundary node (positive into the boundary).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the solved network.
    #[must_use]
    pub fn boundary_heat(&self, node: NodeId) -> Power {
        let mut total = Power::ZERO;
        for (r, &flow) in self.network.resistors.iter().zip(&self.flows) {
            if r.a == node {
                total -= flow;
            }
            if r.b == node {
                total += flow;
            }
        }
        total
    }

    /// Energy-balance residual: injected heat minus heat absorbed by all
    /// boundaries. Should be ~0 for a correct solve.
    #[must_use]
    pub fn energy_residual(&self) -> Power {
        let absorbed: Power = self
            .network
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Boundary { .. }))
            .map(|(i, _)| self.boundary_heat(NodeId(i)))
            .sum();
        self.network.total_heat() - absorbed
    }

    /// Iterates over `(NodeId, name, temperature)` for all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str, Celsius)> + '_ {
        self.network
            .nodes
            .iter()
            .enumerate()
            .map(move |(i, n)| (NodeId(i), n.name.as_str(), self.temperatures[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_resistor_hand_checked() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node("junction");
        let amb = net.add_boundary("ambient", Celsius::new(25.0));
        let r = net
            .connect(j, amb, ThermalResistance::from_kelvin_per_watt(0.5))
            .unwrap();
        net.add_heat(j, Power::from_watts(100.0)).unwrap();
        let s = net.solve_steady().unwrap();
        assert!((s.temperature(j).degrees() - 75.0).abs() < 1e-9);
        assert!((s.flow(r).watts() - 100.0).abs() < 1e-9);
        assert!((s.boundary_heat(amb).watts() - 100.0).abs() < 1e-9);
        assert!(s.energy_residual().watts().abs() < 1e-9);
    }

    #[test]
    fn series_chain_divides_temperature() {
        // junction -1K/W- case -1K/W- sink -1K/W- ambient(0), 10 W
        let mut net = ThermalNetwork::new();
        let j = net.add_node("j");
        let c = net.add_node("c");
        let s = net.add_node("s");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        let r = ThermalResistance::from_kelvin_per_watt(1.0);
        net.connect(j, c, r).unwrap();
        net.connect(c, s, r).unwrap();
        net.connect(s, amb, r).unwrap();
        net.add_heat(j, Power::from_watts(10.0)).unwrap();
        let sol = net.solve_steady().unwrap();
        assert!((sol.temperature(j).degrees() - 30.0).abs() < 1e-9);
        assert!((sol.temperature(c).degrees() - 20.0).abs() < 1e-9);
        assert!((sol.temperature(s).degrees() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_paths_split_heat() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node("j");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        let r1 = net
            .connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        let r2 = net
            .connect(j, amb, ThermalResistance::from_kelvin_per_watt(3.0))
            .unwrap();
        net.add_heat(j, Power::from_watts(40.0)).unwrap();
        let s = net.solve_steady().unwrap();
        // parallel R = 0.75, T = 30; flows 30 and 10
        assert!((s.temperature(j).degrees() - 30.0).abs() < 1e-9);
        assert!((s.flow(r1).watts() - 30.0).abs() < 1e-9);
        assert!((s.flow(r2).watts() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_boundaries_superpose() {
        // hot(100) -1- mid -1- cold(0): mid should be 50
        let mut net = ThermalNetwork::new();
        let hot = net.add_boundary("hot", Celsius::new(100.0));
        let cold = net.add_boundary("cold", Celsius::new(0.0));
        let mid = net.add_node("mid");
        let r = ThermalResistance::from_kelvin_per_watt(1.0);
        net.connect(hot, mid, r).unwrap();
        net.connect(mid, cold, r).unwrap();
        let s = net.solve_steady().unwrap();
        assert!((s.temperature(mid).degrees() - 50.0).abs() < 1e-9);
        // 100 W flows in from hot boundary, out to cold boundary
        assert!((s.boundary_heat(cold).watts() - 50.0).abs() < 1e-9);
        assert!((s.boundary_heat(hot).watts() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn floating_network_is_detected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        net.add_heat(a, Power::from_watts(1.0)).unwrap();
        assert_eq!(
            net.solve_steady().unwrap_err(),
            ThermalError::FloatingNetwork
        );
    }

    #[test]
    fn heat_on_boundary_rejected() {
        let mut net = ThermalNetwork::new();
        let b = net.add_boundary("amb", Celsius::new(25.0));
        assert!(matches!(
            net.add_heat(b, Power::from_watts(1.0)),
            Err(ThermalError::HeatOnBoundary { .. })
        ));
    }

    #[test]
    fn self_loop_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        assert!(matches!(
            net.connect(a, a, ThermalResistance::from_kelvin_per_watt(1.0)),
            Err(ThermalError::SelfLoop { .. })
        ));
    }

    #[test]
    fn non_positive_resistance_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_boundary("b", Celsius::new(0.0));
        assert!(net
            .connect(a, b, ThermalResistance::from_kelvin_per_watt(0.0))
            .is_err());
        assert!(net
            .connect(a, b, ThermalResistance::from_kelvin_per_watt(-1.0))
            .is_err());
    }

    #[test]
    fn set_resistance_updates_solution() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node("j");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        let r = net
            .connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        net.add_heat(j, Power::from_watts(10.0)).unwrap();
        assert!((net.solve_steady().unwrap().temperature(j).degrees() - 10.0).abs() < 1e-9);
        net.set_resistance(r, ThermalResistance::from_kelvin_per_watt(2.0))
            .unwrap();
        assert!((net.solve_steady().unwrap().temperature(j).degrees() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn set_boundary_temperature_shifts_solution() {
        let mut net = ThermalNetwork::new();
        let j = net.add_node("j");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        net.connect(j, amb, ThermalResistance::from_kelvin_per_watt(1.0))
            .unwrap();
        net.add_heat(j, Power::from_watts(10.0)).unwrap();
        net.set_boundary_temperature(amb, Celsius::new(25.0))
            .unwrap();
        assert!((net.solve_steady().unwrap().temperature(j).degrees() - 35.0).abs() < 1e-9);
        // internal node can't be used as a boundary
        assert!(net.set_boundary_temperature(j, Celsius::new(1.0)).is_err());
    }

    #[test]
    fn hottest_finds_heated_node() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let amb = net.add_boundary("amb", Celsius::new(0.0));
        let r = ThermalResistance::from_kelvin_per_watt(1.0);
        net.connect(a, amb, r).unwrap();
        net.connect(b, amb, r).unwrap();
        net.add_heat(a, Power::from_watts(5.0)).unwrap();
        net.add_heat(b, Power::from_watts(50.0)).unwrap();
        let s = net.solve_steady().unwrap();
        assert_eq!(s.hottest().unwrap().0, b);
    }

    #[test]
    #[should_panic(expected = "non-finite node temperature")]
    fn hottest_rejects_non_finite_temperatures() {
        // A NaN boundary temperature flows straight into the solved
        // temperature vector; `hottest` must refuse to rank it rather
        // than silently report an arbitrary "hottest node".
        let mut net = ThermalNetwork::new();
        let _ok = net.add_boundary("ok", Celsius::new(20.0));
        let _poisoned = net.add_boundary("poisoned", Celsius::new(f64::NAN));
        let s = net.solve_steady().unwrap();
        let _ = s.hottest();
    }

    #[test]
    fn iter_reports_names() {
        let mut net = ThermalNetwork::new();
        let _ = net.add_node("chip0");
        let _ = net.add_boundary("oil", Celsius::new(30.0));
        let s = net.solve_steady().unwrap();
        let names: Vec<&str> = s.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["chip0", "oil"]);
    }
}
