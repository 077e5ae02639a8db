//! Hydraulic network construction.

use std::sync::Arc;

use rcs_fluids::FluidState;
use rcs_units::{Pressure, VolumeFlow};

use crate::elements::Element;
use crate::error::HydraulicError;

/// Handle to a junction in a [`HydraulicNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JunctionId(pub(crate) usize);

/// Handle to a branch in a [`HydraulicNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct JunctionData {
    pub(crate) name: String,
}

#[derive(Debug, Clone)]
pub(crate) struct BranchData {
    pub(crate) name: String,
    pub(crate) from: JunctionId,
    pub(crate) to: JunctionId,
    pub(crate) elements: Vec<Element>,
    pub(crate) open: bool,
}

impl BranchData {
    /// Total signed pressure drop from `from` to `to` at flow `q`.
    pub(crate) fn pressure_drop(&self, q: VolumeFlow, fluid: &FluidState) -> Pressure {
        self.drop_and_slope(q, fluid).0
    }

    /// Total signed pressure drop at flow `q` together with its
    /// derivative with respect to flow, each element's loss curve
    /// evaluated once.
    pub(crate) fn drop_and_slope(&self, q: VolumeFlow, fluid: &FluidState) -> (Pressure, f64) {
        self.elements
            .iter()
            .fold((Pressure::ZERO, 0.0), |(drop, slope), e| {
                let (d, s) = e.drop_and_slope(q, fluid);
                (drop + d, slope + s)
            })
    }
}

/// A closed-loop incompressible flow network.
///
/// Junctions are pressure nodes; branches are element chains (pipes,
/// valves, pumps) between two junctions. One junction is the pressure
/// reference (defaults to the first created). The network is solved with
/// [`HydraulicNetwork::solve`].
///
/// The junction and branch lists are shared copy-on-write: cloning a
/// network (as every [`HydraulicSolution`](crate::HydraulicSolution)
/// does to record what it solved) is a reference-count bump, and a
/// mutator copies the list only while another clone still holds it.
///
/// # Examples
///
/// A pump driving flow around a single loop:
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_hydraulics::{Element, HydraulicNetwork, Pipe, PumpCurve};
/// use rcs_units::{Celsius, Length, Pressure, VolumeFlow};
///
/// let mut net = HydraulicNetwork::new();
/// let a = net.add_junction("pump outlet");
/// let b = net.add_junction("pump inlet");
/// net.add_branch("piping", a, b, vec![Element::Pipe(
///     Pipe::smooth(Length::from_meters(20.0), Length::millimeters(25.0)))])?;
/// net.add_branch("pump", b, a, vec![Element::Pump(PumpCurve::new(
///     Pressure::kilopascals(60.0), VolumeFlow::liters_per_minute(150.0)))])?;
///
/// let water = Coolant::water().state(Celsius::new(20.0));
/// let solution = net.solve(&water)?;
/// assert!(solution.flows()[0].as_liters_per_minute() > 10.0);
/// # Ok::<(), rcs_hydraulics::HydraulicError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HydraulicNetwork {
    pub(crate) junctions: Arc<Vec<JunctionData>>,
    pub(crate) branches: Arc<Vec<BranchData>>,
    pub(crate) reference: Option<JunctionId>,
}

impl HydraulicNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named junction.
    pub fn add_junction(&mut self, name: impl Into<String>) -> JunctionId {
        Arc::make_mut(&mut self.junctions).push(JunctionData { name: name.into() });
        let id = JunctionId(self.junctions.len() - 1);
        if self.reference.is_none() {
            self.reference = Some(id);
        }
        id
    }

    /// Adds a branch of elements from `from` to `to` (positive flow is
    /// `from → to`).
    ///
    /// # Errors
    ///
    /// Rejects unknown junctions, self-loops and empty element lists.
    pub fn add_branch(
        &mut self,
        name: impl Into<String>,
        from: JunctionId,
        to: JunctionId,
        elements: Vec<Element>,
    ) -> Result<BranchId, HydraulicError> {
        self.check_junction(from)?;
        self.check_junction(to)?;
        if from == to {
            return Err(HydraulicError::SelfLoop { index: from.0 });
        }
        if elements.is_empty() {
            return Err(HydraulicError::EmptyBranch);
        }
        Arc::make_mut(&mut self.branches).push(BranchData {
            name: name.into(),
            from,
            to,
            elements,
            open: true,
        });
        Ok(BranchId(self.branches.len() - 1))
    }

    /// Opens or closes a branch (a closed branch carries no flow —
    /// the paper's loop-failure scenario).
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::UnknownBranch`] for a foreign id.
    pub fn set_branch_open(&mut self, branch: BranchId, open: bool) -> Result<(), HydraulicError> {
        let b = self.branch_mut(branch)?;
        b.open = open;
        Ok(())
    }

    /// `true` if the branch is open.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::UnknownBranch`] for a foreign id.
    pub(crate) fn branch_is_open(&self, branch: BranchId) -> Result<bool, HydraulicError> {
        self.branches
            .get(branch.0)
            .map(|b| b.open)
            .ok_or(HydraulicError::UnknownBranch { index: branch.0 })
    }

    /// Sets the opening fraction of every [`Element::Valve`] in the branch.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicError::UnknownBranch`] for a foreign id and
    /// [`HydraulicError::NonPositiveParameter`] for an opening outside
    /// `(0, 1]`.
    pub fn set_valve_opening(
        &mut self,
        branch: BranchId,
        opening: f64,
    ) -> Result<(), HydraulicError> {
        if !(opening > 0.0 && opening <= 1.0) {
            return Err(HydraulicError::NonPositiveParameter {
                parameter: "valve opening",
            });
        }
        let b = self.branch_mut(branch)?;
        for e in &mut b.elements {
            if let Element::Valve(v) = e {
                v.opening = opening;
            }
        }
        Ok(())
    }

    /// Iterates over all junction ids.
    pub fn junction_ids(&self) -> impl Iterator<Item = JunctionId> + '_ {
        (0..self.junctions.len()).map(JunctionId)
    }

    /// Copy-on-write access to one branch: the list is copied only while
    /// another clone (typically a solution) still shares it, and never
    /// for a foreign id.
    fn branch_mut(&mut self, branch: BranchId) -> Result<&mut BranchData, HydraulicError> {
        if branch.0 >= self.branches.len() {
            return Err(HydraulicError::UnknownBranch { index: branch.0 });
        }
        Ok(&mut Arc::make_mut(&mut self.branches)[branch.0])
    }

    fn check_junction(&self, j: JunctionId) -> Result<(), HydraulicError> {
        if j.0 < self.junctions.len() {
            Ok(())
        } else {
            Err(HydraulicError::UnknownJunction { index: j.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Pipe, PumpCurve};
    use rcs_units::Length;

    #[test]
    fn builder_validation() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        assert!(matches!(
            net.add_branch("self", a, a, vec![]),
            Err(HydraulicError::SelfLoop { .. })
        ));
        assert!(matches!(
            net.add_branch("empty", a, b, vec![]),
            Err(HydraulicError::EmptyBranch)
        ));
        let pipe = Element::Pipe(Pipe::smooth(
            Length::from_meters(1.0),
            Length::millimeters(25.0),
        ));
        let id = net.add_branch("ok", a, b, vec![pipe]).unwrap();
        let data = &net.branches[id.0];
        assert_eq!((data.from, data.to), (a, b));
        assert!(net.branch_is_open(id).unwrap());
    }

    #[test]
    fn valve_opening_validation() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let v = crate::Valve::balancing(Length::millimeters(25.0));
        let id = net.add_branch("v", a, b, vec![Element::Valve(v)]).unwrap();
        assert!(net.set_valve_opening(id, 0.5).is_ok());
        assert!(net.set_valve_opening(id, 0.0).is_err());
        assert!(net.set_valve_opening(id, 1.5).is_err());
    }

    #[test]
    fn pump_is_an_element_like_any_other() {
        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("a");
        let b = net.add_junction("b");
        let pump = Element::Pump(PumpCurve::new(
            rcs_units::Pressure::kilopascals(10.0),
            rcs_units::VolumeFlow::liters_per_minute(100.0),
        ));
        assert!(net.add_branch("pump", a, b, vec![pump]).is_ok());
        assert_eq!(net.junctions.len(), 2);
    }
}
