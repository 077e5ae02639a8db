//! A fluid's full property set at one temperature.

use rcs_units::{
    Celsius, Density, DynamicViscosity, SpecificHeat, ThermalConductivity, VolumetricHeatCapacity,
};

use crate::dimensionless::Prandtl;

/// All thermophysical properties of a fluid evaluated at one temperature.
///
/// Produced by [`PropertyTable::state`](crate::PropertyTable::state) /
/// [`Coolant::state`](crate::Coolant::state); consumed by the convection
/// correlations and by the thermal/hydraulic solvers.
///
/// # Examples
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_units::Celsius;
///
/// let water = Coolant::water().state(Celsius::new(25.0));
/// assert!((water.prandtl().value() - 6.1).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidState {
    /// Temperature at which the properties were evaluated.
    pub temperature: Celsius,
    /// Mass density.
    pub density: Density,
    /// Specific heat capacity.
    pub specific_heat: SpecificHeat,
    /// Thermal conductivity.
    pub conductivity: ThermalConductivity,
    /// Dynamic viscosity.
    pub viscosity: DynamicViscosity,
}

impl FluidState {
    /// Volumetric heat capacity `rho * c_p`.
    ///
    /// The §2 comparison metric: how much heat a unit volume of coolant
    /// stores per kelvin.
    #[must_use]
    pub fn volumetric_heat_capacity(&self) -> VolumetricHeatCapacity {
        self.density * self.specific_heat
    }

    /// Prandtl number `Pr = mu * c_p / k`.
    #[must_use]
    pub fn prandtl(&self) -> Prandtl {
        Prandtl::new(
            self.viscosity.pascal_seconds() * self.specific_heat.joules_per_kg_kelvin()
                / self.conductivity.watts_per_meter_kelvin(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn water25() -> FluidState {
        FluidState {
            temperature: Celsius::new(25.0),
            density: Density::new(997.0),
            specific_heat: SpecificHeat::new(4181.0),
            conductivity: ThermalConductivity::new(0.607),
            viscosity: DynamicViscosity::new(0.89e-3),
        }
    }

    #[test]
    fn water_prandtl_textbook() {
        // Incropera: Pr of water at 300 K is about 6.1.
        let pr = water25().prandtl().value();
        assert!((pr - 6.13).abs() < 0.2, "Pr = {pr}");
    }
}
