//! Typed physical quantities for the `rcs-sim` workspace.
//!
//! Every physical value that crosses a crate boundary in `rcs-sim` is a
//! newtype over `f64` with an explicit unit, so that a pressure can never be
//! added to a temperature and a volumetric flow can never be passed where a
//! mass flow is expected. Arithmetic is implemented only where it is
//! physically meaningful, including the cross-unit products used throughout
//! the thermal and hydraulic solvers (for example
//! [`Power`] `*` [`ThermalResistance`] `=` [`TempDelta`]).
//!
//! # Examples
//!
//! ```
//! use rcs_units::{Celsius, Power, ThermalResistance};
//!
//! let ambient = Celsius::new(25.0);
//! let chip_power = Power::from_watts(91.0);
//! let junction_to_coolant = ThermalResistance::from_kelvin_per_watt(0.22);
//!
//! let junction = ambient + chip_power * junction_to_coolant;
//! assert!((junction.degrees() - 45.02).abs() < 1e-9);
//! ```
//!
//! Absolute temperatures ([`Celsius`]) and temperature differences
//! ([`TempDelta`]) are distinct types: subtracting two absolute temperatures
//! yields a delta, and only deltas may be scaled or accumulated.

#![warn(missing_docs)]

mod flow;
mod geometry;
mod macros;
mod power;
mod pressure;
mod properties;
mod temperature;

pub use flow::{MassFlow, Velocity, VolumeFlow};
pub use geometry::{Area, Length, Volume};
pub use power::{Energy, Frequency, Power, Seconds};
pub use pressure::Pressure;
pub use properties::{
    Density, DynamicViscosity, HeatTransferCoeff, SpecificHeat, ThermalCapacityRate,
    ThermalConductivity, ThermalResistance, VolumetricHeatCapacity,
};
pub use temperature::{Celsius, Kelvin, TempDelta};

/// Hours in one mean year (365.25 days × 24 h).
///
/// Every annualized quantity in the workspace — availability horizons,
/// failure rates per module-year, annual energy — converts through this
/// single constant so that "a year" can never silently mean 8760 h in
/// one crate and 8766 h in another.
pub const HOURS_PER_YEAR: f64 = 8766.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_cross_product() {
        let ambient = Celsius::new(25.0);
        let junction =
            ambient + Power::from_watts(100.0) * ThermalResistance::from_kelvin_per_watt(0.3);
        assert!((junction.degrees() - 55.0).abs() < 1e-12);
    }
}
