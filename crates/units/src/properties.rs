//! Material/fluid property quantities and heat-transfer cross products.

use crate::flow::MassFlow;
use crate::geometry::Area;
use crate::macros::scalar_quantity;
use crate::power::Power;
use crate::temperature::TempDelta;

scalar_quantity!(
    /// Mass density in kg/m³.
    ///
    /// # Examples
    ///
    /// ```
    /// let oil = rcs_units::Density::new(870.0);
    /// assert!(oil.kg_per_cubic_meter() < 998.0); // lighter than water
    /// ```
    Density, "kg/m³", new, kg_per_cubic_meter
);

scalar_quantity!(
    /// Specific heat capacity in J/(kg·K).
    ///
    /// # Examples
    ///
    /// ```
    /// let cp = rcs_units::SpecificHeat::new(4180.0); // water
    /// assert!(cp.joules_per_kg_kelvin() > 1900.0);   // vs mineral oil
    /// ```
    SpecificHeat, "J/(kg·K)", new, joules_per_kg_kelvin
);

scalar_quantity!(
    /// Volumetric heat capacity in J/(m³·K): the product of density and
    /// specific heat.
    ///
    /// Central to the paper's §2 claim that liquids store 1500–4000x more
    /// heat per unit volume than air.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Density, SpecificHeat};
    /// let water = Density::new(998.0) * SpecificHeat::new(4180.0);
    /// let air = Density::new(1.184) * SpecificHeat::new(1007.0);
    /// assert!(water / air > 3000.0);
    /// ```
    VolumetricHeatCapacity, "J/(m³·K)", new, joules_per_cubic_meter_kelvin
);

scalar_quantity!(
    /// Thermal conductivity in W/(m·K).
    ThermalConductivity, "W/(m·K)", new, watts_per_meter_kelvin
);

scalar_quantity!(
    /// Dynamic viscosity in Pa·s.
    DynamicViscosity, "Pa·s", new, pascal_seconds
);

scalar_quantity!(
    /// Convective heat-transfer coefficient in W/(m²·K).
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Area, HeatTransferCoeff};
    /// let h = HeatTransferCoeff::new(1200.0); // forced liquid convection
    /// let r = (h * Area::from_square_meters(25e-4)).to_resistance();
    /// assert!((r.kelvin_per_watt() - 1.0 / 3.0).abs() < 1e-12);
    /// ```
    HeatTransferCoeff, "W/(m²·K)", new, watts_per_square_meter_kelvin
);

scalar_quantity!(
    /// Thermal resistance in K/W.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Power, ThermalResistance};
    /// let dt = Power::from_watts(91.0) * ThermalResistance::from_kelvin_per_watt(0.25);
    /// assert!((dt.kelvins() - 22.75).abs() < 1e-12);
    /// ```
    ThermalResistance, "K/W", from_kelvin_per_watt, kelvin_per_watt
);

impl ThermalResistance {
    /// Series combination of two resistances.
    #[must_use]
    pub fn in_series(self, other: Self) -> Self {
        self + other
    }
}

scalar_quantity!(
    /// A thermal conductance or capacity rate in W/K.
    ///
    /// Serves both as the heat-exchanger UA/conductance unit and as the
    /// coolant capacity rate `m_dot * c_p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{MassFlow, SpecificHeat, Power};
    /// let c = MassFlow::from_kg_per_second(0.5) * SpecificHeat::new(4180.0);
    /// let rise = Power::from_watts(8736.0) / c;
    /// assert!((rise.kelvins() - 4.18).abs() < 0.01);
    /// ```
    ThermalCapacityRate, "W/K", new, watts_per_kelvin
);

impl ThermalCapacityRate {
    /// Returns the equivalent thermal resistance.
    #[must_use]
    pub fn to_resistance(self) -> ThermalResistance {
        ThermalResistance::from_kelvin_per_watt(1.0 / self.watts_per_kelvin())
    }
}

impl core::ops::Mul<SpecificHeat> for Density {
    type Output = VolumetricHeatCapacity;
    fn mul(self, rhs: SpecificHeat) -> VolumetricHeatCapacity {
        VolumetricHeatCapacity::new(self.kg_per_cubic_meter() * rhs.joules_per_kg_kelvin())
    }
}

impl core::ops::Mul<Area> for HeatTransferCoeff {
    type Output = ThermalCapacityRate;
    fn mul(self, rhs: Area) -> ThermalCapacityRate {
        ThermalCapacityRate::new(self.watts_per_square_meter_kelvin() * rhs.square_meters())
    }
}

impl core::ops::Mul<HeatTransferCoeff> for Area {
    type Output = ThermalCapacityRate;
    fn mul(self, rhs: HeatTransferCoeff) -> ThermalCapacityRate {
        rhs * self
    }
}

impl core::ops::Mul<SpecificHeat> for MassFlow {
    type Output = ThermalCapacityRate;
    fn mul(self, rhs: SpecificHeat) -> ThermalCapacityRate {
        ThermalCapacityRate::new(self.kg_per_second() * rhs.joules_per_kg_kelvin())
    }
}

impl core::ops::Mul<MassFlow> for SpecificHeat {
    type Output = ThermalCapacityRate;
    fn mul(self, rhs: MassFlow) -> ThermalCapacityRate {
        rhs * self
    }
}

impl core::ops::Mul<ThermalResistance> for Power {
    type Output = TempDelta;
    fn mul(self, rhs: ThermalResistance) -> TempDelta {
        TempDelta::from_kelvins(self.watts() * rhs.kelvin_per_watt())
    }
}

impl core::ops::Mul<Power> for ThermalResistance {
    type Output = TempDelta;
    fn mul(self, rhs: Power) -> TempDelta {
        rhs * self
    }
}

impl core::ops::Div<ThermalResistance> for TempDelta {
    type Output = Power;
    fn div(self, rhs: ThermalResistance) -> Power {
        Power::from_watts(self.kelvins() / rhs.kelvin_per_watt())
    }
}

impl core::ops::Div<ThermalCapacityRate> for Power {
    type Output = TempDelta;
    fn div(self, rhs: ThermalCapacityRate) -> TempDelta {
        TempDelta::from_kelvins(self.watts() / rhs.watts_per_kelvin())
    }
}

impl core::ops::Mul<TempDelta> for ThermalCapacityRate {
    type Output = Power;
    fn mul(self, rhs: TempDelta) -> Power {
        Power::from_watts(self.watts_per_kelvin() * rhs.kelvins())
    }
}

impl core::ops::Mul<ThermalCapacityRate> for TempDelta {
    type Output = Power;
    fn mul(self, rhs: ThermalCapacityRate) -> Power {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Celsius, VolumeFlow};

    #[test]
    fn series_resistance_adds() {
        let a = ThermalResistance::from_kelvin_per_watt(0.2);
        let b = ThermalResistance::from_kelvin_per_watt(0.3);
        assert!((a.in_series(b).kelvin_per_watt() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn coolant_temperature_rise() {
        // SKAT-scale: 8736 W into an oil stream.
        let q = VolumeFlow::liters_per_minute(120.0);
        let rho = Density::new(870.0);
        let cp = SpecificHeat::new(1900.0);
        let cap = (q * rho) * cp;
        let rise = Power::from_watts(8736.0) / cap;
        let outlet = Celsius::new(24.0) + rise;
        assert!(rise.kelvins() > 0.0 && rise.kelvins() < 5.0);
        assert!(outlet.degrees() < 30.0);
    }

    #[test]
    fn heat_flow_through_resistance() {
        let dt = Celsius::new(55.0) - Celsius::new(30.0);
        let p = dt / ThermalResistance::from_kelvin_per_watt(0.275);
        assert!((p.watts() - 90.909).abs() < 1e-2);
    }

    #[test]
    fn volumetric_heat_capacity_ratio_liquid_air() {
        let water = Density::new(998.0) * SpecificHeat::new(4180.0);
        let air = Density::new(1.184) * SpecificHeat::new(1007.0);
        let ratio = water / air;
        assert!(ratio > 1500.0 && ratio < 4000.0);
    }
}
