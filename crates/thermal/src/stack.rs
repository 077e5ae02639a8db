//! The per-chip heat path: junction → case → TIM → sink → coolant.

use rcs_fluids::FluidState;
use rcs_units::{ThermalResistance, Velocity};

use crate::sink::HeatSink;
use crate::tim::{ThermalInterface, TimAging};

/// The complete thermal stack of one packaged FPGA: internal
/// junction-to-case resistance, thermal interface, and heat sink into the
/// coolant.
///
/// # Examples
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_thermal::{ChipStack, HeatSink, PinFinSink, ThermalInterface, TimMaterial};
/// use rcs_units::{Celsius, Length, Power, ThermalResistance, Velocity};
///
/// let stack = ChipStack::new(
///     ThermalResistance::from_kelvin_per_watt(0.09),
///     ThermalInterface::new(TimMaterial::SrcDesigned,
///                           Length::millimeters(0.05),
///                           Length::millimeters(42.5) * Length::millimeters(42.5)),
///     HeatSink::PinFin(PinFinSink::skat_default()),
/// );
/// let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
/// let r = stack.total_resistance(&oil, Velocity::from_meters_per_second(0.4));
/// let tj = Celsius::new(30.0) + Power::from_watts(91.0) * r;
/// assert!(tj.degrees() < 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipStack {
    r_junction_case: ThermalResistance,
    tim: ThermalInterface,
    sink: HeatSink,
    aging: TimAging,
}

impl ChipStack {
    /// Creates a stack from junction-to-case resistance, interface and sink.
    ///
    /// # Panics
    ///
    /// Panics if the junction-to-case resistance is not positive.
    #[must_use]
    pub fn new(r_junction_case: ThermalResistance, tim: ThermalInterface, sink: HeatSink) -> Self {
        assert!(
            r_junction_case.kelvin_per_watt() > 0.0,
            "junction-to-case resistance must be positive"
        );
        Self {
            r_junction_case,
            tim,
            sink,
            aging: TimAging::fresh(),
        }
    }

    /// Returns a copy of this stack with the given interface aging applied
    /// (used for service-life experiments).
    #[must_use]
    pub fn with_aging(mut self, aging: TimAging) -> Self {
        self.aging = aging;
        self
    }

    /// Total junction-to-coolant resistance in the given flow.
    #[must_use]
    pub fn total_resistance(&self, state: &FluidState, approach: Velocity) -> ThermalResistance {
        self.r_junction_case
            .in_series(self.tim.resistance(self.aging))
            .in_series(self.sink.resistance(state, approach))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{PinFinSink, PlateFinSink};
    use crate::tim::TimMaterial;
    use rcs_fluids::Coolant;
    use rcs_units::{Celsius, Length, Power};

    fn skat_stack() -> ChipStack {
        ChipStack::new(
            ThermalResistance::from_kelvin_per_watt(0.09),
            ThermalInterface::new(
                TimMaterial::SrcDesigned,
                Length::millimeters(0.05),
                Length::millimeters(42.5) * Length::millimeters(42.5),
            ),
            HeatSink::PinFin(PinFinSink::skat_default()),
        )
    }

    #[test]
    fn skat_design_point_meets_55c() {
        // §3: 91 W per FPGA, heat-transfer agent <= 30 °C, FPGA max 55 °C.
        let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
        let r = skat_stack().total_resistance(&oil, Velocity::from_meters_per_second(0.4));
        let tj = Celsius::new(30.0) + Power::from_watts(91.0) * r;
        assert!(tj.degrees() <= 55.0, "Tj = {tj}");
        assert!(tj.degrees() > 35.0, "implausibly cold: {tj}");
    }

    #[test]
    fn washed_out_tim_raises_junction_temperature() {
        let oil = Coolant::mineral_oil_md45().state(Celsius::new(30.0));
        let v = Velocity::from_meters_per_second(0.4);
        let paste = ChipStack::new(
            ThermalResistance::from_kelvin_per_watt(0.09),
            ThermalInterface::new(
                TimMaterial::StandardPaste,
                Length::millimeters(0.05),
                Length::millimeters(42.5) * Length::millimeters(42.5),
            ),
            HeatSink::PinFin(PinFinSink::skat_default()),
        );
        let fresh = paste.total_resistance(&oil, v);
        let aged = paste
            .with_aging(TimAging::immersed_months(24.0))
            .total_resistance(&oil, v);
        let fresh = Celsius::new(30.0) + Power::from_watts(91.0) * fresh;
        let aged = Celsius::new(30.0) + Power::from_watts(91.0) * aged;
        assert!(aged > fresh);
        assert!(
            (aged - fresh).kelvins() > 1.0,
            "washout delta = {}",
            (aged - fresh)
        );
    }

    #[test]
    fn resistance_composition_is_series() {
        let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
        let v = Velocity::from_meters_per_second(0.4);
        let s = skat_stack();
        let total = s.total_resistance(&oil, v).kelvin_per_watt();
        let parts = s.r_junction_case.kelvin_per_watt()
            + s.tim.resistance(TimAging::fresh()).kelvin_per_watt()
            + s.sink.resistance(&oil, v).kelvin_per_watt();
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn air_tower_vs_oil_pins() {
        // The motivating comparison: the same chip power through an air
        // tower at 3 m/s runs much hotter than through oil pins at 0.4 m/s.
        let air = Coolant::air().state(Celsius::new(25.0));
        let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
        let tower = ChipStack::new(
            ThermalResistance::from_kelvin_per_watt(0.09),
            ThermalInterface::new(
                TimMaterial::StandardPaste,
                Length::millimeters(0.05),
                Length::millimeters(45.0) * Length::millimeters(45.0),
            ),
            HeatSink::PlateFin(PlateFinSink::air_tower_default()),
        );
        let r_air = tower.total_resistance(&air, Velocity::from_meters_per_second(3.0));
        let r_oil = skat_stack().total_resistance(&oil, Velocity::from_meters_per_second(0.4));
        let t_air = Celsius::new(25.0) + Power::from_watts(91.0) * r_air;
        let t_oil = Celsius::new(30.0) + Power::from_watts(91.0) * r_oil;
        assert!(t_air > t_oil, "air {t_air} should exceed oil {t_oil}");
    }
}
