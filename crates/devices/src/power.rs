//! The FPGA power model: temperature-dependent leakage plus scaled
//! dynamic power.

use rcs_units::{Celsius, Power};

use crate::part::FpgaPart;

/// How hard one FPGA is being driven.
///
/// The paper characterizes RCS operating mode as "workload on the chips
/// reaches up to 85–95 % of the available hardware resource"; the
/// [`OperatingPoint::operating_mode`] constructor uses the 90 % midpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Fraction of the chip's logic resources in use, `[0, 1]`.
    pub utilization: f64,
    /// Achieved clock as a fraction of the part's design clock, `[0, 1]`.
    pub clock_fraction: f64,
}

impl OperatingPoint {
    /// The paper's operating mode: 90 % utilization at full design clock.
    #[must_use]
    pub fn operating_mode() -> Self {
        Self {
            utilization: 0.90,
            clock_fraction: 1.0,
        }
    }

    /// An explicit utilization at full clock.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    #[must_use]
    pub fn at_utilization(utilization: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization outside [0, 1]"
        );
        Self {
            utilization,
            clock_fraction: 1.0,
        }
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::operating_mode()
    }
}

/// Power model of one FPGA part.
///
/// Total power is `P_static(T_j) + P_dyn · utilization · clock_fraction`,
/// where leakage doubles every `PowerModel::LEAKAGE_DOUBLING_K` kelvins
/// of junction temperature — the coupling that makes badly cooled chips
/// draw even more power, and which the coupled solver in `rcs-core`
/// iterates to a fixed point.
///
/// # Examples
///
/// ```
/// use rcs_devices::{FpgaPart, OperatingPoint, PowerModel};
/// use rcs_units::Celsius;
///
/// let model = PowerModel::for_part(&FpgaPart::xcku095());
/// let p = model.power(OperatingPoint::operating_mode(), Celsius::new(55.0));
/// // the SKAT measurement: 91 W per FPGA in operating mode
/// assert!((p.watts() - 91.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    static_25: Power,
    dynamic_full: Power,
}

impl PowerModel {
    /// Junction-temperature interval over which leakage power doubles.
    pub(crate) const LEAKAGE_DOUBLING_K: f64 = 35.0;

    /// Builds the model for a catalog part.
    #[must_use]
    pub fn for_part(part: &FpgaPart) -> Self {
        Self {
            static_25: part.static_power_25(),
            dynamic_full: part.dynamic_power_full(),
        }
    }

    /// Static (leakage) power at the given junction temperature.
    #[must_use]
    pub fn static_power(&self, junction: Celsius) -> Power {
        let factor = 2f64.powf((junction.degrees() - 25.0) / Self::LEAKAGE_DOUBLING_K);
        Power::from_watts(self.static_25.watts() * factor)
    }

    /// Dynamic power at the given operating point (temperature
    /// independent).
    #[must_use]
    pub(crate) fn dynamic_power(&self, op: OperatingPoint) -> Power {
        Power::from_watts(
            self.dynamic_full.watts()
                * op.utilization.clamp(0.0, 1.0)
                * op.clock_fraction.clamp(0.0, 1.0),
        )
    }

    /// Total power at the given operating point and junction temperature.
    #[must_use]
    pub fn power(&self, op: OperatingPoint, junction: Celsius) -> Power {
        self.static_power(junction) + self.dynamic_power(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_anchor_91_watts() {
        let m = PowerModel::for_part(&FpgaPart::xcku095());
        let p = m.power(OperatingPoint::operating_mode(), Celsius::new(55.0));
        assert!((p.watts() - 91.0).abs() < 2.0, "P = {p}");
    }

    #[test]
    fn taygeta_anchor_39_watts() {
        // 32 chips x ~39 W = ~1246 W of FPGA power, 75 % of the 1661 W CM.
        let m = PowerModel::for_part(&FpgaPart::xc7vx485t());
        let p = m.power(OperatingPoint::operating_mode(), Celsius::new(72.9));
        assert!((p.watts() - 39.0).abs() < 2.0, "P = {p}");
    }

    #[test]
    fn rigel2_anchor_29_watts() {
        let m = PowerModel::for_part(&FpgaPart::xc6vlx240t());
        let p = m.power(OperatingPoint::operating_mode(), Celsius::new(58.1));
        assert!((p.watts() - 29.4).abs() < 2.0, "P = {p}");
    }

    #[test]
    fn leakage_doubles_per_interval() {
        let m = PowerModel::for_part(&FpgaPart::xcku095());
        let p25 = m.static_power(Celsius::new(25.0)).watts();
        let p60 = m
            .static_power(Celsius::new(25.0 + PowerModel::LEAKAGE_DOUBLING_K))
            .watts();
        assert!((p60 / p25 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_monotone_in_utilization_and_temperature() {
        let m = PowerModel::for_part(&FpgaPart::vu9p_class());
        let lo = m.power(OperatingPoint::at_utilization(0.5), Celsius::new(40.0));
        let hi_util = m.power(OperatingPoint::at_utilization(0.9), Celsius::new(40.0));
        let hi_temp = m.power(OperatingPoint::at_utilization(0.5), Celsius::new(70.0));
        assert!(hi_util > lo);
        assert!(hi_temp > lo);
    }

    #[test]
    fn idle_power_is_mostly_static() {
        let m = PowerModel::for_part(&FpgaPart::xcku095());
        // A configured but idle field: clock gated down.
        let idle = OperatingPoint {
            utilization: 0.0,
            clock_fraction: 0.1,
        };
        let idle = m.power(idle, Celsius::new(40.0));
        let static_only = m.static_power(Celsius::new(40.0));
        assert!(idle.watts() < 1.1 * static_only.watts());
    }

    #[test]
    fn ultrascale_power_approaches_100w_per_chip() {
        // §1: "Virtex UltraScale (with a power consumption of up to 100 W
        // for each chip)" — at 95 % utilization and a hot junction.
        let m = PowerModel::for_part(&FpgaPart::xcku095());
        let p = m.power(OperatingPoint::at_utilization(0.95), Celsius::new(70.0));
        assert!(p.watts() > 90.0 && p.watts() < 110.0, "P = {p}");
    }

    #[test]
    #[should_panic(expected = "utilization outside")]
    fn invalid_utilization_panics() {
        let _ = OperatingPoint::at_utilization(1.5);
    }
}
