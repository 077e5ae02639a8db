//! The unified steady-state report all three architecture models produce.

use rcs_units::{Celsius, Power, Velocity, VolumeFlow};

/// Steady operating state of one computational module under one cooling
/// architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyReport {
    /// Architecture label ("air cooling", "open-loop immersion", …).
    pub architecture: &'static str,
    /// Module/preset name ("SKAT", "Taygeta", …).
    pub module: String,
    /// Power of one (hottest) compute FPGA.
    pub chip_power: Power,
    /// Junction temperature of the hottest FPGA.
    pub junction: Celsius,
    /// Heat-transfer agent (or local air) temperature at the cold side of
    /// the chips.
    pub coolant_cold: Celsius,
    /// Heat-transfer agent (or local air) temperature at the hot side.
    pub coolant_hot: Celsius,
    /// Total heat released by the module.
    pub total_heat: Power,
    /// Coolant flow circulated through the module (zero for air).
    pub coolant_flow: VolumeFlow,
    /// Approach velocity at the chip sinks.
    pub sink_velocity: Velocity,
    /// Auxiliary (pump/fan) power spent moving coolant.
    pub circulation_power: Power,
    /// External (chiller) electrical power attributed to this module.
    pub chiller_power: Power,
    /// Outer fixed-point iterations used.
    pub iterations: usize,
}

impl SteadyReport {
    /// Cooling overhead: auxiliary power (circulation + chiller share)
    /// per watt of IT heat — the energy-efficiency metric behind the
    /// paper's title claim.
    #[must_use]
    pub fn cooling_overhead(&self) -> f64 {
        (self.circulation_power.watts() + self.chiller_power.watts())
            / self.total_heat.watts().max(1e-9)
    }

    /// Field MTBF in hours at this junction temperature for `chips`
    /// devices.
    #[must_use]
    pub fn field_mtbf_hours(&self, chips: usize) -> f64 {
        rcs_devices::reliability::field_mtbf_hours(self.junction, chips)
    }
}

impl core::fmt::Display for SteadyReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{} — {}", self.module, self.architecture)?;
        writeln!(f, "  chip power        : {:.1}", self.chip_power)?;
        writeln!(f, "  junction          : {:.1}", self.junction)?;
        writeln!(
            f,
            "  coolant (cold/hot): {:.1} / {:.1}",
            self.coolant_cold, self.coolant_hot
        )?;
        writeln!(f, "  total heat        : {:.0}", self.total_heat)?;
        writeln!(
            f,
            "  flow / velocity   : {:.0} L/min / {:.2} m/s",
            self.coolant_flow.as_liters_per_minute(),
            self.sink_velocity.meters_per_second()
        )?;
        writeln!(
            f,
            "  circulation power : {:.0} (+{:.0} chiller)",
            self.circulation_power, self.chiller_power
        )?;
        write!(
            f,
            "  cooling overhead  : {:.1}%",
            self.cooling_overhead() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SteadyReport {
        SteadyReport {
            architecture: "open-loop immersion",
            module: "SKAT".into(),
            chip_power: Power::from_watts(91.0),
            junction: Celsius::new(54.0),
            coolant_cold: Celsius::new(27.0),
            coolant_hot: Celsius::new(29.5),
            total_heat: Power::from_watts(9300.0),
            coolant_flow: VolumeFlow::liters_per_minute(420.0),
            sink_velocity: Velocity::from_meters_per_second(0.17),
            circulation_power: Power::from_watts(250.0),
            chiller_power: Power::from_watts(2100.0),
            iterations: 7,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert!((r.cooling_overhead() - 2350.0 / 9300.0).abs() < 1e-12);
        assert!(r.field_mtbf_hours(96) > 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = sample().to_string();
        assert!(s.contains("SKAT"));
        assert!(s.contains("54.0"));
        assert!(s.contains("overhead"));
    }
}
