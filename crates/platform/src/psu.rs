//! The immersion power supply unit.

use rcs_units::Power;

/// An immersion-rated DC/DC converter: "an immersion power supply unit
/// providing DC/DC 380/12 V transducing with the power up to 4 kW for four
/// CCBs" (§3).
///
/// Conversion losses are dissipated into the bath and therefore count
/// toward the cooling load. Efficiency follows the usual converter bow:
/// best near half load, drooping toward both extremes.
///
/// # Examples
///
/// ```
/// use rcs_platform::PowerSupply;
/// use rcs_units::Power;
///
/// let psu = PowerSupply::skat_dcdc();
/// let eff = psu.efficiency(Power::kilowatts(2.0)); // half load
/// assert!(eff > 0.955);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSupply {
    pub(crate) rated: Power,
    peak_efficiency: f64,
}

impl PowerSupply {
    /// The SKAT unit: 4 kW, 380 → 12 V, 96 % peak efficiency.
    #[must_use]
    pub fn skat_dcdc() -> Self {
        Self {
            rated: Power::kilowatts(4.0),
            peak_efficiency: 0.96,
        }
    }

    /// Creates a unit with explicit rating and peak efficiency.
    ///
    /// # Panics
    ///
    /// Panics unless the rating is positive and the efficiency is in
    /// `(0, 1)`.
    #[must_use]
    pub fn new(rated: Power, peak_efficiency: f64) -> Self {
        assert!(rated.watts() > 0.0, "PSU rating must be positive");
        assert!(
            peak_efficiency > 0.0 && peak_efficiency < 1.0,
            "PSU efficiency must be in (0, 1)"
        );
        Self {
            rated,
            peak_efficiency,
        }
    }

    /// Conversion efficiency at the given output load: peak at 50 % load,
    /// with a quadratic droop of 4 points at no load and ~1.5 points at
    /// full load.
    #[must_use]
    pub fn efficiency(&self, output: Power) -> f64 {
        let x = (output.watts() / self.rated.watts()).clamp(0.0, 1.2);
        let droop = if x < 0.5 {
            0.04 * ((0.5 - x) / 0.5).powi(2)
        } else {
            0.015 * ((x - 0.5) / 0.5).powi(2)
        };
        self.peak_efficiency - droop
    }

    /// Input power drawn from the 380 V bus for the given output.
    #[must_use]
    pub fn input_power(&self, output: Power) -> Power {
        Power::from_watts(output.watts() / self.efficiency(output))
    }

    /// Heat dissipated into the bath at the given output.
    #[must_use]
    pub fn loss(&self, output: Power) -> Power {
        self.input_power(output) - output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_peaks_at_half_load() {
        let psu = PowerSupply::skat_dcdc();
        let half = psu.efficiency(Power::kilowatts(2.0));
        assert!(half > psu.efficiency(Power::kilowatts(0.2)));
        assert!(half > psu.efficiency(Power::kilowatts(4.0)));
        assert!((half - 0.96).abs() < 1e-12);
    }

    #[test]
    fn losses_are_consistent() {
        let psu = PowerSupply::skat_dcdc();
        let out = Power::kilowatts(3.2); // 4 CCBs x 800 W
        let input = psu.input_power(out);
        assert!((input.watts() - out.watts() - psu.loss(out).watts()).abs() < 1e-9);
        // ~4.5 % loss at 80 % load
        assert!(psu.loss(out).watts() > 100.0 && psu.loss(out).watts() < 200.0);
    }

    #[test]
    fn rating_check() {
        let psu = PowerSupply::skat_dcdc();
        assert!(Power::kilowatts(3.2) <= psu.rated);
        assert!(Power::kilowatts(4.5) > psu.rated);
    }

    #[test]
    #[should_panic(expected = "efficiency must be in")]
    fn silly_efficiency_panics() {
        let _ = PowerSupply::new(Power::kilowatts(1.0), 1.2);
    }
}
