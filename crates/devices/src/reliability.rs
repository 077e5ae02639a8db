//! Junction-temperature reliability: Arrhenius acceleration and the
//! paper's 65–70 °C operating rule.
//!
//! §1 of the paper: "the permissible temperature of an FPGA functioning,
//! providing high reliability of the equipment during a long operation
//! period, is 65…70 °C". This module quantifies that rule with the
//! standard Arrhenius model used for semiconductor wear-out: failure rate
//! scales as `exp(−Ea / (k·T))` in absolute junction temperature.

use rcs_units::Celsius;

/// Activation energy of the dominant wear-out mechanism, eV.
pub(crate) const ACTIVATION_ENERGY_EV: f64 = 0.7;

/// Boltzmann constant in eV/K.
pub(crate) const BOLTZMANN_EV_PER_K: f64 = 8.617e-5;

/// Reference junction temperature at which [`BASE_FIT`] is specified.
pub(crate) const REFERENCE_JUNCTION: Celsius = Celsius::new(55.0);

/// Base failure rate at the reference junction temperature, failures per
/// 10⁹ device-hours (a large compute FPGA with its regulators).
pub(crate) const BASE_FIT: f64 = 150.0;

/// Arrhenius acceleration factor of a junction temperature relative to
/// the reference junction.
///
/// `1.0` at 55 °C; roughly ×2 per +10…12 K around the operating range.
///
/// # Examples
///
/// ```
/// use rcs_devices::reliability;
/// use rcs_units::Celsius;
///
/// let hot = reliability::acceleration_factor(Celsius::new(85.0));
/// let cool = reliability::acceleration_factor(Celsius::new(55.0));
/// assert!((cool - 1.0).abs() < 1e-12);
/// assert!(hot > 5.0); // running at 85 °C wears out >5x faster
/// ```
#[must_use]
pub fn acceleration_factor(junction: Celsius) -> f64 {
    let t = junction.to_kelvin().kelvins();
    let t_ref = REFERENCE_JUNCTION.to_kelvin().kelvins();
    (ACTIVATION_ENERGY_EV / BOLTZMANN_EV_PER_K * (1.0 / t_ref - 1.0 / t)).exp()
}

/// Failure rate at the given junction temperature, in FIT
/// (failures per 10⁹ device-hours).
#[must_use]
pub fn failure_rate_fit(junction: Celsius) -> f64 {
    BASE_FIT * acceleration_factor(junction)
}

/// Mean time between failures of one device at the given junction
/// temperature, in hours.
#[must_use]
pub fn mtbf_hours(junction: Celsius) -> f64 {
    1e9 / failure_rate_fit(junction)
}

/// MTBF of a field of `devices` identical chips (series reliability), in
/// hours.
#[must_use]
pub fn field_mtbf_hours(junction: Celsius, devices: usize) -> f64 {
    mtbf_hours(junction) / devices.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceleration_is_one_at_reference() {
        assert!((acceleration_factor(REFERENCE_JUNCTION) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acceleration_monotone_in_temperature() {
        let mut last = 0.0;
        for t in [25.0, 40.0, 55.0, 70.0, 85.0, 100.0] {
            let af = acceleration_factor(Celsius::new(t));
            assert!(af > last);
            last = af;
        }
    }

    #[test]
    fn roughly_doubles_per_ten_kelvin() {
        let r = acceleration_factor(Celsius::new(65.0)) / acceleration_factor(Celsius::new(55.0));
        assert!(r > 1.7 && r < 2.3, "x{r} per 10 K");
    }

    #[test]
    fn skat_vs_taygeta_reliability_story() {
        // SKAT holds 55 °C; Taygeta ran at 72.9 °C. The immersion system
        // buys a ~3.5x wear-out margin.
        let gain = failure_rate_fit(Celsius::new(72.9)) / failure_rate_fit(Celsius::new(55.0));
        assert!(gain > 3.0, "gain = {gain}");
    }

    #[test]
    fn field_mtbf_divides_by_population() {
        let one = field_mtbf_hours(Celsius::new(55.0), 1);
        let rack = field_mtbf_hours(Celsius::new(55.0), 1152);
        assert!((one / rack - 1152.0).abs() < 1e-9);
        // A 1152-chip rack at 55 °C still runs months between chip failures.
        assert!(rack > 30.0 * 24.0, "rack MTBF = {rack} h");
    }
}
