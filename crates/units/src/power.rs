//! Power, energy, time and frequency.

use crate::macros::scalar_quantity;

scalar_quantity!(
    /// Thermal or electrical power in watts.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::Power;
    /// // A SKAT computational module: 12 boards x 8 FPGAs x 91 W.
    /// let cm: Power = (0..96).map(|_| Power::from_watts(91.0)).sum();
    /// assert!((cm.watts() - 8736.0).abs() < 1e-9);
    /// ```
    Power, "W", from_watts, watts
);

impl Power {
    /// Creates a power from kilowatts.
    #[must_use]
    pub fn kilowatts(kw: f64) -> Self {
        Self::from_watts(kw * 1e3)
    }

    /// Returns the power in kilowatts.
    #[must_use]
    pub fn as_kilowatts(self) -> f64 {
        self.watts() / 1e3
    }
}

scalar_quantity!(
    /// Energy in joules.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Power, Seconds};
    /// let e = Power::from_watts(100.0) * Seconds::new(3600.0);
    /// assert!((e.as_kilowatt_hours() - 0.1).abs() < 1e-12);
    /// ```
    Energy, "J", from_joules, joules
);

impl Energy {
    /// Returns the energy in kilowatt-hours.
    #[must_use]
    pub fn as_kilowatt_hours(self) -> f64 {
        self.joules() / 3.6e6
    }
}

scalar_quantity!(
    /// A time duration in seconds.
    ///
    /// A plain newtype rather than [`std::time::Duration`] because simulated
    /// time is fractional, may be scaled, and appears in physical products
    /// (power x time = energy).
    ///
    /// # Examples
    ///
    /// ```
    /// let dt = rcs_units::Seconds::hours(2.0);
    /// assert_eq!(dt.seconds(), 7200.0);
    /// ```
    Seconds, "s", new, seconds
);

impl Seconds {
    /// Creates a duration from minutes.
    #[must_use]
    pub fn minutes(m: f64) -> Self {
        Self::new(m * 60.0)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub fn hours(h: f64) -> Self {
        Self::new(h * 3600.0)
    }

    /// Creates a duration from days.
    #[must_use]
    pub fn days(d: f64) -> Self {
        Self::new(d * 86_400.0)
    }

    /// Returns the duration in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.seconds() / 3600.0
    }
}

scalar_quantity!(
    /// A clock frequency in hertz.
    ///
    /// # Examples
    ///
    /// ```
    /// let f = rcs_units::Frequency::megahertz(450.0);
    /// assert_eq!(f.hertz(), 4.5e8);
    /// ```
    Frequency, "Hz", from_hertz, hertz
);

impl Frequency {
    /// Creates a frequency from megahertz.
    #[must_use]
    pub fn megahertz(mhz: f64) -> Self {
        Self::from_hertz(mhz * 1e6)
    }

    /// Returns the frequency in megahertz.
    #[must_use]
    pub fn as_megahertz(self) -> f64 {
        self.hertz() / 1e6
    }
}

impl core::ops::Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::from_joules(self.watts() * rhs.seconds())
    }
}

impl core::ops::Mul<Power> for Seconds {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl core::ops::Div<Seconds> for Energy {
    type Output = Power;
    fn div(self, rhs: Seconds) -> Power {
        Power::from_watts(self.joules() / rhs.seconds())
    }
}

impl core::ops::Div<Power> for Energy {
    type Output = Seconds;
    fn div(self, rhs: Power) -> Seconds {
        Seconds::new(self.joules() / rhs.watts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_round_trip() {
        let p = Power::kilowatts(8.736);
        let dt = Seconds::hours(1.0);
        let e = p * dt;
        assert!((e.as_kilowatt_hours() - 8.736).abs() < 1e-9);
        assert!(((e / dt).watts() - p.watts()).abs() < 1e-9);
        assert!(((e / p).seconds() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_conversion() {
        assert!((Frequency::megahertz(312.5).as_megahertz() - 312.5).abs() < 1e-12);
    }

    #[test]
    fn time_constructors_consistent() {
        assert_eq!(Seconds::minutes(60.0), Seconds::hours(1.0));
        assert_eq!(Seconds::days(1.0), Seconds::hours(24.0));
    }
}
