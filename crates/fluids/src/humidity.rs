//! Psychrometrics: the dew-point physics behind §2's condensation
//! problem.
//!
//! "If some parts of these plates are too cold and the air in the section
//! of data processing is warmer and not very dry, then moisture can
//! condense out of the air on the plates. The consequences of this
//! process are similar to leaks." This module computes when that happens.

use rcs_units::Celsius;

/// Dew-point temperature of air at dry-bulb temperature `t` and relative
/// humidity `rh` in `(0, 1]` (inverse Magnus formula).
///
/// # Panics
///
/// Panics if `rh` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use rcs_fluids::humidity;
/// use rcs_units::Celsius;
/// // machine-room air at 24 °C / 55 % RH: dew point ~14.4 °C
/// let dp = humidity::dew_point(Celsius::new(24.0), 0.55);
/// assert!((dp.degrees() - 14.4).abs() < 0.5);
/// ```
#[must_use]
pub fn dew_point(t: Celsius, rh: f64) -> Celsius {
    assert!(rh > 0.0 && rh <= 1.0, "relative humidity must be in (0, 1]");
    let t_c = t.degrees();
    let gamma = rh.ln() + 17.625 * t_c / (t_c + 243.04);
    Celsius::new(243.04 * gamma / (17.625 - gamma))
}

/// Machine-room air condition used for condensation checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoomAir {
    /// Dry-bulb air temperature.
    pub temperature: Celsius,
    /// Relative humidity in `(0, 1]`.
    pub relative_humidity: f64,
}

impl RoomAir {
    /// A typical ASHRAE-class machine room: 24 °C at 55 % RH.
    #[must_use]
    pub fn machine_room_default() -> Self {
        Self {
            temperature: Celsius::new(24.0),
            relative_humidity: 0.55,
        }
    }

    /// The room's dew point.
    #[must_use]
    pub(crate) fn dew_point(&self) -> Celsius {
        dew_point(self.temperature, self.relative_humidity)
    }

    /// `true` if a surface at `surface` would condense moisture out of
    /// this air.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_fluids::humidity::RoomAir;
    /// use rcs_units::Celsius;
    /// let room = RoomAir::machine_room_default();
    /// assert!(room.condenses_on(Celsius::new(12.0)));  // cold plate at 12 °C
    /// assert!(!room.condenses_on(Celsius::new(20.0))); // 20 °C supply is safe
    /// ```
    #[must_use]
    pub fn condenses_on(&self, surface: Celsius) -> bool {
        surface < self.dew_point()
    }
}

impl Default for RoomAir {
    fn default() -> Self {
        Self::machine_room_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dew_point_round_trip() {
        // at 100 % RH the dew point equals the dry-bulb temperature
        let t = Celsius::new(23.0);
        assert!((dew_point(t, 1.0).degrees() - 23.0).abs() < 1e-6);
        // drier air has a lower dew point
        assert!(dew_point(t, 0.4) < dew_point(t, 0.7));
    }

    #[test]
    fn dew_point_monotone_in_temperature() {
        let lo = dew_point(Celsius::new(18.0), 0.5);
        let hi = dew_point(Celsius::new(30.0), 0.5);
        assert!(hi > lo);
    }

    #[test]
    fn machine_room_threshold_is_mid_teens() {
        let room = RoomAir::machine_room_default();
        let dp = room.dew_point().degrees();
        assert!((13.0..16.0).contains(&dp), "dew point {dp}");
        assert!(room.condenses_on(Celsius::new(dp - 0.5)));
        assert!(!room.condenses_on(Celsius::new(dp + 0.5)));
    }

    #[test]
    #[should_panic(expected = "relative humidity")]
    fn zero_humidity_panics() {
        let _ = dew_point(Celsius::new(20.0), 0.0);
    }

    #[test]
    fn humid_tropics_raise_the_risk() {
        let humid = RoomAir {
            temperature: Celsius::new(28.0),
            relative_humidity: 0.75,
        };
        // even an 18 °C supply condenses in a humid room
        assert!(humid.condenses_on(Celsius::new(18.0)));
        assert!(!RoomAir::machine_room_default().condenses_on(Celsius::new(18.0)));
    }
}
