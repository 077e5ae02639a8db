//! Absolute temperatures and temperature differences.

use crate::macros::scalar_quantity;

scalar_quantity!(
    /// A temperature *difference* in kelvins.
    ///
    /// Distinct from an absolute temperature: deltas may be added, scaled and
    /// accumulated, while absolute temperatures may only be shifted by a
    /// delta. Subtracting two [`Celsius`] values yields a `TempDelta`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Celsius, TempDelta};
    /// let overheat = Celsius::new(58.1) - Celsius::new(25.0);
    /// assert!((overheat.kelvins() - 33.1).abs() < 1e-12);
    /// ```
    TempDelta, "K", from_kelvins, kelvins
);

/// An absolute temperature on the Celsius scale.
///
/// The dominant temperature type in the workspace: the paper reports every
/// temperature in degrees Celsius. Conversion to the thermodynamic scale is
/// available through [`Celsius::to_kelvin`].
///
/// # Examples
///
/// ```
/// use rcs_units::{Celsius, TempDelta};
/// let t = Celsius::new(25.0) + TempDelta::from_kelvins(33.1);
/// assert!((t.degrees() - 58.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Offset between the Celsius and Kelvin scales.
    pub(crate) const KELVIN_OFFSET: f64 = 273.15;

    /// Creates an absolute temperature from degrees Celsius.
    #[must_use]
    pub const fn new(degrees: f64) -> Self {
        Self(degrees)
    }

    /// Returns the temperature in degrees Celsius.
    #[must_use]
    pub const fn degrees(self) -> f64 {
        self.0
    }

    /// Converts to the thermodynamic (Kelvin) scale.
    ///
    /// # Examples
    ///
    /// ```
    /// let t = rcs_units::Celsius::new(25.0);
    /// assert!((t.to_kelvin().kelvins() - 298.15).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.0 + Self::KELVIN_OFFSET)
    }

    /// Returns the smaller of two temperatures.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the larger of two temperatures.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl core::fmt::Display for Celsius {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*} °C", precision, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

impl core::ops::Add<TempDelta> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 + rhs.kelvins())
    }
}

impl core::ops::AddAssign<TempDelta> for Celsius {
    fn add_assign(&mut self, rhs: TempDelta) {
        self.0 += rhs.kelvins();
    }
}

impl core::ops::Sub<TempDelta> for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 - rhs.kelvins())
    }
}

impl core::ops::SubAssign<TempDelta> for Celsius {
    fn sub_assign(&mut self, rhs: TempDelta) {
        self.0 -= rhs.kelvins();
    }
}

impl core::ops::Sub for Celsius {
    type Output = TempDelta;
    fn sub(self, rhs: Celsius) -> TempDelta {
        TempDelta::from_kelvins(self.0 - rhs.0)
    }
}

/// An absolute temperature on the thermodynamic (Kelvin) scale.
///
/// Used where physics requires the absolute scale, such as Arrhenius
/// reliability acceleration in `rcs-devices` and radiative estimates.
///
/// # Examples
///
/// ```
/// use rcs_units::Kelvin;
/// let t = Kelvin::new(298.15);
/// assert!((t.to_celsius().degrees() - 25.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Kelvin(f64);

impl Kelvin {
    /// Creates an absolute temperature from kelvins.
    #[must_use]
    pub const fn new(kelvins: f64) -> Self {
        Self(kelvins)
    }

    /// Returns the temperature in kelvins.
    #[must_use]
    pub const fn kelvins(self) -> f64 {
        self.0
    }

    /// Converts to the Celsius scale.
    #[must_use]
    pub fn to_celsius(self) -> Celsius {
        Celsius::new(self.0 - Celsius::KELVIN_OFFSET)
    }
}

impl core::fmt::Display for Kelvin {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*} K", precision, self.0)
        } else {
            write!(f, "{} K", self.0)
        }
    }
}

impl From<Celsius> for Kelvin {
    fn from(value: Celsius) -> Self {
        value.to_kelvin()
    }
}

impl From<Kelvin> for Celsius {
    fn from(value: Kelvin) -> Self {
        value.to_celsius()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius::new(55.0);
        assert!((t.to_kelvin().to_celsius().degrees() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_minus_absolute_is_delta() {
        let d = Celsius::new(72.9) - Celsius::new(25.0);
        assert!((d.kelvins() - 47.9).abs() < 1e-12);
    }

    #[test]
    fn delta_arithmetic() {
        let d = TempDelta::from_kelvins(10.0) + TempDelta::from_kelvins(5.0) * 2.0;
        assert!((d.kelvins() - 20.0).abs() < 1e-12);
        assert!((-d).kelvins() < 0.0);
    }

    #[test]
    fn shift_and_unshift() {
        let mut t = Celsius::new(25.0);
        t += TempDelta::from_kelvins(33.1);
        t -= TempDelta::from_kelvins(33.1);
        assert!((t.degrees() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.1}", Celsius::new(58.123)), "58.1 °C");
        assert_eq!(format!("{:.2}", TempDelta::from_kelvins(1.005)), "1.00 K");
        assert_eq!(format!("{:.0}", Kelvin::new(298.15)), "298 K");
    }

    #[test]
    fn ordering() {
        assert!(Celsius::new(55.0) < Celsius::new(70.0));
        assert_eq!(
            Celsius::new(55.0).max(Celsius::new(70.0)),
            Celsius::new(70.0)
        );
    }
}
