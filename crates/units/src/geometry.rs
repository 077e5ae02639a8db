//! Lengths, areas and volumes.

use crate::macros::scalar_quantity;

scalar_quantity!(
    /// A length in meters.
    ///
    /// # Examples
    ///
    /// ```
    /// // An UltraScale+ package is 45 mm on a side.
    /// let side = rcs_units::Length::millimeters(45.0);
    /// assert!((side.meters() - 0.045).abs() < 1e-12);
    /// ```
    Length, "m", from_meters, meters
);

impl Length {
    /// Creates a length from millimeters.
    #[must_use]
    pub fn millimeters(mm: f64) -> Self {
        Self::from_meters(mm * 1e-3)
    }

    /// Returns the length in millimeters.
    #[must_use]
    pub fn as_millimeters(self) -> f64 {
        self.meters() * 1e3
    }

    /// Creates a length from rack units (1U = 44.45 mm).
    #[must_use]
    pub fn rack_units(u: f64) -> Self {
        Self::millimeters(u * 44.45)
    }
}

scalar_quantity!(
    /// An area in square meters.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::Length;
    /// let a = Length::millimeters(42.5) * Length::millimeters(42.5);
    /// assert!((a.square_meters() - 1.80625e-3).abs() < 1e-12);
    /// ```
    Area, "m²", from_square_meters, square_meters
);

scalar_quantity!(
    /// A volume in cubic meters.
    ///
    /// # Examples
    ///
    /// ```
    /// // 250 ml of water, the paper's per-FPGA-per-minute requirement.
    /// let v = rcs_units::Volume::from_cubic_meters(2.5e-4);
    /// assert!((v.as_liters() - 0.25).abs() < 1e-12);
    /// ```
    Volume, "m³", from_cubic_meters, cubic_meters
);

impl Volume {
    /// Returns the volume in liters.
    #[must_use]
    pub fn as_liters(self) -> f64 {
        self.cubic_meters() * 1e3
    }
}

impl core::ops::Mul<Length> for Length {
    type Output = Area;
    fn mul(self, rhs: Length) -> Area {
        Area::from_square_meters(self.meters() * rhs.meters())
    }
}

impl core::ops::Mul<Length> for Area {
    type Output = Volume;
    fn mul(self, rhs: Length) -> Volume {
        Volume::from_cubic_meters(self.square_meters() * rhs.meters())
    }
}

impl core::ops::Mul<Area> for Length {
    type Output = Volume;
    fn mul(self, rhs: Area) -> Volume {
        rhs * self
    }
}

impl core::ops::Div<Length> for Area {
    type Output = Length;
    fn div(self, rhs: Length) -> Length {
        Length::from_meters(self.square_meters() / rhs.meters())
    }
}

impl core::ops::Div<Area> for Volume {
    type Output = Length;
    fn div(self, rhs: Area) -> Length {
        Length::from_meters(self.cubic_meters() / rhs.square_meters())
    }
}

impl core::ops::Div<Length> for Volume {
    type Output = Area;
    fn div(self, rhs: Length) -> Area {
        Area::from_square_meters(self.cubic_meters() / rhs.meters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_products() {
        let l = Length::from_meters(2.0);
        let a = l * Length::from_meters(3.0);
        let v = a * Length::from_meters(0.5);
        assert_eq!(a.square_meters(), 6.0);
        assert_eq!(v.cubic_meters(), 3.0);
        assert_eq!((v / a).meters(), 0.5);
        assert_eq!((v / l).square_meters(), 1.5);
    }

    #[test]
    fn rack_units() {
        // 3U module height, the paper's CM form factor.
        assert!((Length::rack_units(3.0).as_millimeters() - 133.35).abs() < 1e-9);
    }
}
