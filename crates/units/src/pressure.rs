//! Pressures and pressure-flow products.

use crate::flow::VolumeFlow;
use crate::macros::scalar_quantity;
use crate::power::Power;

scalar_quantity!(
    /// A pressure (or pressure difference) in pascals.
    ///
    /// Hydraulic solvers in `rcs-hydraulics` express pump heads and branch
    /// losses in pascals; multiply by a [`VolumeFlow`] to obtain hydraulic
    /// power.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Pressure, VolumeFlow};
    /// let dp = Pressure::kilopascals(50.0);
    /// let q = VolumeFlow::liters_per_minute(60.0);
    /// assert!((dp * q).watts() - 50.0 < 1e-9);
    /// ```
    Pressure, "Pa", from_pascals, pascals
);

impl Pressure {
    /// Creates a pressure from kilopascals.
    #[must_use]
    pub fn kilopascals(kpa: f64) -> Self {
        Self::from_pascals(kpa * 1e3)
    }

    /// Returns the pressure in kilopascals.
    #[must_use]
    pub fn as_kilopascals(self) -> f64 {
        self.pascals() / 1e3
    }
}

impl core::ops::Mul<VolumeFlow> for Pressure {
    type Output = Power;
    fn mul(self, rhs: VolumeFlow) -> Power {
        Power::from_watts(self.pascals() * rhs.cubic_meters_per_second())
    }
}

impl core::ops::Mul<Pressure> for VolumeFlow {
    type Output = Power;
    fn mul(self, rhs: Pressure) -> Power {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydraulic_power() {
        let p = Pressure::kilopascals(100.0) * VolumeFlow::from_cubic_meters_per_second(1e-3);
        assert!((p.watts() - 100.0).abs() < 1e-9);
    }
}
