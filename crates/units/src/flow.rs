//! Flow rates and velocities.

use crate::geometry::Area;
use crate::macros::scalar_quantity;
use crate::power::Seconds;
use crate::properties::Density;
use crate::Volume;

scalar_quantity!(
    /// Volumetric flow rate in cubic meters per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::VolumeFlow;
    /// // The paper: one modern FPGA needs 1 m³ of air per minute.
    /// let air = VolumeFlow::liters_per_minute(1000.0);
    /// assert!((air.cubic_meters_per_second() - 1.0 / 60.0).abs() < 1e-12);
    /// ```
    VolumeFlow, "m³/s", from_cubic_meters_per_second, cubic_meters_per_second
);

impl VolumeFlow {
    /// Creates a flow from liters per minute.
    #[must_use]
    pub fn liters_per_minute(lpm: f64) -> Self {
        Self::from_cubic_meters_per_second(lpm * 1e-3 / 60.0)
    }

    /// Returns the flow in liters per minute.
    #[must_use]
    pub fn as_liters_per_minute(self) -> f64 {
        self.cubic_meters_per_second() * 60.0e3
    }
}

scalar_quantity!(
    /// Mass flow rate in kilograms per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Density, VolumeFlow};
    /// let q = VolumeFlow::liters_per_minute(15.0);
    /// let m = q * Density::new(870.0); // mineral oil
    /// assert!((m.kg_per_second() - 0.2175).abs() < 1e-9);
    /// ```
    MassFlow, "kg/s", from_kg_per_second, kg_per_second
);

scalar_quantity!(
    /// A velocity in meters per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_units::{Area, VolumeFlow};
    /// let v = VolumeFlow::liters_per_minute(60.0) / Area::from_square_meters(10e-4);
    /// assert!((v.meters_per_second() - 1.0).abs() < 1e-9);
    /// ```
    Velocity, "m/s", from_meters_per_second, meters_per_second
);

impl core::ops::Mul<Density> for VolumeFlow {
    type Output = MassFlow;
    fn mul(self, rhs: Density) -> MassFlow {
        MassFlow::from_kg_per_second(self.cubic_meters_per_second() * rhs.kg_per_cubic_meter())
    }
}

impl core::ops::Mul<VolumeFlow> for Density {
    type Output = MassFlow;
    fn mul(self, rhs: VolumeFlow) -> MassFlow {
        rhs * self
    }
}

impl core::ops::Div<Density> for MassFlow {
    type Output = VolumeFlow;
    fn div(self, rhs: Density) -> VolumeFlow {
        VolumeFlow::from_cubic_meters_per_second(self.kg_per_second() / rhs.kg_per_cubic_meter())
    }
}

impl core::ops::Div<Area> for VolumeFlow {
    type Output = Velocity;
    fn div(self, rhs: Area) -> Velocity {
        Velocity::from_meters_per_second(self.cubic_meters_per_second() / rhs.square_meters())
    }
}

impl core::ops::Mul<Area> for Velocity {
    type Output = VolumeFlow;
    fn mul(self, rhs: Area) -> VolumeFlow {
        VolumeFlow::from_cubic_meters_per_second(self.meters_per_second() * rhs.square_meters())
    }
}

impl core::ops::Mul<Velocity> for Area {
    type Output = VolumeFlow;
    fn mul(self, rhs: Velocity) -> VolumeFlow {
        rhs * self
    }
}

impl core::ops::Mul<Seconds> for VolumeFlow {
    type Output = Volume;
    fn mul(self, rhs: Seconds) -> Volume {
        Volume::from_cubic_meters(self.cubic_meters_per_second() * rhs.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_volume_round_trip() {
        let q = VolumeFlow::liters_per_minute(20.0);
        let rho = Density::new(998.0);
        let back = (q * rho) / rho;
        assert!((back.cubic_meters_per_second() - q.cubic_meters_per_second()).abs() < 1e-15);
    }

    #[test]
    fn velocity_area_round_trip() {
        let a = Area::from_square_meters(2.5e-4);
        let v = Velocity::from_meters_per_second(1.4);
        let q = v * a;
        assert!(((q / a).meters_per_second() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn accumulated_volume() {
        let q = VolumeFlow::liters_per_minute(0.25);
        let v = q * Seconds::minutes(1.0);
        assert!((v.as_liters() - 0.25).abs() < 1e-12);
    }
}
