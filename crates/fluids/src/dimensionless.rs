//! Dimensionless groups used by the convection correlations.

use rcs_units::{HeatTransferCoeff, Length, ThermalConductivity, Velocity};

use crate::state::FluidState;

macro_rules! dimensionless {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw dimensionless value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw dimensionless value.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(p) = f.precision() {
                    write!(f, "{} = {:.*}", stringify!($name), p, self.0)
                } else {
                    write!(f, "{} = {}", stringify!($name), self.0)
                }
            }
        }
    };
}

dimensionless!(
    /// Reynolds number: ratio of inertial to viscous forces.
    ///
    /// Values above roughly 4000 indicate turbulent duct flow; the paper's
    /// pin-fin heat sink is designed to trip local turbulence at much lower
    /// channel Reynolds numbers.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_fluids::{Coolant, Reynolds};
    /// use rcs_units::{Celsius, Length, Velocity};
    ///
    /// let oil = Coolant::mineral_oil_md45().state(Celsius::new(40.0));
    /// let re = Reynolds::from_flow(
    ///     &oil,
    ///     Velocity::from_meters_per_second(0.5),
    ///     Length::millimeters(8.0),
    /// );
    /// assert!(re.value() < 4000.0); // oil micro-channels stay laminar-ish
    /// ```
    Reynolds
);

impl Reynolds {
    /// Computes `Re = rho * v * L / mu` for the given state, velocity and
    /// characteristic length.
    #[must_use]
    pub fn from_flow(state: &FluidState, velocity: Velocity, characteristic: Length) -> Self {
        Self(
            state.density.kg_per_cubic_meter()
                * velocity.meters_per_second().abs()
                * characteristic.meters()
                / state.viscosity.pascal_seconds(),
        )
    }
}

dimensionless!(
    /// Prandtl number: ratio of momentum to thermal diffusivity.
    ///
    /// Air sits near 0.7, water near 6, and mineral oils range from tens to
    /// hundreds — which is why oil-side convection dominates immersion
    /// design.
    Prandtl
);

dimensionless!(
    /// Nusselt number: dimensionless convective enhancement over conduction.
    ///
    /// Convert to a heat-transfer coefficient with [`Nusselt::to_htc`].
    Nusselt
);

impl Nusselt {
    /// Converts to a heat-transfer coefficient: `h = Nu * k / L`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rcs_fluids::Nusselt;
    /// use rcs_units::{Length, ThermalConductivity};
    ///
    /// let h = Nusselt::new(100.0)
    ///     .to_htc(ThermalConductivity::new(0.6), Length::millimeters(10.0));
    /// assert!((h.watts_per_square_meter_kelvin() - 6000.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn to_htc(
        self,
        conductivity: ThermalConductivity,
        characteristic: Length,
    ) -> HeatTransferCoeff {
        HeatTransferCoeff::new(
            self.0 * conductivity.watts_per_meter_kelvin() / characteristic.meters(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_units::{Celsius, Density, DynamicViscosity, SpecificHeat};

    fn state(rho: f64, mu: f64) -> FluidState {
        FluidState {
            temperature: Celsius::new(25.0),
            density: Density::new(rho),
            specific_heat: SpecificHeat::new(4181.0),
            conductivity: ThermalConductivity::new(0.607),
            viscosity: DynamicViscosity::new(mu),
        }
    }

    #[test]
    fn reynolds_hand_computed() {
        let s = state(1000.0, 1e-3);
        let re = Reynolds::from_flow(
            &s,
            Velocity::from_meters_per_second(1.0),
            Length::from_meters(0.01),
        );
        assert!((re.value() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn reynolds_uses_absolute_velocity() {
        let s = state(1000.0, 1e-3);
        let re = Reynolds::from_flow(
            &s,
            Velocity::from_meters_per_second(-1.0),
            Length::from_meters(0.01),
        );
        assert!(re.value() > 0.0);
    }

    #[test]
    fn nusselt_to_htc() {
        let h = Nusselt::new(4.36).to_htc(ThermalConductivity::new(0.13), Length::millimeters(5.0));
        assert!((h.watts_per_square_meter_kelvin() - 113.36).abs() < 0.1);
    }

    #[test]
    fn display_includes_name() {
        assert_eq!(format!("{:.1}", Nusselt::new(3.66)), "Nusselt = 3.7");
    }
}
