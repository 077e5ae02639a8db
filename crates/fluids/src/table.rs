//! Tabulated, temperature-interpolated fluid properties.

use crate::error::FluidError;
use crate::state::FluidState;
use rcs_units::{Celsius, Density, DynamicViscosity, SpecificHeat, ThermalConductivity};

/// One tabulated state point of a fluid.
///
/// Rows are interpolated linearly in temperature, except viscosity which is
/// interpolated linearly in `ln(mu)` — liquid viscosity decays roughly
/// exponentially with temperature, so log-linear interpolation tracks real
/// oils far better between sparse anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropertyRow {
    /// Temperature of this state point.
    pub temperature: Celsius,
    /// Mass density at this temperature.
    pub density: Density,
    /// Specific heat capacity at this temperature.
    pub specific_heat: SpecificHeat,
    /// Thermal conductivity at this temperature.
    pub conductivity: ThermalConductivity,
    /// Dynamic viscosity at this temperature.
    pub viscosity: DynamicViscosity,
}

impl PropertyRow {
    /// Convenience constructor from raw SI values.
    ///
    /// # Examples
    ///
    /// ```
    /// let row = rcs_fluids::PropertyRow::from_si(25.0, 997.0, 4181.0, 0.607, 0.89e-3);
    /// assert_eq!(row.temperature.degrees(), 25.0);
    /// ```
    #[must_use]
    pub fn from_si(t_c: f64, rho: f64, cp: f64, k: f64, mu: f64) -> Self {
        Self {
            temperature: Celsius::new(t_c),
            density: Density::new(rho),
            specific_heat: SpecificHeat::new(cp),
            conductivity: ThermalConductivity::new(k),
            viscosity: DynamicViscosity::new(mu),
        }
    }
}

/// A temperature-indexed table of fluid properties.
///
/// Construction validates monotonicity and positivity; evaluation clamps to
/// the tabulated range.
///
/// # Examples
///
/// ```
/// use rcs_fluids::{PropertyRow, PropertyTable};
/// use rcs_units::Celsius;
///
/// let water = PropertyTable::new(vec![
///     PropertyRow::from_si(0.0, 999.8, 4217.0, 0.561, 1.792e-3),
///     PropertyRow::from_si(50.0, 988.0, 4181.0, 0.644, 0.547e-3),
/// ])?;
/// let s = water.state(Celsius::new(25.0));
/// assert!(s.density.kg_per_cubic_meter() > 988.0);
/// # Ok::<(), rcs_fluids::FluidError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyTable {
    rows: Vec<PropertyRow>,
}

impl PropertyTable {
    /// Builds a table from rows sorted by strictly increasing temperature.
    ///
    /// # Errors
    ///
    /// Returns [`FluidError::TableTooShort`] for fewer than two rows,
    /// [`FluidError::TableNotSorted`] if temperatures are not strictly
    /// increasing, and [`FluidError::NonPositiveProperty`] if any property
    /// value is zero or negative.
    pub fn new(rows: Vec<PropertyRow>) -> Result<Self, FluidError> {
        if rows.len() < 2 {
            return Err(FluidError::TableTooShort { rows: rows.len() });
        }
        for (i, w) in rows.windows(2).enumerate() {
            if w[1].temperature <= w[0].temperature {
                return Err(FluidError::TableNotSorted { index: i + 1 });
            }
        }
        for (i, r) in rows.iter().enumerate() {
            for (name, v) in [
                ("density", r.density.kg_per_cubic_meter()),
                ("specific heat", r.specific_heat.joules_per_kg_kelvin()),
                ("conductivity", r.conductivity.watts_per_meter_kelvin()),
                ("viscosity", r.viscosity.pascal_seconds()),
            ] {
                if v <= 0.0 || v.is_nan() {
                    return Err(FluidError::NonPositiveProperty {
                        property: name,
                        index: i,
                    });
                }
            }
        }
        Ok(Self { rows })
    }

    /// Lowest tabulated temperature.
    #[must_use]
    pub(crate) fn min_temperature(&self) -> Celsius {
        self.rows[0].temperature
    }

    /// Highest tabulated temperature.
    #[must_use]
    pub(crate) fn max_temperature(&self) -> Celsius {
        self.rows[self.rows.len() - 1].temperature
    }

    /// Tabulated rows, in increasing temperature order.
    #[must_use]
    pub(crate) fn rows(&self) -> &[PropertyRow] {
        &self.rows
    }

    /// Evaluates the table at `t`, clamping to the tabulated range.
    ///
    /// Clamping matches how such tables are used inside iterative solvers:
    /// a Newton step may momentarily overshoot the physical range and must
    /// still receive finite, physical property values.
    #[must_use]
    pub fn state(&self, t: Celsius) -> FluidState {
        let t_clamped = Celsius::new(t.degrees().clamp(
            self.min_temperature().degrees(),
            self.max_temperature().degrees(),
        ));
        self.interpolate(t_clamped)
    }

    fn interpolate(&self, t: Celsius) -> FluidState {
        let idx = match self.rows.iter().position(|r| r.temperature >= t) {
            Some(0) => 0,
            Some(i) => i - 1,
            None => self.rows.len() - 2,
        };
        let lo = &self.rows[idx.min(self.rows.len() - 2)];
        let hi = &self.rows[idx.min(self.rows.len() - 2) + 1];
        let span = (hi.temperature - lo.temperature).kelvins();
        let f = if span > 0.0 {
            ((t - lo.temperature).kelvins() / span).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let lerp = |a: f64, b: f64| a + (b - a) * f;
        let mu = (lo.viscosity.pascal_seconds().ln()
            + (hi.viscosity.pascal_seconds().ln() - lo.viscosity.pascal_seconds().ln()) * f)
            .exp();
        FluidState {
            temperature: t,
            density: Density::new(lerp(
                lo.density.kg_per_cubic_meter(),
                hi.density.kg_per_cubic_meter(),
            )),
            specific_heat: SpecificHeat::new(lerp(
                lo.specific_heat.joules_per_kg_kelvin(),
                hi.specific_heat.joules_per_kg_kelvin(),
            )),
            conductivity: ThermalConductivity::new(lerp(
                lo.conductivity.watts_per_meter_kelvin(),
                hi.conductivity.watts_per_meter_kelvin(),
            )),
            viscosity: DynamicViscosity::new(mu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_row() -> PropertyTable {
        PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 1000.0, 4000.0, 0.5, 2.0e-3),
            PropertyRow::from_si(100.0, 900.0, 4200.0, 0.7, 0.5e-3),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_short_table() {
        let err = PropertyTable::new(vec![PropertyRow::from_si(0.0, 1.0, 1.0, 1.0, 1.0)]);
        assert_eq!(err.unwrap_err(), FluidError::TableTooShort { rows: 1 });
    }

    #[test]
    fn rejects_unsorted_table() {
        let err = PropertyTable::new(vec![
            PropertyRow::from_si(50.0, 1.0, 1.0, 1.0, 1.0),
            PropertyRow::from_si(50.0, 1.0, 1.0, 1.0, 1.0),
        ]);
        assert_eq!(err.unwrap_err(), FluidError::TableNotSorted { index: 1 });
    }

    #[test]
    fn rejects_nonpositive_property() {
        let err = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 1.0, 1.0, 1.0, 1.0),
            PropertyRow::from_si(50.0, 1.0, 0.0, 1.0, 1.0),
        ]);
        assert!(matches!(
            err.unwrap_err(),
            FluidError::NonPositiveProperty {
                property: "specific heat",
                index: 1
            }
        ));
    }

    #[test]
    fn interpolates_midpoint_linearly() {
        let s = two_row().state(Celsius::new(50.0));
        assert!((s.density.kg_per_cubic_meter() - 950.0).abs() < 1e-9);
        assert!((s.specific_heat.joules_per_kg_kelvin() - 4100.0).abs() < 1e-9);
        assert!((s.conductivity.watts_per_meter_kelvin() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn viscosity_interpolates_log_linearly() {
        let s = two_row().state(Celsius::new(50.0));
        let expected = (2.0e-3f64.ln() * 0.5 + 0.5e-3f64.ln() * 0.5).exp();
        assert!((s.viscosity.pascal_seconds() - expected).abs() < 1e-12);
        // log-linear midpoint is below the arithmetic mean
        assert!(s.viscosity.pascal_seconds() < 1.25e-3);
    }

    #[test]
    fn clamps_out_of_range() {
        let t = two_row();
        let low = t.state(Celsius::new(-40.0));
        let high = t.state(Celsius::new(140.0));
        assert!((low.density.kg_per_cubic_meter() - 1000.0).abs() < 1e-9);
        assert!((high.density.kg_per_cubic_meter() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn endpoints_are_exact() {
        let t = two_row();
        let s = t.state(Celsius::new(0.0));
        assert!((s.viscosity.pascal_seconds() - 2.0e-3).abs() < 1e-15);
        let s = t.state(Celsius::new(100.0));
        assert!((s.viscosity.pascal_seconds() - 0.5e-3).abs() < 1e-15);
    }
}
