//! The coolant library: every heat-transfer agent discussed in the paper.

use crate::state::FluidState;
use crate::table::{PropertyRow, PropertyTable};
use rcs_units::Celsius;

/// Electrical and handling characteristics of a coolant.
///
/// These are the §2 "strict requirements" on the chemical composition of an
/// immersion heat-transfer agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyTraits {
    /// Dielectric breakdown strength in kV/mm. Water is effectively zero
    /// for immersion purposes (it conducts once contaminated).
    pub dielectric_strength_kv_per_mm: f64,
    /// `true` if a leak onto live electronics is destructive
    /// (electrically conductive coolant).
    pub conductive_leak_hazard: bool,
    /// Long-term parameter stability on a 0 (degrades fast) to 1 (stable)
    /// scale.
    pub stability: f64,
}

/// A named heat-transfer agent: property table plus safety traits.
///
/// # Examples
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_units::Celsius;
///
/// let oil = Coolant::mineral_oil_md45();
/// let s = oil.state(Celsius::new(40.0));
/// assert!(s.density.kg_per_cubic_meter() < 900.0);
/// assert!(oil.safety().dielectric_strength_kv_per_mm > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coolant {
    name: String,
    table: PropertyTable,
    safety: SafetyTraits,
}

impl Coolant {
    /// Dry air at 1 atm, tabulated 0–100 °C.
    #[must_use]
    pub fn air() -> Self {
        let table = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 1.293, 1006.0, 0.0243, 1.72e-5),
            PropertyRow::from_si(25.0, 1.184, 1007.0, 0.0262, 1.85e-5),
            PropertyRow::from_si(50.0, 1.093, 1008.0, 0.0281, 1.96e-5),
            PropertyRow::from_si(75.0, 1.015, 1010.0, 0.0299, 2.07e-5),
            PropertyRow::from_si(100.0, 0.946, 1012.0, 0.0318, 2.17e-5),
        ])
        .expect("static air table is valid");
        Self {
            name: "air".to_owned(),
            table,
            safety: SafetyTraits {
                dielectric_strength_kv_per_mm: 3.0,
                conductive_leak_hazard: false,
                stability: 1.0,
            },
        }
    }

    /// Water, tabulated 0–100 °C.
    #[must_use]
    pub fn water() -> Self {
        let table = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 999.8, 4217.0, 0.561, 1.792e-3),
            PropertyRow::from_si(25.0, 997.0, 4181.0, 0.607, 0.890e-3),
            PropertyRow::from_si(50.0, 988.0, 4181.0, 0.644, 0.547e-3),
            PropertyRow::from_si(75.0, 974.8, 4193.0, 0.666, 0.378e-3),
            PropertyRow::from_si(100.0, 958.4, 4216.0, 0.679, 0.282e-3),
        ])
        .expect("static water table is valid");
        Self {
            name: "water".to_owned(),
            table,
            safety: SafetyTraits {
                dielectric_strength_kv_per_mm: 0.0,
                conductive_leak_hazard: true,
                stability: 0.9,
            },
        }
    }

    /// 30 % propylene glycol in water, the common closed-loop antifreeze.
    #[must_use]
    pub fn glycol30() -> Self {
        let table = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 1032.0, 3720.0, 0.450, 4.5e-3),
            PropertyRow::from_si(25.0, 1021.0, 3780.0, 0.468, 2.0e-3),
            PropertyRow::from_si(50.0, 1008.0, 3840.0, 0.486, 1.1e-3),
            PropertyRow::from_si(75.0, 994.0, 3900.0, 0.498, 0.72e-3),
        ])
        .expect("static glycol table is valid");
        Self {
            name: "30% propylene glycol".to_owned(),
            table,
            safety: SafetyTraits {
                dielectric_strength_kv_per_mm: 0.0,
                conductive_leak_hazard: true,
                stability: 0.85,
            },
        }
    }

    /// MD-4.5 white mineral oil (§4's secondary heat-transfer agent):
    /// roughly a 4.5 cSt light white oil.
    #[must_use]
    pub fn mineral_oil_md45() -> Self {
        let table = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 880.0, 1800.0, 0.135, 22.0e-3),
            PropertyRow::from_si(20.0, 868.0, 1880.0, 0.133, 7.8e-3),
            PropertyRow::from_si(40.0, 856.0, 1950.0, 0.131, 3.85e-3),
            PropertyRow::from_si(60.0, 843.0, 2030.0, 0.129, 2.36e-3),
            PropertyRow::from_si(80.0, 830.0, 2100.0, 0.127, 1.66e-3),
        ])
        .expect("static oil table is valid");
        Self {
            name: "mineral oil MD-4.5".to_owned(),
            table,
            safety: SafetyTraits {
                dielectric_strength_kv_per_mm: 14.0,
                conductive_leak_hazard: false,
                stability: 0.8,
            },
        }
    }

    /// The dielectric coolant designed by SRC SC&NC for the SKAT immersion
    /// bath: §3 requires "best possible dielectric strength, high heat
    /// transfer capacity, maximum possible heat capacity and low viscosity".
    ///
    /// Modeled as a premium light synthetic oil: ~10 % higher specific heat,
    /// ~15 % lower viscosity and higher breakdown strength than commodity
    /// white oil.
    #[must_use]
    pub fn src_dielectric() -> Self {
        let table = PropertyTable::new(vec![
            PropertyRow::from_si(0.0, 852.0, 2000.0, 0.141, 16.0e-3),
            PropertyRow::from_si(20.0, 840.0, 2080.0, 0.139, 6.2e-3),
            PropertyRow::from_si(40.0, 828.0, 2150.0, 0.137, 3.2e-3),
            PropertyRow::from_si(60.0, 816.0, 2230.0, 0.135, 2.0e-3),
            PropertyRow::from_si(80.0, 804.0, 2300.0, 0.133, 1.4e-3),
        ])
        .expect("static dielectric table is valid");
        Self {
            name: "SRC dielectric coolant".to_owned(),
            table,
            safety: SafetyTraits {
                dielectric_strength_kv_per_mm: 18.0,
                conductive_leak_hazard: false,
                stability: 0.95,
            },
        }
    }

    /// Human-readable coolant name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Electrical/fire/handling traits.
    #[must_use]
    pub fn safety(&self) -> &SafetyTraits {
        &self.safety
    }

    /// Evaluates all properties at temperature `t` (clamped to the table
    /// range; see [`PropertyTable::state`]).
    #[must_use]
    pub fn state(&self, t: Celsius) -> FluidState {
        self.table.state(t)
    }

    /// Returns `true` if electronics may be immersed directly in this
    /// coolant: it must be non-conductive with real dielectric strength.
    #[must_use]
    pub fn is_immersion_grade(&self) -> bool {
        !self.safety.conductive_leak_hazard && self.safety.dielectric_strength_kv_per_mm >= 10.0
    }

    /// Returns this coolant after `service_years` of in-bath service.
    ///
    /// §2 requires "stability of the main parameters" of the heat-transfer
    /// liquid. Oils oxidize and polymerize over service: viscosity rises
    /// (up to 15 %/year for a fully unstable fluid) and specific heat
    /// droops slightly, both scaled by the coolant's instability
    /// `1 − stability`. A perfectly stable fluid (`stability == 1`) is
    /// returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `service_years` is negative.
    #[must_use]
    pub fn aged(&self, service_years: f64) -> Self {
        assert!(service_years >= 0.0, "service time must be non-negative");
        let instability = (1.0 - self.safety.stability).clamp(0.0, 1.0);
        if instability == 0.0 || service_years == 0.0 {
            return self.clone();
        }
        let viscosity_factor = 1.0 + 0.15 * instability * service_years;
        let cp_factor = (1.0 - 0.01 * instability * service_years).max(0.8);
        let rows = self
            .table
            .rows()
            .iter()
            .map(|r| PropertyRow {
                temperature: r.temperature,
                density: r.density,
                specific_heat: rcs_units::SpecificHeat::new(
                    r.specific_heat.joules_per_kg_kelvin() * cp_factor,
                ),
                conductivity: r.conductivity,
                viscosity: rcs_units::DynamicViscosity::new(
                    r.viscosity.pascal_seconds() * viscosity_factor,
                ),
            })
            .collect();
        Self {
            name: format!("{} ({service_years:.1} y service)", self.name),
            table: PropertyTable::new(rows).expect("aged table stays valid"),
            safety: self.safety,
        }
    }
}

impl core::fmt::Display for Coolant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_tables_are_physical() {
        for c in [
            Coolant::air(),
            Coolant::water(),
            Coolant::glycol30(),
            Coolant::mineral_oil_md45(),
            Coolant::src_dielectric(),
        ] {
            let s = c.state(Celsius::new(30.0));
            assert!(s.density.kg_per_cubic_meter() > 0.0, "{c}");
            assert!(s.prandtl().value() > 0.0, "{c}");
        }
    }

    #[test]
    fn air_prandtl_near_0_7() {
        let pr = Coolant::air().state(Celsius::new(25.0)).prandtl().value();
        assert!((pr - 0.71).abs() < 0.05, "Pr_air = {pr}");
    }

    #[test]
    fn oil_prandtl_much_larger_than_water() {
        let t = Celsius::new(40.0);
        let oil = Coolant::mineral_oil_md45().state(t).prandtl().value();
        let water = Coolant::water().state(t).prandtl().value();
        assert!(oil > 10.0 * water);
    }

    #[test]
    fn only_oils_are_immersion_grade() {
        assert!(Coolant::mineral_oil_md45().is_immersion_grade());
        assert!(Coolant::src_dielectric().is_immersion_grade());
        assert!(!Coolant::water().is_immersion_grade());
        assert!(!Coolant::glycol30().is_immersion_grade());
        assert!(!Coolant::air().is_immersion_grade()); // gas, ~3 kV/mm
    }

    #[test]
    fn src_coolant_beats_commodity_oil() {
        let t = Celsius::new(40.0);
        let md = Coolant::mineral_oil_md45().state(t);
        let src = Coolant::src_dielectric().state(t);
        assert!(src.specific_heat.joules_per_kg_kelvin() > md.specific_heat.joules_per_kg_kelvin());
        assert!(src.viscosity.pascal_seconds() < md.viscosity.pascal_seconds());
        assert!(
            Coolant::src_dielectric()
                .safety()
                .dielectric_strength_kv_per_mm
                > Coolant::mineral_oil_md45()
                    .safety()
                    .dielectric_strength_kv_per_mm
        );
    }

    #[test]
    fn oil_viscosity_decreases_with_temperature() {
        let c = Coolant::mineral_oil_md45();
        let mut last = f64::INFINITY;
        for t in [0.0, 20.0, 40.0, 60.0, 80.0] {
            let mu = c.state(Celsius::new(t)).viscosity.pascal_seconds();
            assert!(mu < last);
            last = mu;
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Coolant::water().to_string(), "water");
    }

    #[test]
    fn aging_thickens_oil_monotonically() {
        let fresh = Coolant::mineral_oil_md45();
        let t = Celsius::new(40.0);
        let mut last = fresh.state(t).viscosity.pascal_seconds();
        for years in [1.0, 2.0, 5.0] {
            let mu = fresh.aged(years).state(t).viscosity.pascal_seconds();
            assert!(mu > last, "{years} y");
            last = mu;
        }
        // specific heat droops but is floored
        assert!(
            fresh
                .aged(5.0)
                .state(t)
                .specific_heat
                .joules_per_kg_kelvin()
                < fresh.state(t).specific_heat.joules_per_kg_kelvin()
        );
    }

    #[test]
    fn src_coolant_ages_slower_than_commodity_oil() {
        // §3's designed coolant holds its parameters: after 5 years its
        // relative viscosity growth is well below MD-4.5's.
        let t = Celsius::new(40.0);
        let growth = |c: &Coolant| {
            c.aged(5.0).state(t).viscosity.pascal_seconds() / c.state(t).viscosity.pascal_seconds()
        };
        let md = growth(&Coolant::mineral_oil_md45());
        let src = growth(&Coolant::src_dielectric());
        assert!(src < md, "SRC x{src} vs MD x{md}");
        assert!((src - 1.0) < 0.3 * (md - 1.0));
    }

    #[test]
    fn zero_service_is_identity() {
        let c = Coolant::mineral_oil_md45();
        assert_eq!(c.aged(0.0), c);
        // fully stable fluids never change
        let mut stable = Coolant::water();
        stable.safety.stability = 1.0;
        assert_eq!(
            stable.aged(10.0).state(Celsius::new(25.0)),
            stable.state(Celsius::new(25.0))
        );
    }
}
