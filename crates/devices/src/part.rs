//! The FPGA part catalog.

use rcs_units::{Frequency, Length, Power, ThermalResistance};

use crate::family::FpgaFamily;

/// One packaged FPGA part: capacity, design clock, package geometry,
/// thermal path and power coefficients.
///
/// The four named constructors cover the specific parts the paper's
/// modules are built from; `FpgaPart::ultrascale2_projected` extrapolates
/// the next family the conclusions speculate about. Capacity and power
/// figures are calibrated against the paper's anchors (see `DESIGN.md`):
/// a 32-chip Taygeta module drawing 1661 W, a 96-chip SKAT module drawing
/// 8736 W at 91 W per chip, and a ×2.9 per-chip performance step from
/// Virtex-7 to Kintex UltraScale.
///
/// # Examples
///
/// ```
/// let skat_chip = rcs_devices::FpgaPart::xcku095();
/// assert_eq!(skat_chip.package_side().as_millimeters(), 42.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaPart {
    name: String,
    family: FpgaFamily,
    logic_cells: u64,
    design_clock: Frequency,
    package_side: Length,
    r_junction_case: ThermalResistance,
    /// Static (leakage) power at 25 °C junction, full configuration.
    static_power_25: Power,
    /// Dynamic power at 100 % utilization and design clock.
    dynamic_power_full: Power,
}

impl FpgaPart {
    /// Builds a custom part.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub(crate) fn custom(
        name: impl Into<String>,
        family: FpgaFamily,
        logic_cells: u64,
        design_clock: Frequency,
        package_side: Length,
        r_junction_case: ThermalResistance,
        static_power_25: Power,
        dynamic_power_full: Power,
    ) -> Self {
        Self {
            name: name.into(),
            family,
            logic_cells,
            design_clock,
            package_side,
            r_junction_case,
            static_power_25,
            dynamic_power_full,
        }
    }

    /// Virtex-6 XC6VLX240T (FF1759) — the Rigel-2 module's part.
    #[must_use]
    pub fn xc6vlx240t() -> Self {
        Self::custom(
            "XC6VLX240T",
            FpgaFamily::Virtex6,
            241_152,
            Frequency::megahertz(300.0),
            Length::millimeters(42.5),
            ThermalResistance::from_kelvin_per_watt(0.12),
            Power::from_watts(5.5),
            Power::from_watts(21.0),
        )
    }

    /// Virtex-7 XC7VX485T (FFG1761) — the Taygeta module's part.
    #[must_use]
    pub fn xc7vx485t() -> Self {
        Self::custom(
            "XC7VX485T",
            FpgaFamily::Virtex7,
            485_760,
            Frequency::megahertz(350.0),
            Length::millimeters(45.0),
            ThermalResistance::from_kelvin_per_watt(0.11),
            Power::from_watts(7.0),
            Power::from_watts(23.3),
        )
    }

    /// Kintex UltraScale XCKU095 — eight per SKAT computational circuit
    /// board; 91 W measured in operating mode (§3).
    #[must_use]
    pub fn xcku095() -> Self {
        Self::custom(
            "XCKU095",
            FpgaFamily::UltraScale,
            1_176_000,
            Frequency::megahertz(420.0),
            Length::millimeters(42.5),
            ThermalResistance::from_kelvin_per_watt(0.10),
            Power::from_watts(14.0),
            Power::from_watts(73.0),
        )
    }

    /// A VU9P-class UltraScale+ part — the SKAT+ design's 45 mm package
    /// that forces the CCB redesign of §4.
    #[must_use]
    pub fn vu9p_class() -> Self {
        Self::custom(
            "XCVU9P-class",
            FpgaFamily::UltraScalePlus,
            2_586_000,
            Frequency::megahertz(575.0),
            Length::millimeters(45.0),
            ThermalResistance::from_kelvin_per_watt(0.09),
            Power::from_watts(17.0),
            Power::from_watts(100.0),
        )
    }

    /// The paper's speculative "UltraScale 2" next generation, extrapolated
    /// with the same capacity/clock growth rate as the previous step.
    #[must_use]
    pub(crate) fn ultrascale2_projected() -> Self {
        Self::custom(
            "UltraScale-2 (projected)",
            FpgaFamily::UltraScale2,
            5_500_000,
            Frequency::megahertz(700.0),
            Length::millimeters(45.0),
            ThermalResistance::from_kelvin_per_watt(0.08),
            Power::from_watts(22.0),
            Power::from_watts(118.0),
        )
    }

    /// The representative part of each family, oldest first.
    #[must_use]
    pub fn catalog() -> Vec<FpgaPart> {
        vec![
            Self::xc6vlx240t(),
            Self::xc7vx485t(),
            Self::xcku095(),
            Self::vu9p_class(),
            Self::ultrascale2_projected(),
        ]
    }

    /// Part name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// System logic cells.
    #[must_use]
    pub fn logic_cells(&self) -> u64 {
        self.logic_cells
    }

    /// Design (achievable pipeline) clock for RCS task structures.
    #[must_use]
    pub(crate) fn design_clock(&self) -> Frequency {
        self.design_clock
    }

    /// Side length of the (square) BGA package.
    #[must_use]
    pub fn package_side(&self) -> Length {
        self.package_side
    }

    /// Junction-to-case thermal resistance.
    #[must_use]
    pub fn r_junction_case(&self) -> ThermalResistance {
        self.r_junction_case
    }

    /// Static (leakage) power at 25 °C junction.
    #[must_use]
    pub(crate) fn static_power_25(&self) -> Power {
        self.static_power_25
    }

    /// Dynamic power at full utilization and design clock.
    #[must_use]
    pub(crate) fn dynamic_power_full(&self) -> Power {
        self.dynamic_power_full
    }
}

impl core::fmt::Display for FpgaPart {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} ({})", self.name, self.family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_capacity_grows_monotonically() {
        let parts = FpgaPart::catalog();
        for w in parts.windows(2) {
            assert!(
                w[1].logic_cells() > w[0].logic_cells(),
                "{} vs {}",
                w[1],
                w[0]
            );
            assert!(w[1].design_clock() > w[0].design_clock());
        }
    }

    #[test]
    fn package_sizes_match_the_paper() {
        // §4: SKAT FPGAs are 42.5 x 42.5 mm, SKAT+ FPGAs are 45 x 45 mm.
        assert_eq!(FpgaPart::xcku095().package_side().as_millimeters(), 42.5);
        assert_eq!(FpgaPart::vu9p_class().package_side().as_millimeters(), 45.0);
    }

    #[test]
    fn junction_case_resistance_shrinks_with_generation() {
        let parts = FpgaPart::catalog();
        for w in parts.windows(2) {
            assert!(
                w[1].r_junction_case().kelvin_per_watt()
                    <= w[0].r_junction_case().kelvin_per_watt()
            );
        }
    }

    #[test]
    fn display_includes_family() {
        assert_eq!(FpgaPart::xcku095().to_string(), "XCKU095 (UltraScale)");
    }
}
