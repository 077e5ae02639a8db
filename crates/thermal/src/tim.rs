//! Thermal interface materials, including immersion washout degradation.
//!
//! §2 of the paper lists as a key failing of existing immersion
//! technologies that "the thermal paste between FPGA chips and heat-sinks
//! is washed out during long-term maintenance", and §3 answers it: "SRC
//! SC & NC specialists have created an effective thermal interface ... its
//! coefficient of heat conductivity can remain permanently high."
//! [`TimMaterial`] models both: ordinary silicone paste whose filler
//! migrates into the surrounding oil over months of immersion, and the
//! SRC-designed interface that does not.

use rcs_units::{Area, Length, Seconds, ThermalResistance};

/// Exposure state used to evaluate interface aging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimAging {
    /// Cumulative service time.
    pub service_time: Seconds,
    /// `true` if the interface is immersed in circulating oil (open-loop
    /// cooling); `false` for air or cold-plate systems.
    pub immersed_in_oil: bool,
}

impl TimAging {
    /// A fresh, never-exposed interface.
    #[must_use]
    pub fn fresh() -> Self {
        Self {
            service_time: Seconds::new(0.0),
            immersed_in_oil: false,
        }
    }

    /// `months` of continuous immersed service.
    #[must_use]
    pub fn immersed_months(months: f64) -> Self {
        Self {
            service_time: Seconds::days(months * 30.44),
            immersed_in_oil: true,
        }
    }
}

/// Thermal interface material family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimMaterial {
    /// Commodity silicone-based thermal grease. Good when fresh, but its
    /// filler is soluble in mineral oil: conductivity decays over immersed
    /// months toward a residual floor.
    StandardPaste,
    /// The SRC-designed washout-proof interface (§3): slightly better than
    /// fresh paste, and stable in oil indefinitely.
    SrcDesigned,
    /// An elastomeric gap pad: washout-immune but mediocre conductivity.
    GapPad,
}

impl TimMaterial {
    /// Bulk thermal conductivity of the fresh material in W/(m·K).
    #[must_use]
    pub fn fresh_conductivity_w_per_m_k(self) -> f64 {
        match self {
            Self::StandardPaste => 3.5,
            Self::SrcDesigned => 4.0,
            Self::GapPad => 1.5,
        }
    }

    /// `true` if the material's filler washes out in circulating oil.
    #[must_use]
    pub(crate) fn is_washout_susceptible(self) -> bool {
        matches!(self, Self::StandardPaste)
    }

    /// Effective conductivity after the given aging.
    ///
    /// Susceptible materials decay exponentially with time constant
    /// ~6 months toward 25 % of fresh conductivity; immune materials (and
    /// any material not immersed) keep full conductivity.
    #[must_use]
    pub fn conductivity_after(self, aging: TimAging) -> f64 {
        let k0 = self.fresh_conductivity_w_per_m_k();
        if !aging.immersed_in_oil || !self.is_washout_susceptible() {
            return k0;
        }
        const FLOOR: f64 = 0.25;
        let tau = Seconds::days(6.0 * 30.44).seconds();
        let f = FLOOR + (1.0 - FLOOR) * (-aging.service_time.seconds() / tau).exp();
        k0 * f
    }
}

impl core::fmt::Display for TimMaterial {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::StandardPaste => "standard thermal paste",
            Self::SrcDesigned => "SRC washout-proof interface",
            Self::GapPad => "elastomeric gap pad",
        };
        f.write_str(name)
    }
}

/// One applied thermal interface: a material at a bond-line thickness over
/// a contact area.
///
/// # Examples
///
/// ```
/// use rcs_thermal::{ThermalInterface, TimAging, TimMaterial};
/// use rcs_units::Length;
///
/// let tim = ThermalInterface::new(
///     TimMaterial::StandardPaste,
///     Length::millimeters(0.05),
///     Length::millimeters(42.5) * Length::millimeters(42.5),
/// );
/// let fresh = tim.resistance(TimAging::fresh());
/// let aged = tim.resistance(TimAging::immersed_months(24.0));
/// assert!(aged.kelvin_per_watt() > 3.0 * fresh.kelvin_per_watt());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalInterface {
    material: TimMaterial,
    thickness: Length,
    area: Area,
}

impl ThermalInterface {
    /// Creates an interface from material, bond-line thickness and contact
    /// area.
    ///
    /// # Panics
    ///
    /// Panics if thickness or area is not positive.
    #[must_use]
    pub fn new(material: TimMaterial, thickness: Length, area: Area) -> Self {
        assert!(thickness.meters() > 0.0, "TIM thickness must be positive");
        assert!(area.square_meters() > 0.0, "TIM area must be positive");
        Self {
            material,
            thickness,
            area,
        }
    }

    /// Conductive resistance `t / (k(t_age) · A)` after the given aging.
    #[must_use]
    pub fn resistance(&self, aging: TimAging) -> ThermalResistance {
        let k = self.material.conductivity_after(aging);
        ThermalResistance::from_kelvin_per_watt(
            self.thickness.meters() / (k * self.area.square_meters()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skat_area() -> Area {
        Length::millimeters(42.5) * Length::millimeters(42.5)
    }

    #[test]
    fn fresh_resistance_hand_checked() {
        let tim = ThermalInterface::new(
            TimMaterial::SrcDesigned,
            Length::millimeters(0.05),
            skat_area(),
        );
        // R = 5e-5 / (4.0 * 1.80625e-3) = 6.92e-3 K/W
        let r = tim.resistance(TimAging::fresh()).kelvin_per_watt();
        assert!((r - 6.92e-3).abs() < 1e-4, "R = {r}");
    }

    #[test]
    fn paste_washes_out_in_oil_only() {
        let m = TimMaterial::StandardPaste;
        let immersed = m.conductivity_after(TimAging::immersed_months(12.0));
        let dry = m.conductivity_after(TimAging {
            service_time: Seconds::days(365.0),
            immersed_in_oil: false,
        });
        assert!(immersed < 0.5 * m.fresh_conductivity_w_per_m_k());
        assert_eq!(dry, m.fresh_conductivity_w_per_m_k());
    }

    #[test]
    fn washout_approaches_floor_not_zero() {
        let m = TimMaterial::StandardPaste;
        let k = m.conductivity_after(TimAging::immersed_months(600.0));
        assert!((k - 0.25 * m.fresh_conductivity_w_per_m_k()).abs() < 1e-6);
    }

    #[test]
    fn src_interface_is_immune() {
        let m = TimMaterial::SrcDesigned;
        let aged = m.conductivity_after(TimAging::immersed_months(60.0));
        assert_eq!(aged, m.fresh_conductivity_w_per_m_k());
    }

    #[test]
    fn washout_is_monotone_in_time() {
        let m = TimMaterial::StandardPaste;
        let mut last = f64::INFINITY;
        for months in [0.0, 1.0, 3.0, 6.0, 12.0, 24.0, 48.0] {
            let k = m.conductivity_after(TimAging::immersed_months(months));
            assert!(k <= last);
            last = k;
        }
    }

    #[test]
    fn gap_pad_worse_than_fresh_paste_better_than_washed_out() {
        let area = skat_area();
        let t = Length::millimeters(0.05);
        let pad = ThermalInterface::new(TimMaterial::GapPad, t, area)
            .resistance(TimAging::immersed_months(24.0));
        let fresh_paste = ThermalInterface::new(TimMaterial::StandardPaste, t, area)
            .resistance(TimAging::fresh());
        let old_paste = ThermalInterface::new(TimMaterial::StandardPaste, t, area)
            .resistance(TimAging::immersed_months(24.0));
        assert!(pad.kelvin_per_watt() > fresh_paste.kelvin_per_watt());
        assert!(pad.kelvin_per_watt() < old_paste.kelvin_per_watt());
    }

    #[test]
    #[should_panic(expected = "thickness must be positive")]
    fn zero_thickness_panics() {
        let _ = ThermalInterface::new(TimMaterial::GapPad, Length::from_meters(0.0), skat_area());
    }
}
