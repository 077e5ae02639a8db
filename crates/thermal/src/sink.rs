//! Heat-sink geometries: bare lids, plate fins and the paper's pin-fin
//! turbulator design.
//!
//! §3 of the paper: "Specialists at SRC SC & NC have performed heat
//! engineering research and suggested a fundamentally new design of a
//! heat-sink with original solder pins which create a local turbulent flow
//! of the heat-transfer agent." The [`PinFinSink`] models that geometry: a
//! staggered field of cylindrical pins whose inter-pin acceleration raises
//! the local Reynolds number, evaluated with the Zukauskas bank
//! correlation.

use rcs_fluids::{correlations, FluidState};
use rcs_units::{Area, Length, ThermalResistance, Velocity};

/// Fin/base material of a heat sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkMaterial {
    /// Aluminum alloy, k ≈ 205 W/(m·K).
    Aluminum,
    /// Copper, k ≈ 400 W/(m·K).
    Copper,
}

impl SinkMaterial {
    /// Thermal conductivity of the material in W/(m·K).
    #[must_use]
    pub(crate) fn conductivity_w_per_m_k(self) -> f64 {
        match self {
            Self::Aluminum => 205.0,
            Self::Copper => 400.0,
        }
    }
}

/// A package lid with no sink at all: convection from the bare top area
/// only. The baseline the paper's sinks are compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarePlate {
    /// Exposed (wetted) area.
    pub area: Area,
    /// Streamwise length of the plate, the characteristic length for the
    /// flat-plate correlation.
    pub length: Length,
}

impl BarePlate {
    /// Convective resistance of the bare plate in the given flow.
    #[must_use]
    pub(crate) fn resistance(&self, state: &FluidState, velocity: Velocity) -> ThermalResistance {
        let h = correlations::htc_flat_plate(state, velocity, self.length);
        (h * self.area).to_resistance()
    }
}

/// A conventional straight plate-fin sink with parallel channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateFinSink {
    /// Base footprint width (across the flow).
    pub width: Length,
    /// Base footprint length (along the flow).
    pub length: Length,
    /// Fin height above the base.
    pub fin_height: Length,
    /// Fin thickness.
    pub fin_thickness: Length,
    /// Number of fins.
    pub fin_count: usize,
    /// Material of base and fins.
    pub material: SinkMaterial,
}

impl PlateFinSink {
    /// A tall air-cooling sink of the kind fitted to Rigel-2 / Taygeta
    /// boards: 40 mm fins on the package footprint.
    #[must_use]
    pub fn air_tower_default() -> Self {
        Self {
            width: Length::millimeters(45.0),
            length: Length::millimeters(45.0),
            fin_height: Length::millimeters(40.0),
            fin_thickness: Length::millimeters(0.8),
            fin_count: 18,
            material: SinkMaterial::Aluminum,
        }
    }

    /// Gap between adjacent fins.
    #[must_use]
    pub(crate) fn channel_width(&self) -> Length {
        let fins = self.fin_count.max(1) as f64;
        let total_fin = self.fin_thickness * fins;
        Length::from_meters(((self.width - total_fin) / fins).meters().max(1e-5))
    }

    /// Total wetted fin area (both faces of every fin).
    #[must_use]
    pub(crate) fn fin_area(&self) -> Area {
        self.fin_height * self.length * (2.0 * self.fin_count as f64)
    }

    /// Exposed base area between fins.
    #[must_use]
    pub(crate) fn base_area(&self) -> Area {
        let covered = self.fin_thickness * self.length * (self.fin_count as f64);
        let total = self.width * self.length;
        Area::from_square_meters((total - covered).square_meters().max(0.0))
    }

    /// Straight-fin efficiency `tanh(mL)/(mL)` with
    /// `m = sqrt(2h / (k t))`.
    #[must_use]
    pub(crate) fn fin_efficiency(&self, h_w_per_m2_k: f64) -> f64 {
        let k = self.material.conductivity_w_per_m_k();
        let t = self.fin_thickness.meters();
        let m = (2.0 * h_w_per_m2_k / (k * t)).sqrt();
        let ml = m * self.fin_height.meters();
        if ml < 1e-9 {
            1.0
        } else {
            ml.tanh() / ml
        }
    }

    /// Convective resistance of the finned surface in the given flow.
    ///
    /// The channel heat-transfer coefficient comes from the duct
    /// correlation at the inter-fin hydraulic diameter; the velocity is the
    /// approach velocity accelerated by the blockage ratio.
    #[must_use]
    pub(crate) fn resistance(&self, state: &FluidState, approach: Velocity) -> ThermalResistance {
        let gap = self.channel_width();
        let blockage = (self.width.meters()
            / (self.width.meters() - self.fin_thickness.meters() * self.fin_count as f64))
            .clamp(1.0, 20.0);
        let channel_velocity =
            Velocity::from_meters_per_second(approach.meters_per_second() * blockage);
        // hydraulic diameter of a tall rectangular channel ~ 2 * gap
        let d_h = Length::from_meters(2.0 * gap.meters());
        let h = correlations::htc_duct_developing(state, channel_velocity, d_h, self.length);
        let eta = self.fin_efficiency(h.watts_per_square_meter_kelvin());
        let effective = Area::from_square_meters(
            self.base_area().square_meters() + eta * self.fin_area().square_meters(),
        );
        (h * effective).to_resistance()
    }
}

/// The SRC solder **pin-fin turbulator** sink: a staggered field of short
/// cylindrical pins on a low-profile base, sized to fit between immersed
/// boards while tripping local turbulence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinFinSink {
    /// Base footprint width (across the flow).
    pub width: Length,
    /// Base footprint length (along the flow).
    pub length: Length,
    /// Pin diameter.
    pub pin_diameter: Length,
    /// Pin height above the base.
    pub pin_height: Length,
    /// Center-to-center pitch of the (square, staggered) pin grid.
    pub pitch: Length,
    /// Material of base and pins.
    pub material: SinkMaterial,
}

impl PinFinSink {
    /// The low-height sink the paper fits to each Kintex UltraScale FPGA
    /// of a SKAT computational circuit board: 3 mm copper pins at 6 mm
    /// pitch, 12 mm tall, on the 42.5 mm package footprint.
    #[must_use]
    pub fn skat_default() -> Self {
        Self {
            width: Length::millimeters(42.5),
            length: Length::millimeters(42.5),
            pin_diameter: Length::millimeters(3.0),
            pin_height: Length::millimeters(12.0),
            pitch: Length::millimeters(6.0),
            material: SinkMaterial::Copper,
        }
    }

    /// Number of pin columns across the flow.
    #[must_use]
    pub(crate) fn columns(&self) -> usize {
        (self.width.meters() / self.pitch.meters()).floor().max(1.0) as usize
    }

    /// Number of pin rows along the flow.
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        (self.length.meters() / self.pitch.meters())
            .floor()
            .max(1.0) as usize
    }

    /// Total pin count.
    #[must_use]
    pub(crate) fn pin_count(&self) -> usize {
        self.columns() * self.rows()
    }

    /// Total wetted pin surface (cylindrical side walls plus tips).
    #[must_use]
    pub(crate) fn pin_area(&self) -> Area {
        let side = core::f64::consts::PI * self.pin_diameter.meters() * self.pin_height.meters();
        let tip = core::f64::consts::PI * self.pin_diameter.meters().powi(2) / 4.0;
        Area::from_square_meters((side + tip) * self.pin_count() as f64)
    }

    /// Exposed base area between pins.
    #[must_use]
    pub(crate) fn base_area(&self) -> Area {
        let covered = core::f64::consts::PI * self.pin_diameter.meters().powi(2) / 4.0
            * self.pin_count() as f64;
        let total = (self.width * self.length).square_meters();
        Area::from_square_meters((total - covered).max(0.0))
    }

    /// Maximum inter-pin velocity given the free-stream approach velocity:
    /// flow accelerates through the transverse gap `pitch − d`.
    #[must_use]
    pub(crate) fn max_velocity(&self, approach: Velocity) -> Velocity {
        let ratio = self.pitch.meters() / (self.pitch.meters() - self.pin_diameter.meters());
        Velocity::from_meters_per_second(approach.meters_per_second() * ratio.clamp(1.0, 20.0))
    }

    /// Pin (spine) fin efficiency `tanh(mL)/(mL)` with
    /// `m = sqrt(4h / (k d))`.
    #[must_use]
    pub(crate) fn fin_efficiency(&self, h_w_per_m2_k: f64) -> f64 {
        let k = self.material.conductivity_w_per_m_k();
        let d = self.pin_diameter.meters();
        let m = (4.0 * h_w_per_m2_k / (k * d)).sqrt();
        let ml = m * self.pin_height.meters();
        if ml < 1e-9 {
            1.0
        } else {
            ml.tanh() / ml
        }
    }

    /// Convective resistance of the pin field in the given flow, using the
    /// Zukauskas staggered-bank correlation at the maximum inter-pin
    /// velocity.
    #[must_use]
    pub fn resistance(&self, state: &FluidState, approach: Velocity) -> ThermalResistance {
        let v_max = self.max_velocity(approach);
        let h = correlations::htc_pin_bank(state, v_max, self.pin_diameter, self.rows());
        let eta = self.fin_efficiency(h.watts_per_square_meter_kelvin());
        let effective = Area::from_square_meters(
            self.base_area().square_meters() + eta * self.pin_area().square_meters(),
        );
        (h * effective).to_resistance()
    }
}

/// Any of the supported heat-sink designs.
///
/// # Examples
///
/// In 30 °C oil at 0.4 m/s, the pin-fin turbulator beats a bare lid by an
/// order of magnitude:
///
/// ```
/// use rcs_fluids::Coolant;
/// use rcs_thermal::{BarePlate, HeatSink, PinFinSink};
/// use rcs_units::{Celsius, Length, Velocity};
///
/// let oil = Coolant::mineral_oil_md45().state(Celsius::new(30.0));
/// let v = Velocity::from_meters_per_second(0.4);
/// let lid = HeatSink::Bare(BarePlate {
///     area: Length::millimeters(42.5) * Length::millimeters(42.5),
///     length: Length::millimeters(42.5),
/// });
/// let pins = HeatSink::PinFin(PinFinSink::skat_default());
/// let r_lid = lid.resistance(&oil, v).kelvin_per_watt();
/// let r_pins = pins.resistance(&oil, v).kelvin_per_watt();
/// assert!(r_pins < r_lid / 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatSink {
    /// No sink: bare package lid.
    Bare(BarePlate),
    /// Conventional plate-fin sink.
    PlateFin(PlateFinSink),
    /// SRC pin-fin turbulator sink.
    PinFin(PinFinSink),
}

impl HeatSink {
    /// Convective sink-to-coolant resistance in the given flow.
    #[must_use]
    pub fn resistance(&self, state: &FluidState, approach: Velocity) -> ThermalResistance {
        match self {
            Self::Bare(s) => s.resistance(state, approach),
            Self::PlateFin(s) => s.resistance(state, approach),
            Self::PinFin(s) => s.resistance(state, approach),
        }
    }

    /// Height of the sink above the board, the packing-density constraint
    /// for immersed boards.
    #[must_use]
    pub fn height(&self) -> Length {
        match self {
            Self::Bare(_) => Length::from_meters(0.0),
            Self::PlateFin(s) => s.fin_height,
            Self::PinFin(s) => s.pin_height,
        }
    }

    /// Short human-readable description.
    #[must_use]
    pub(crate) fn description(&self) -> &'static str {
        match self {
            Self::Bare(_) => "bare lid",
            Self::PlateFin(_) => "plate-fin sink",
            Self::PinFin(_) => "pin-fin turbulator sink",
        }
    }
}

impl core::fmt::Display for HeatSink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_fluids::Coolant;
    use rcs_units::Celsius;

    fn oil30() -> FluidState {
        Coolant::mineral_oil_md45().state(Celsius::new(30.0))
    }

    fn air25() -> FluidState {
        Coolant::air().state(Celsius::new(25.0))
    }

    #[test]
    fn skat_pin_geometry() {
        let s = PinFinSink::skat_default();
        assert_eq!(s.columns(), 7);
        assert_eq!(s.rows(), 7);
        assert_eq!(s.pin_count(), 49);
        assert!(s.pin_area().square_meters() > s.base_area().square_meters());
    }

    #[test]
    fn pin_max_velocity_accelerates_flow() {
        let s = PinFinSink::skat_default();
        let v = s.max_velocity(Velocity::from_meters_per_second(0.4));
        assert!((v.meters_per_second() - 0.8).abs() < 1e-12); // pitch/(pitch-d) = 2
    }

    #[test]
    fn fin_efficiency_bounds() {
        let s = PinFinSink::skat_default();
        for h in [10.0, 100.0, 1000.0, 10_000.0] {
            let eta = s.fin_efficiency(h);
            assert!(eta > 0.0 && eta <= 1.0, "eta({h}) = {eta}");
        }
        // efficiency decreases with h
        assert!(s.fin_efficiency(100.0) > s.fin_efficiency(5000.0));
    }

    #[test]
    fn pin_sink_resistance_small_enough_for_91_w() {
        // SKAT design point: 91 W per FPGA, oil at <= 30 °C, junction <= 55 °C.
        // The sink alone must stay well under (55-30)/91 = 0.27 K/W.
        let r =
            PinFinSink::skat_default().resistance(&oil30(), Velocity::from_meters_per_second(0.4));
        assert!(r.kelvin_per_watt() < 0.2, "R_sink = {r}");
        assert!(r.kelvin_per_watt() > 0.005);
    }

    #[test]
    fn plate_fin_air_tower_plausible() {
        // A 45x45x40 mm tower in a 3 m/s airflow: expect 0.2..1.5 K/W.
        let r = PlateFinSink::air_tower_default()
            .resistance(&air25(), Velocity::from_meters_per_second(3.0));
        assert!(
            r.kelvin_per_watt() > 0.1 && r.kelvin_per_watt() < 1.5,
            "R = {r}"
        );
    }

    #[test]
    fn more_flow_means_less_resistance() {
        let s = PinFinSink::skat_default();
        let slow = s.resistance(&oil30(), Velocity::from_meters_per_second(0.1));
        let fast = s.resistance(&oil30(), Velocity::from_meters_per_second(1.0));
        assert!(fast.kelvin_per_watt() < slow.kelvin_per_watt());
    }

    #[test]
    fn copper_beats_aluminum() {
        let mut al = PinFinSink::skat_default();
        al.material = SinkMaterial::Aluminum;
        let cu = PinFinSink::skat_default();
        let v = Velocity::from_meters_per_second(0.4);
        assert!(
            cu.resistance(&oil30(), v).kelvin_per_watt()
                <= al.resistance(&oil30(), v).kelvin_per_watt()
        );
    }

    #[test]
    fn bare_plate_is_worst() {
        let v = Velocity::from_meters_per_second(0.4);
        let bare = BarePlate {
            area: Length::millimeters(42.5) * Length::millimeters(42.5),
            length: Length::millimeters(42.5),
        };
        let r_bare = bare.resistance(&oil30(), v).kelvin_per_watt();
        let r_pin = PinFinSink::skat_default()
            .resistance(&oil30(), v)
            .kelvin_per_watt();
        assert!(r_bare > 3.0 * r_pin);
    }

    #[test]
    fn sink_heights_for_packing() {
        assert_eq!(
            HeatSink::PinFin(PinFinSink::skat_default()).height(),
            Length::millimeters(12.0)
        );
        assert_eq!(
            HeatSink::PlateFin(PlateFinSink::air_tower_default()).height(),
            Length::millimeters(40.0)
        );
    }

    #[test]
    fn plate_fin_channel_geometry() {
        let s = PlateFinSink::air_tower_default();
        // 18 fins x 0.8 mm = 14.4 mm of metal in 45 mm width
        let gap = s.channel_width().as_millimeters();
        assert!((gap - (45.0 - 14.4) / 18.0).abs() < 1e-9);
        assert!(s.fin_area().square_meters() > 10.0 * s.base_area().square_meters());
    }
}
