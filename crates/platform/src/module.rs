//! The computational module (CM): boards + power in a rack-mount casing.

use rcs_devices::{ComputeRate, OperatingPoint};
use rcs_units::{Celsius, Length, Power, Volume};

use crate::board::Ccb;
use crate::psu::PowerSupply;

/// A computational module: a 19″-wide casing of some rack-unit height
/// holding identical CCBs and their PSUs. For immersion designs the casing
/// splits into a computational section (the bath) and a heat-exchange
/// section (§3, Fig. 1-a).
///
/// # Examples
///
/// ```
/// use rcs_platform::presets;
/// let skat = presets::skat();
/// assert_eq!(skat.height_units(), 3.0);
/// assert_eq!(skat.ccb_count(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModule {
    name: String,
    ccb: Ccb,
    ccb_count: usize,
    psu: PowerSupply,
    psu_count: usize,
    height_units: f64,
    depth: Length,
    /// Module power the paper reports, used as an experiment anchor.
    reported_power: Option<Power>,
}

impl ComputeModule {
    /// Standard 19″ rack-mount width.
    pub(crate) const WIDTH: Length = Length::from_meters(0.483);

    /// Creates a module of `ccb_count` copies of `ccb` powered by
    /// `psu_count` copies of `psu`.
    ///
    /// # Panics
    ///
    /// Panics if any count or the height is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        ccb: Ccb,
        ccb_count: usize,
        psu: PowerSupply,
        psu_count: usize,
        height_units: f64,
    ) -> Self {
        assert!(ccb_count > 0, "a module needs at least one CCB");
        assert!(psu_count > 0, "a module needs at least one PSU");
        assert!(height_units > 0.0, "module height must be positive");
        Self {
            name: name.into(),
            ccb,
            ccb_count,
            psu,
            psu_count,
            height_units,
            depth: Length::from_meters(0.80),
            reported_power: None,
        }
    }

    /// Attaches the module power the paper reports (anchor for
    /// experiments).
    #[must_use]
    pub(crate) fn with_reported_power(mut self, power: Power) -> Self {
        self.reported_power = Some(power);
        self
    }

    /// Module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The board design.
    #[must_use]
    pub fn ccb(&self) -> &Ccb {
        &self.ccb
    }

    /// Number of boards.
    #[must_use]
    pub fn ccb_count(&self) -> usize {
        self.ccb_count
    }

    /// Number of PSUs.
    #[must_use]
    pub fn psu_count(&self) -> usize {
        self.psu_count
    }

    /// Casing height in rack units.
    #[must_use]
    pub fn height_units(&self) -> f64 {
        self.height_units
    }

    /// Casing depth.
    #[must_use]
    pub fn depth(&self) -> Length {
        self.depth
    }

    /// The paper-reported module power, if recorded.
    #[must_use]
    pub fn reported_power(&self) -> Option<Power> {
        self.reported_power
    }

    /// Compute FPGAs in the module (excluding controllers).
    #[must_use]
    pub fn compute_fpga_count(&self) -> usize {
        self.ccb.compute_fpga_count() * self.ccb_count
    }

    /// Peak compute rate of the module.
    #[must_use]
    pub fn peak_performance(&self) -> ComputeRate {
        self.ccb.peak_performance() * self.ccb_count as f64
    }

    /// Total FPGA heat only (the figure the paper reports for SKAT:
    /// 96 × 91 W = 8736 W).
    #[must_use]
    pub fn fpga_heat(&self, op: OperatingPoint, junction: Celsius) -> Power {
        Power::from_watts(
            self.ccb.fpga_power(op, junction).watts() * self.compute_fpga_count() as f64,
        )
    }

    /// Total heat released into the module: boards plus PSU conversion
    /// losses.
    #[must_use]
    pub fn total_heat(&self, op: OperatingPoint, junction: Celsius) -> Power {
        let boards =
            Power::from_watts(self.ccb.board_power(op, junction).watts() * self.ccb_count as f64);
        let per_psu_output = Power::from_watts(boards.watts() / self.psu_count as f64);
        let psu_losses =
            Power::from_watts(self.psu.loss(per_psu_output).watts() * self.psu_count as f64);
        boards + psu_losses
    }

    /// Casing volume.
    #[must_use]
    pub fn volume(&self) -> Volume {
        Length::rack_units(self.height_units) * (Self::WIDTH * self.depth)
    }

    /// Compute FPGAs per cubic meter — the packing-density metric behind
    /// §3's "more than triple increasing of the system packing density".
    #[must_use]
    pub fn packing_density_fpga_per_m3(&self) -> f64 {
        self.compute_fpga_count() as f64 / self.volume().cubic_meters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_devices::FpgaPart;

    fn skat_like() -> ComputeModule {
        ComputeModule::new(
            "test-skat",
            Ccb::new(FpgaPart::xcku095(), 8, true),
            12,
            PowerSupply::skat_dcdc(),
            3,
            3.0,
        )
    }

    #[test]
    fn counts_and_volume() {
        let m = skat_like();
        assert_eq!(m.compute_fpga_count(), 96);
        assert!((m.volume().as_liters() - 51.5).abs() < 1.0);
    }

    #[test]
    fn skat_fpga_heat_anchor() {
        let m = skat_like();
        let q = m.fpga_heat(OperatingPoint::operating_mode(), Celsius::new(55.0));
        assert!((q.watts() - 8736.0).abs() < 200.0, "Q = {q}");
    }

    #[test]
    fn total_heat_exceeds_fpga_heat() {
        let m = skat_like();
        let op = OperatingPoint::operating_mode();
        let t = Celsius::new(55.0);
        let total = m.total_heat(op, t);
        let fpga = m.fpga_heat(op, t);
        assert!(total > fpga);
        // overheads (controllers, board, PSU loss) are 5-20 %
        assert!(total.watts() < 1.25 * fpga.watts());
    }

    #[test]
    fn psu_rating_covers_the_boards() {
        // 3 x 4 kW PSUs for 12 x ~800 W boards (4 boards per PSU).
        let m = skat_like();
        let op = OperatingPoint::operating_mode();
        let boards = m.ccb().board_power(op, Celsius::new(55.0)).watts() * 12.0;
        let per_psu = boards / 3.0;
        assert!(Power::from_watts(per_psu) <= m.psu.rated);
    }
}
