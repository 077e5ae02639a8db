//! The computational circuit board (CCB).

use rcs_devices::{performance, ComputeRate, FpgaPart, OperatingPoint, PowerModel};
use rcs_units::{Celsius, Length, Power};

use crate::{PACKAGE_CLEARANCE_MM, USABLE_BOARD_WIDTH_MM};

/// A computational circuit board: a field of identical compute FPGAs,
/// optionally a separate controller FPGA, plus board-level overhead
/// (memory, regulators, transceivers).
///
/// "Each CCB must contain up to eight FPGAs, with a dissipating heat flow
/// of about 100 W from each FPGA" (§3). The §4 redesign removes the
/// separate controller FPGA: its functions shrink to "some percent" of one
/// compute FPGA and move into the field.
///
/// # Examples
///
/// The geometry constraint that forces the SKAT+ redesign:
///
/// ```
/// use rcs_devices::FpgaPart;
/// use rcs_platform::Ccb;
///
/// // 8 x 42.5 mm UltraScale + controller: fits a 19" rack.
/// let skat = Ccb::new(FpgaPart::xcku095(), 8, true);
/// assert!(skat.fits_standard_rack());
///
/// // 8 x 45 mm UltraScale+ + controller: does NOT fit...
/// let too_wide = Ccb::new(FpgaPart::vu9p_class(), 8, true);
/// assert!(!too_wide.fits_standard_rack());
///
/// // ...so SKAT+ drops the controller (§4).
/// let skat_plus = Ccb::new(FpgaPart::vu9p_class(), 8, false);
/// assert!(skat_plus.fits_standard_rack());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ccb {
    part: FpgaPart,
    fpga_count: usize,
    separate_controller: bool,
    board_overhead: Power,
}

impl Ccb {
    /// Fraction of one compute FPGA consumed by controller functions when
    /// the controller moves into the field (§4: "only some percent").
    pub(crate) const CONTROLLER_RESOURCE_FRACTION: f64 = 0.04;

    /// Creates a board of `fpga_count` compute FPGAs. When
    /// `separate_controller` is `true`, one extra FPGA of the same part
    /// serves as CCB controller (pre-SKAT+ designs).
    ///
    /// # Panics
    ///
    /// Panics if `fpga_count == 0`.
    #[must_use]
    pub fn new(part: FpgaPart, fpga_count: usize, separate_controller: bool) -> Self {
        assert!(fpga_count > 0, "a CCB needs at least one FPGA");
        Self {
            part,
            fpga_count,
            separate_controller,
            board_overhead: Power::from_watts(40.0),
        }
    }

    /// Overrides the non-FPGA board overhead (memory, regulators, clocks).
    #[must_use]
    pub(crate) fn with_board_overhead(mut self, overhead: Power) -> Self {
        self.board_overhead = overhead;
        self
    }

    /// The FPGA part populating the board.
    #[must_use]
    pub fn part(&self) -> &FpgaPart {
        &self.part
    }

    /// Number of compute FPGAs (excludes the controller).
    #[must_use]
    pub fn compute_fpga_count(&self) -> usize {
        self.fpga_count
    }

    /// Number of physical FPGA packages on the board.
    #[must_use]
    pub fn package_count(&self) -> usize {
        self.fpga_count + usize::from(self.separate_controller)
    }

    /// Board width required by the package row: every package plus its
    /// routing clearance.
    #[must_use]
    pub fn required_width(&self) -> Length {
        let pitch = self.part.package_side().as_millimeters() + PACKAGE_CLEARANCE_MM;
        Length::millimeters(pitch * self.package_count() as f64)
    }

    /// `true` if the board fits the usable width of a standard 19″ rack.
    #[must_use]
    pub fn fits_standard_rack(&self) -> bool {
        self.required_width().as_millimeters() <= USABLE_BOARD_WIDTH_MM
    }

    /// Peak compute rate of the board.
    ///
    /// Without a separate controller, controller functions consume
    /// [`Ccb::CONTROLLER_RESOURCE_FRACTION`] of one compute FPGA.
    #[must_use]
    pub(crate) fn peak_performance(&self) -> ComputeRate {
        let chips = self.fpga_count as f64;
        let effective = if self.separate_controller {
            chips
        } else {
            chips - Self::CONTROLLER_RESOURCE_FRACTION
        };
        performance::peak_ops(&self.part) * effective
    }

    /// Power of one compute FPGA at the given operating point and junction
    /// temperature.
    #[must_use]
    pub(crate) fn fpga_power(&self, op: OperatingPoint, junction: Celsius) -> Power {
        PowerModel::for_part(&self.part).power(op, junction)
    }

    /// Total board power: all packages (the controller runs lightly) plus
    /// board overhead.
    #[must_use]
    pub fn board_power(&self, op: OperatingPoint, junction: Celsius) -> Power {
        let model = PowerModel::for_part(&self.part);
        let compute = Power::from_watts(model.power(op, junction).watts() * self.fpga_count as f64);
        let controller = if self.separate_controller {
            model.power(
                OperatingPoint {
                    utilization: 0.05,
                    clock_fraction: 0.5,
                },
                junction,
            )
        } else {
            Power::ZERO
        };
        compute + controller + self.board_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_check_reproduces_the_redesign() {
        // §4 in one test: 42.5 mm + controller fits; 45 mm + controller
        // doesn't; 45 mm without controller does.
        assert!(Ccb::new(FpgaPart::xcku095(), 8, true).fits_standard_rack());
        assert!(!Ccb::new(FpgaPart::vu9p_class(), 8, true).fits_standard_rack());
        assert!(Ccb::new(FpgaPart::vu9p_class(), 8, false).fits_standard_rack());
    }

    #[test]
    fn dropping_the_controller_costs_almost_nothing() {
        let with = Ccb::new(FpgaPart::vu9p_class(), 8, true);
        let without = Ccb::new(FpgaPart::vu9p_class(), 8, false);
        let loss = 1.0
            - without.peak_performance().ops_per_second()
                / with.peak_performance().ops_per_second();
        assert!(loss < 0.01, "performance loss {loss}");
        assert_eq!(without.package_count(), 8);
        assert_eq!(with.package_count(), 9);
    }

    #[test]
    fn skat_board_power_near_800_w() {
        // §3: 12 CCBs "with a power of up to 800 W each".
        let ccb = Ccb::new(FpgaPart::xcku095(), 8, true);
        let p = ccb.board_power(OperatingPoint::operating_mode(), Celsius::new(55.0));
        assert!(p.watts() > 700.0 && p.watts() < 830.0, "board = {p}");
    }

    #[test]
    fn board_power_scales_with_count() {
        let small = Ccb::new(FpgaPart::xcku095(), 4, false);
        let large = Ccb::new(FpgaPart::xcku095(), 8, false);
        let op = OperatingPoint::operating_mode();
        let t = Celsius::new(55.0);
        assert!(large.board_power(op, t).watts() > 1.9 * small.board_power(op, t).watts() - 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one FPGA")]
    fn empty_board_panics() {
        let _ = Ccb::new(FpgaPart::xcku095(), 0, false);
    }
}
