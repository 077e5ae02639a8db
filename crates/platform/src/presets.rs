//! The four machines the paper names.
//!
//! | preset | family | boards × chips | height | paper anchor |
//! |---|---|---|---|---|
//! | Rigel-2 | Virtex-6 XC6VLX240T | 4 × 8 | 6U | 1255 W, +33.1 °C over 25 °C ambient |
//! | Taygeta | Virtex-7 XC7VX485T | 4 × 8 | 6U | 1661 W, +47.9 °C over 25 °C ambient |
//! | SKAT | Kintex US XCKU095 | 12 × 8 | 3U | 91 W/FPGA, 8736 W, ≤55 °C at ≤30 °C oil |
//! | SKAT+ | UltraScale+ VU9P-class | 12 × 8 | 3U | ×3 performance, no separate controller |
//!
//! Board counts for the air-cooled generations are not stated in the
//! paper; 4 boards × 8 chips (32 chips) is chosen so that the reported
//! module powers land at plausible per-chip figures (≈29 W Virtex-6,
//! ≈39 W Virtex-7) consistent with the measured overheats — see
//! `DESIGN.md` ("calibration anchors").

use rcs_devices::FpgaPart;
use rcs_units::Power;

use crate::board::Ccb;
use crate::module::ComputeModule;
use crate::psu::PowerSupply;

/// The Rigel-2 computational module (Virtex-6 generation, air cooled).
#[must_use]
pub fn rigel2() -> ComputeModule {
    ComputeModule::new(
        "Rigel-2",
        Ccb::new(FpgaPart::xc6vlx240t(), 8, true).with_board_overhead(Power::from_watts(55.0)),
        4,
        PowerSupply::new(Power::kilowatts(2.0), 0.93),
        2,
        6.0,
    )
    .with_reported_power(Power::from_watts(1255.0))
}

/// The Taygeta computational module (Virtex-7 generation, air cooled).
#[must_use]
pub fn taygeta() -> ComputeModule {
    ComputeModule::new(
        "Taygeta",
        Ccb::new(FpgaPart::xc7vx485t(), 8, true).with_board_overhead(Power::from_watts(70.0)),
        4,
        PowerSupply::new(Power::kilowatts(2.5), 0.94),
        2,
        6.0,
    )
    .with_reported_power(Power::from_watts(1661.0))
}

/// The SKAT computational module (§3): 12 CCBs of 8 Kintex UltraScale
/// FPGAs and three 4 kW immersion PSUs in a 3U immersion casing.
#[must_use]
pub fn skat() -> ComputeModule {
    ComputeModule::new(
        "SKAT",
        Ccb::new(FpgaPart::xcku095(), 8, true).with_board_overhead(Power::from_watts(40.0)),
        12,
        PowerSupply::skat_dcdc(),
        3,
        3.0,
    )
    .with_reported_power(Power::from_watts(8736.0))
}

/// The SKAT+ computational module (§4): UltraScale+ parts in 45 mm
/// packages, the separate CCB controller removed so the wider board still
/// fits a 19″ rack, immersed pumps.
#[must_use]
pub fn skat_plus() -> ComputeModule {
    ComputeModule::new(
        "SKAT+",
        Ccb::new(FpgaPart::vu9p_class(), 8, false).with_board_overhead(Power::from_watts(45.0)),
        12,
        PowerSupply::skat_dcdc(),
        3,
        3.0,
    )
}

/// All presets, oldest first.
#[must_use]
pub fn all() -> Vec<ComputeModule> {
    vec![rigel2(), taygeta(), skat(), skat_plus()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_devices::OperatingPoint;
    use rcs_units::Celsius;

    #[test]
    fn reported_powers_are_recorded() {
        assert_eq!(rigel2().reported_power().unwrap().watts(), 1255.0);
        assert_eq!(taygeta().reported_power().unwrap().watts(), 1661.0);
        assert_eq!(skat().reported_power().unwrap().watts(), 8736.0);
    }

    #[test]
    fn taygeta_model_power_matches_report() {
        // model total heat at the measured junction temperature should be
        // within ~10 % of the reported 1661 W
        let m = taygeta();
        let total = m.total_heat(OperatingPoint::operating_mode(), Celsius::new(72.9));
        let reported = m.reported_power().unwrap();
        let err = (total.watts() - reported.watts()).abs() / reported.watts();
        assert!(err < 0.10, "model {total} vs reported {reported}");
    }

    #[test]
    fn rigel2_model_power_matches_report() {
        let m = rigel2();
        let total = m.total_heat(OperatingPoint::operating_mode(), Celsius::new(58.1));
        let reported = m.reported_power().unwrap();
        let err = (total.watts() - reported.watts()).abs() / reported.watts();
        assert!(err < 0.10, "model {total} vs reported {reported}");
    }

    #[test]
    fn skat_fpga_heat_matches_report() {
        let m = skat();
        let q = m.fpga_heat(OperatingPoint::operating_mode(), Celsius::new(55.0));
        let err = (q.watts() - 8736.0).abs() / 8736.0;
        assert!(err < 0.03, "model {q} vs reported 8736 W");
    }

    #[test]
    fn performance_ratios_match_the_paper() {
        let skat_vs_taygeta = skat().peak_performance().ops_per_second()
            / taygeta().peak_performance().ops_per_second();
        assert!(
            (skat_vs_taygeta - 8.7).abs() < 0.4,
            "SKAT/Taygeta = {skat_vs_taygeta}"
        );

        let plus_vs_skat = skat_plus().peak_performance().ops_per_second()
            / skat().peak_performance().ops_per_second();
        assert!(
            (plus_vs_skat - 3.0).abs() < 0.2,
            "SKAT+/SKAT = {plus_vs_skat}"
        );
    }

    #[test]
    fn packing_density_triples() {
        let gain = skat().packing_density_fpga_per_m3() / taygeta().packing_density_fpga_per_m3();
        assert!(gain > 3.0, "density gain = {gain}");
    }

    #[test]
    fn skat_plus_boards_fit_only_without_controller() {
        let module = skat_plus();
        let ccb = module.ccb();
        assert!(ccb.fits_standard_rack());
        // no package beyond the compute FPGAs: no separate controller
        assert_eq!(ccb.package_count(), ccb.compute_fpga_count());
    }
}
