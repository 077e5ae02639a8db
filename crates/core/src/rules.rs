//! The paper's design-rule checklist (§3) evaluated against a report.
//!
//! "The design criteria of computational modules of next-generation RCS
//! with an open-loop liquid cooling system are based on the following
//! principles: … 3U height and 19″ width … 12 to 16 computational circuit
//! boards … up to eight FPGAs with about 100 W each … a standard water
//! cooling system based on industrial chillers."

use rcs_platform::ComputeModule;
use rcs_units::Celsius;

use crate::report::SteadyReport;

/// The junction ceiling that the paper considers compatible with "high
/// reliability of the equipment during a long operation period"
/// (65…70 °C): the midpoint of that window.
pub const RELIABLE_JUNCTION_LIMIT: Celsius = Celsius::new(67.5);

/// One design-rule check result.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleCheck {
    /// What was checked.
    pub rule: &'static str,
    /// Whether the rule holds.
    pub passed: bool,
    /// Measured value and limit, human readable.
    pub detail: String,
}

/// Evaluates the §3 operating rules against a solved report.
#[must_use]
pub fn operating_rules(report: &SteadyReport) -> Vec<RuleCheck> {
    let mut checks = Vec::new();
    checks.push(RuleCheck {
        rule: "heat-transfer agent at or below 30 °C",
        passed: report.coolant_hot <= Celsius::new(30.0),
        detail: format!("agent {:.1} (limit 30.0 °C)", report.coolant_hot),
    });
    checks.push(RuleCheck {
        rule: "FPGA temperature at or below 55 °C",
        passed: report.junction <= Celsius::new(55.0),
        detail: format!("junction {:.1} (limit 55.0 °C)", report.junction),
    });
    checks.push(RuleCheck {
        rule: "within the 65…70 °C long-service reliability window",
        passed: report.junction <= RELIABLE_JUNCTION_LIMIT,
        detail: format!(
            "junction {:.1} (window ceiling {:.1} °C)",
            report.junction,
            RELIABLE_JUNCTION_LIMIT.degrees()
        ),
    });
    checks
}

/// Evaluates the §3 structural rules against a module design.
#[must_use]
pub fn structural_rules(module: &ComputeModule) -> Vec<RuleCheck> {
    let mut checks = Vec::new();
    checks.push(RuleCheck {
        rule: "module height of 3U",
        passed: module.height_units() <= 3.0,
        detail: format!("{}U", module.height_units()),
    });
    checks.push(RuleCheck {
        rule: "12 to 16 computational circuit boards",
        passed: (12..=16).contains(&module.ccb_count()),
        detail: format!("{} CCBs", module.ccb_count()),
    });
    checks.push(RuleCheck {
        rule: "up to eight FPGAs per CCB",
        passed: module.ccb().compute_fpga_count() <= 8,
        detail: format!("{} FPGAs per CCB", module.ccb().compute_fpga_count()),
    });
    checks.push(RuleCheck {
        rule: "boards fit a standard 19-inch rack",
        passed: module.ccb().fits_standard_rack(),
        detail: format!(
            "board width {:.1} mm (usable {:.0} mm)",
            module.ccb().required_width().as_millimeters(),
            rcs_platform::USABLE_BOARD_WIDTH_MM
        ),
    });
    checks
}

/// `true` if every check in the list passed.
#[must_use]
pub fn all_pass(checks: &[RuleCheck]) -> bool {
    checks.iter().all(|c| c.passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImmersionModel;
    use rcs_platform::presets;

    #[test]
    fn skat_passes_everything() {
        let report = ImmersionModel::skat().solve().unwrap();
        assert!(all_pass(&operating_rules(&report)));
        assert!(all_pass(&structural_rules(&presets::skat())));
    }

    #[test]
    fn taygeta_on_air_fails_the_operating_rules() {
        let report = crate::AirCooledModel::for_module(presets::taygeta())
            .solve()
            .unwrap();
        let rules = operating_rules(&report);
        assert!(!all_pass(&rules));
        // specifically the reliability window, as §1 complains
        let window = rules
            .iter()
            .find(|c| c.rule.contains("reliability window"))
            .unwrap();
        assert!(!window.passed);
        // the ceiling is the midpoint of the paper's 65…70 °C window
        assert!((65.0..=70.0).contains(&RELIABLE_JUNCTION_LIMIT.degrees()));
        assert!(
            window.detail.ends_with("(window ceiling 67.5 °C)"),
            "{}",
            window.detail
        );
    }

    #[test]
    fn pre_skat_modules_fail_the_structural_rules() {
        let rules = structural_rules(&presets::taygeta());
        assert!(!all_pass(&rules)); // 6U, 4 boards
        assert!(all_pass(&structural_rules(&presets::skat_plus())));
    }

    #[test]
    fn detail_strings_carry_numbers() {
        let report = ImmersionModel::skat().solve().unwrap();
        let rules = operating_rules(&report);
        assert!(rules[0].detail.contains("°C"));
    }
}
