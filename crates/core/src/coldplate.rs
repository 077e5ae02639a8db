//! The closed-loop cold-plate model (§2's alternative architecture).

use rcs_cooling::ColdPlateLoop;
use rcs_devices::{OperatingPoint, PowerModel};
use rcs_platform::ComputeModule;
use rcs_units::{Power, TempDelta, ThermalCapacityRate, Velocity, VolumeFlow};

use crate::error::CoreError;
use crate::immersion::PUMP_DRIVE_EFFICIENCY;
use crate::report::SteadyReport;

/// Loop flow allocated per cooled board.
const FLOW_PER_BOARD_LPM: f64 = 8.0;

/// A closed-loop cold-plate cooled module: every chip (or board) is
/// clamped to a water plate; coolant never touches the electronics.
///
/// Simpler than the immersion model because the convection happens inside
/// engineered plate channels whose resistance is a catalog figure, not a
/// bath flow field.
///
/// # Examples
///
/// ```
/// use rcs_core::ColdPlateModel;
/// use rcs_platform::presets;
///
/// let report = ColdPlateModel::for_module(presets::skat()).solve()?;
/// assert!(report.junction.degrees() < 67.5); // cold plates do cool well...
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColdPlateModel {
    module: ComputeModule,
    loop_: ColdPlateLoop,
    op: OperatingPoint,
}

impl ColdPlateModel {
    /// Per-chip plates sized for the module's chip count.
    #[must_use]
    pub fn for_module(module: ComputeModule) -> Self {
        let loop_ = ColdPlateLoop::per_chip_plates(module.compute_fpga_count());
        Self {
            module,
            loop_,
            op: OperatingPoint::operating_mode(),
        }
    }

    /// Solves the coupled steady state (fixed point over leakage).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoConvergence`] if the iteration fails.
    pub fn solve(&self) -> Result<SteadyReport, CoreError> {
        let model = PowerModel::for_part(self.module.ccb().part());
        let part = self.module.ccb().part();
        let r_chip = part
            .r_junction_case()
            .in_series(self.loop_.plate_resistance);

        let water = self.loop_.coolant.state(self.loop_.supply);
        let flow =
            VolumeFlow::liters_per_minute(FLOW_PER_BOARD_LPM * self.module.ccb_count() as f64);
        let capacity: ThermalCapacityRate = (flow * water.density) * water.specific_heat;

        let mut tj = self.loop_.supply + TempDelta::from_kelvins(20.0);
        let mut iterations = 0;
        let mut converged = false;
        let mut ret = self.loop_.supply;
        let mut last_step = None;
        for iter in 0..200 {
            iterations = iter + 1;
            let chip_p = model.power(self.op, tj);
            let total = self.module.total_heat(self.op, tj);
            ret = self.loop_.supply + total / capacity;
            // the last chip on a plate loop sees the warmest water
            let next = ret + chip_p * r_chip;
            let step = (next - tj).kelvins();
            last_step = Some(step.abs());
            tj += TempDelta::from_kelvins(0.6 * step);
            if step.abs() < 1e-7 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(CoreError::NoConvergence {
                iterations,
                residual_k: last_step,
            });
        }

        let chip_p = model.power(self.op, tj);
        let total = self.module.total_heat(self.op, tj);
        // circulating a closed loop across many small plates costs real
        // pressure: ~150 kPa at the loop flow
        let pump_electrical =
            Power::from_watts(150e3 * flow.cubic_meters_per_second() / PUMP_DRIVE_EFFICIENCY);
        Ok(SteadyReport {
            architecture: "closed-loop cold plates",
            module: self.module.name().to_owned(),
            chip_power: chip_p,
            junction: tj,
            coolant_cold: self.loop_.supply,
            coolant_hot: ret,
            total_heat: total,
            coolant_flow: flow,
            sink_velocity: Velocity::from_meters_per_second(0.0),
            circulation_power: pump_electrical,
            chiller_power: Power::from_watts(total.watts() / 4.5),
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_platform::presets;

    #[test]
    fn cold_plates_cool_a_skat_class_module() {
        let r = ColdPlateModel::for_module(presets::skat()).solve().unwrap();
        // thermally competitive with immersion...
        assert!(r.junction.degrees() < 60.0, "Tj = {}", r.junction);
        assert!(r.coolant_hot.degrees() < 40.0);
    }

    #[test]
    fn per_board_plates_run_hotter_than_per_chip() {
        let per_chip = ColdPlateModel::for_module(presets::skat()).solve().unwrap();
        let mut per_board = ColdPlateModel::for_module(presets::skat());
        per_board.loop_ = rcs_cooling::ColdPlateLoop::per_board_plates(12);
        let per_board = per_board.solve().unwrap();
        assert!(per_board.junction > per_chip.junction);
    }

    #[test]
    fn return_water_carries_the_heat() {
        let r = ColdPlateModel::for_module(presets::skat()).solve().unwrap();
        let rise = (r.coolant_hot - r.coolant_cold).kelvins();
        // ~9.6 kW into 96 L/min of water: ~1.4 K rise
        assert!(rise > 0.5 && rise < 5.0, "rise = {rise}");
    }

    #[test]
    fn thermally_fine_operationally_fragile() {
        // The paper's verdict on closed loops is operational, not thermal:
        // they cool fine but carry leak/dew-point/connection burdens.
        // Check the thermal parity here; the operational comparison lives
        // in rcs-cooling's risk model and experiment E12.
        let plates = ColdPlateModel::for_module(presets::skat()).solve().unwrap();
        let immersion = crate::ImmersionModel::skat().solve().unwrap();
        assert!((plates.junction.degrees() - immersion.junction.degrees()).abs() < 15.0);
    }
}
