//! The air-cooled module model, calibrated against the paper's two
//! measured machines.

use rcs_cooling::AirCooling;
use rcs_devices::{OperatingPoint, PowerModel};
use rcs_platform::{presets, ComputeModule};
use rcs_thermal::{HeatSink, ThermalInterface, TimAging, TimMaterial};
use rcs_units::{Celsius, Length, Power, ThermalResistance, VolumeFlow};

use crate::error::CoreError;
use crate::report::SteadyReport;

/// Junction temperature beyond which the fixed point is declared a
/// thermal runaway (leakage growth outruns the heat path).
const RUNAWAY_LIMIT_C: f64 = 150.0;

/// An air-cooled computational module (the Rigel-2 / Taygeta generation).
///
/// The model has exactly one calibrated parameter: the **preheat
/// coefficient** `k` (kelvins of local air-temperature rise per watt of
/// board heat), fit by least squares to the paper's two measured anchors
/// and then frozen. Everything else — sink resistance, TIM, junction-to-
/// case, leakage — comes from the substrate models.
///
/// # Examples
///
/// ```
/// use rcs_core::AirCooledModel;
/// use rcs_platform::presets;
///
/// let report = AirCooledModel::for_module(presets::taygeta()).solve()?;
/// // the paper measured 72.9 °C; the one-parameter model lands within a
/// // few kelvin
/// assert!((report.junction.degrees() - 72.9).abs() < 3.0);
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AirCooledModel {
    module: ComputeModule,
    config: AirCooling,
    op: OperatingPoint,
    preheat_k_per_w: f64,
}

impl AirCooledModel {
    /// Builds the model for a module with the default machine-room airflow
    /// and the frozen calibration.
    #[must_use]
    pub fn for_module(module: ComputeModule) -> Self {
        Self {
            module,
            config: AirCooling::machine_room_default(),
            op: OperatingPoint::operating_mode(),
            preheat_k_per_w: calibrated_preheat_coefficient(),
        }
    }

    /// Overrides the operating point (utilization sweeps).
    #[must_use]
    pub(crate) fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Junction-to-air stack resistance of one chip at the configured
    /// airflow.
    #[must_use]
    pub(crate) fn stack_resistance(&self) -> ThermalResistance {
        stack_resistance(&self.module, &self.config)
    }

    /// Solves the coupled fixed point: junction temperature ↔
    /// temperature-dependent chip power ↔ local air preheat.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoConvergence`] with the runaway junction
    /// temperature when leakage growth outruns the heat path (the §1
    /// situation for UltraScale parts on air).
    pub fn solve(&self) -> Result<SteadyReport, CoreError> {
        let model = PowerModel::for_part(self.module.ccb().part());
        let r_stack = self.stack_resistance();

        let mut tj = self.config.inlet;
        let mut iterations = 0;
        for iter in 0..400 {
            iterations = iter + 1;
            let chip_p = model.power(self.op, tj);
            let board_p = self.module.ccb().board_power(self.op, tj);
            let local_air = self.config.inlet
                + rcs_units::TempDelta::from_kelvins(self.preheat_k_per_w * board_p.watts());
            let next = local_air + chip_p * r_stack;
            let step = (next - tj).kelvins();
            tj += rcs_units::TempDelta::from_kelvins(0.6 * step);
            if tj.degrees() > RUNAWAY_LIMIT_C {
                return Err(CoreError::NoConvergence {
                    iterations,
                    residual_k: Some(step.abs()),
                });
            }
            if step.abs() < 1e-6 {
                break;
            }
        }

        let chip_p = model.power(self.op, tj);
        let board_p = self.module.ccb().board_power(self.op, tj);
        let local_air = self.config.inlet
            + rcs_units::TempDelta::from_kelvins(self.preheat_k_per_w * board_p.watts());
        let total = self.module.total_heat(self.op, tj);
        let fan_power = Power::from_watts(30.0 * self.config.fan_count as f64);
        Ok(SteadyReport {
            architecture: "air cooling",
            module: self.module.name().to_owned(),
            chip_power: chip_p,
            junction: tj,
            coolant_cold: self.config.inlet,
            coolant_hot: local_air,
            total_heat: total,
            coolant_flow: VolumeFlow::ZERO,
            sink_velocity: self.config.velocity,
            circulation_power: fan_power,
            // machine-room CRAC at a typical COP of 3
            chiller_power: Power::from_watts(total.watts() / 3.0),
            iterations,
        })
    }

    /// The highest utilization whose fixed point converges with the
    /// junction at or below `limit`, found by bisection. Returns 0 when
    /// even an idle field exceeds the limit.
    #[must_use]
    pub(crate) fn max_utilization_below(&self, limit: Celsius) -> f64 {
        let ok = |util: f64| {
            let model = self
                .clone()
                .with_operating_point(OperatingPoint::at_utilization(util));
            matches!(model.solve(), Ok(r) if r.junction <= limit)
        };
        if ok(1.0) {
            return 1.0;
        }
        if !ok(0.0) {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if ok(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Junction-to-air resistance of one chip: junction-to-case + standard
/// paste TIM + the family's plate-fin tower at the configured airflow.
fn stack_resistance(module: &ComputeModule, config: &AirCooling) -> ThermalResistance {
    let part = module.ccb().part();
    let air = rcs_fluids::Coolant::air().state(config.inlet);
    let sink = HeatSink::PlateFin(config.sink);
    let tim = ThermalInterface::new(
        TimMaterial::StandardPaste,
        Length::millimeters(0.05),
        part.package_side() * part.package_side(),
    );
    part.r_junction_case()
        .in_series(tim.resistance(TimAging::fresh()))
        .in_series(sink.resistance(&air, config.velocity))
}

/// The frozen one-parameter calibration: least-squares preheat
/// coefficient over the paper's two measured anchors
/// (Rigel-2 at 58.1 °C, Taygeta at 72.9 °C, both over 25 °C ambient).
#[must_use]
pub(crate) fn calibrated_preheat_coefficient() -> f64 {
    let config = AirCooling::machine_room_default();
    let op = OperatingPoint::operating_mode();
    let anchors = [(presets::rigel2(), 58.1), (presets::taygeta(), 72.9)];
    let mut num = 0.0;
    let mut den = 0.0;
    for (module, tj_c) in anchors {
        let tj = Celsius::new(tj_c);
        let chip_p = PowerModel::for_part(module.ccb().part()).power(op, tj);
        let board_p = module.ccb().board_power(op, tj);
        let r = stack_resistance(&module, &config);
        let residual = (tj - config.inlet).kelvins() - (chip_p * r).kelvins();
        num += residual * board_p.watts();
        den += board_p.watts() * board_p.watts();
    }
    (num / den).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_devices::FpgaPart;
    use rcs_platform::Ccb;
    use rcs_units::Velocity;

    #[test]
    fn calibration_is_positive_and_modest() {
        let k = calibrated_preheat_coefficient();
        assert!(k > 0.01 && k < 0.15, "k = {k}");
    }

    #[test]
    fn rigel2_anchor_within_tolerance() {
        // paper: 58.1 °C
        let r = AirCooledModel::for_module(presets::rigel2())
            .solve()
            .unwrap();
        assert!(
            (r.junction.degrees() - 58.1).abs() < 3.0,
            "Tj = {}",
            r.junction
        );
    }

    #[test]
    fn taygeta_anchor_within_tolerance() {
        // paper: 72.9 °C
        let r = AirCooledModel::for_module(presets::taygeta())
            .solve()
            .unwrap();
        assert!(
            (r.junction.degrees() - 72.9).abs() < 3.0,
            "Tj = {}",
            r.junction
        );
    }

    #[test]
    fn family_transition_adds_11_to_15_kelvin() {
        // §1: Virtex-6 -> Virtex-7 increases the maximum temperature by
        // 11…15 °C.
        let v6 = AirCooledModel::for_module(presets::rigel2())
            .solve()
            .unwrap();
        let v7 = AirCooledModel::for_module(presets::taygeta())
            .solve()
            .unwrap();
        // measured: +14.8 K; the one-parameter calibration compresses the
        // spread somewhat but must preserve the double-digit step
        let delta = (v7.junction - v6.junction).kelvins();
        assert!((8.0..=18.0).contains(&delta), "delta = {delta}");
    }

    #[test]
    fn ultrascale_on_air_exceeds_the_operating_range() {
        // §1's warning: the next family "will shift the range of their
        // operating temperature limit (80…85 °C)". The model agrees — an
        // UltraScale module on the same air stack either converges far
        // above 85 °C or runs away outright.
        let us_module = ComputeModule::new(
            "UltraScale-on-air",
            Ccb::new(FpgaPart::xcku095(), 8, true),
            4,
            rcs_platform::PowerSupply::skat_dcdc(),
            2,
            6.0,
        );
        match AirCooledModel::for_module(us_module).solve() {
            Ok(r) => assert!(r.junction.degrees() > 85.0, "Tj = {}", r.junction),
            Err(CoreError::NoConvergence { .. }) => {} // runaway is an acceptable statement of "exceeds"
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn utilization_derating_collapses_across_generations() {
        // What utilization can each family sustain on air at the
        // reliability ceiling? This is the paper's argument in one number.
        let limit = Celsius::new(67.5);
        let v6 = AirCooledModel::for_module(presets::rigel2()).max_utilization_below(limit);
        let us_module = ComputeModule::new(
            "UltraScale-on-air",
            Ccb::new(FpgaPart::xcku095(), 8, true),
            4,
            rcs_platform::PowerSupply::skat_dcdc(),
            2,
            6.0,
        );
        let us = AirCooledModel::for_module(us_module).max_utilization_below(limit);
        assert!(v6 > 0.9, "Virtex-6 sustains operating mode: {v6}");
        assert!(us < 0.5, "UltraScale collapses on air: {us}");
    }

    #[test]
    fn more_airflow_helps() {
        let mut fast = AirCooling::machine_room_default();
        fast.velocity = Velocity::from_meters_per_second(6.0);
        let base = AirCooledModel::for_module(presets::taygeta())
            .solve()
            .unwrap();
        let mut brisk = AirCooledModel::for_module(presets::taygeta());
        brisk.config = fast;
        let brisk = brisk.solve().unwrap();
        assert!(brisk.junction < base.junction);
    }

    #[test]
    fn report_has_air_semantics() {
        let r = AirCooledModel::for_module(presets::rigel2())
            .solve()
            .unwrap();
        assert_eq!(r.architecture, "air cooling");
        assert_eq!(r.coolant_flow.cubic_meters_per_second(), 0.0);
        assert!(r.cooling_overhead() > 0.2); // CRAC COP 3 dominates
    }
}
