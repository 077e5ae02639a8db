//! Closed-loop supervision: the §2 control subsystem acting on the
//! coupled model.
//!
//! The paper requires "a control subsystem containing sensors of level,
//! flow, and temperature". Sensors alone only observe; this module closes
//! the loop: a [`Supervisor`] steps the coupled immersion model through a
//! scenario (e.g. a degrading chiller on a hot day), reads the §2 sensors
//! at every step, and applies the recommended action — throttling the
//! computational load or shutting the module down — before hardware
//! limits are crossed.

use rcs_cooling::control::{Action, ControlSubsystem, Readings};
use rcs_cooling::ImmersionBath;
use rcs_devices::OperatingPoint;
use rcs_platform::ComputeModule;
use rcs_thermal::Chiller;
use rcs_units::{Celsius, Power};

use crate::error::CoreError;
use crate::immersion::ImmersionModel;

/// One supervision step's record.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionStep {
    /// Step index in the scenario.
    pub step: usize,
    /// Chilled-water supply temperature imposed by the scenario.
    pub supply: Celsius,
    /// Utilization the supervisor allowed this step.
    pub utilization: f64,
    /// Resulting junction temperature.
    pub junction: Celsius,
    /// Resulting agent (hot oil) temperature.
    pub agent: Celsius,
    /// Action the control subsystem recommended on this step's readings.
    pub action: Action,
}

/// Outcome of a supervised scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionOutcome {
    /// Per-step records.
    pub steps: Vec<SupervisionStep>,
    /// `true` if the supervisor had to shut the module down.
    pub shut_down: bool,
    /// Lowest utilization the supervisor had to throttle to (1.0 if
    /// never throttled).
    pub min_utilization: f64,
}

impl SupervisionOutcome {
    /// Highest junction temperature seen across the scenario, or `None`
    /// for an empty scenario (previously this folded from `f64::MIN`
    /// and reported it as a real "peak").
    #[must_use]
    pub fn peak_junction(&self) -> Option<Celsius> {
        self.steps.iter().map(|s| s.junction).reduce(Celsius::max)
    }
}

/// A utilization-throttling supervisor for one immersion-cooled module.
///
/// Policy: on a `ThrottleLoad` recommendation, reduce utilization by 10
/// percentage points (floor 20 %); on `EmergencyShutdown`, stop; when the
/// scan is healthy and headroom exists, restore 5 points toward the
/// demand.
///
/// # Examples
///
/// ```
/// use rcs_core::Supervisor;
/// use rcs_units::Celsius;
///
/// // chiller water warming from 20 to 34 °C (failing facility chiller)
/// let scenario: Vec<Celsius> =
///     (0..8).map(|i| Celsius::new(20.0 + 2.0 * i as f64)).collect();
/// let outcome = Supervisor::skat_default().run(&scenario)?;
/// // the supervisor keeps the module alive by shedding load
/// assert!(!outcome.shut_down);
/// assert!(outcome.peak_junction().expect("non-empty scenario").degrees() <= 67.5);
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    module: ComputeModule,
    bath: ImmersionBath,
    control: ControlSubsystem,
    demand_utilization: f64,
}

impl Supervisor {
    /// A supervisor over the SKAT module at operating-mode demand.
    #[must_use]
    pub fn skat_default() -> Self {
        Self {
            module: rcs_platform::presets::skat(),
            bath: ImmersionBath::skat_default(),
            control: ControlSubsystem::default(),
            demand_utilization: 0.90,
        }
    }

    /// Runs the supervisor through a chilled-water-supply scenario: one
    /// coupled solve per step, sensors read, policy applied to the next
    /// step's utilization.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub fn run(&self, supply_scenario: &[Celsius]) -> Result<SupervisionOutcome, CoreError> {
        let mut utilization = self.demand_utilization;
        let mut min_utilization = utilization;
        let mut steps = Vec::with_capacity(supply_scenario.len());
        let mut shut_down = false;

        for (step, &supply) in supply_scenario.iter().enumerate() {
            let mut bath = self.bath.clone();
            bath.chiller = Chiller::new(supply, Power::kilowatts(150.0), self.bath.chiller.cop());
            let report = ImmersionModel::new(self.module.clone(), bath)
                .with_operating_point(OperatingPoint::at_utilization(utilization))
                .solve()?;

            let readings = Readings {
                coolant_level: 1.0,
                coolant_flow: report.coolant_flow,
                coolant_temperature: report.coolant_hot,
                component_temperature: report.junction,
            };
            let alarms = self.control.evaluate(&readings);
            let action = alarms
                .iter()
                .find(|a| a.action == Action::EmergencyShutdown)
                .or_else(|| alarms.first())
                .map_or(Action::None, |a| a.action);

            steps.push(SupervisionStep {
                step,
                supply,
                utilization,
                junction: report.junction,
                agent: report.coolant_hot,
                action,
            });

            match action {
                Action::EmergencyShutdown => {
                    shut_down = true;
                    break;
                }
                Action::ThrottleLoad => {
                    utilization = (utilization - 0.10).max(0.20);
                }
                Action::None => {
                    utilization = (utilization + 0.05).min(self.demand_utilization);
                }
                Action::ScheduleCoolantTopUp | Action::SwitchToStandbyPump => {}
            }
            min_utilization = min_utilization.min(utilization);
        }

        Ok(SupervisionOutcome {
            steps,
            shut_down,
            min_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(from: f64, to: f64, steps: usize) -> Vec<Celsius> {
        (0..steps)
            .map(|i| Celsius::new(from + (to - from) * i as f64 / (steps - 1).max(1) as f64))
            .collect()
    }

    #[test]
    fn nominal_scenario_never_throttles() {
        // design-point supply: the agent sits at 29.8 C with only 0.2 K of
        // headroom below the 30 C setpoint, so the scenario must stay flat
        let outcome = Supervisor::skat_default()
            .run(&ramp(20.0, 20.0, 5))
            .unwrap();
        assert!(!outcome.shut_down);
        assert!((outcome.min_utilization - 0.90).abs() < 1e-12);
        assert!(outcome.steps.iter().all(|s| s.action == Action::None));
    }

    #[test]
    fn failing_chiller_triggers_throttling_not_shutdown() {
        // 20 -> 34 °C supply: well past the design point
        let outcome = Supervisor::skat_default()
            .run(&ramp(20.0, 34.0, 10))
            .unwrap();
        assert!(!outcome.shut_down, "{outcome:?}");
        assert!(outcome.min_utilization < 0.90);
        assert!(outcome
            .steps
            .iter()
            .any(|s| s.action == Action::ThrottleLoad));
        // the whole point: the junction never leaves the reliability window
        assert!(outcome.peak_junction().unwrap().degrees() <= 67.5);
    }

    #[test]
    fn unsupervised_module_would_overheat() {
        // Same end state without throttling: the junction leaves the
        // reliability window, proving the supervisor earned its keep.
        let mut bath = ImmersionBath::skat_default();
        bath.chiller = Chiller::new(Celsius::new(34.0), Power::kilowatts(150.0), 4.5);
        let unsupervised = ImmersionModel::new(rcs_platform::presets::skat(), bath)
            .with_operating_point(OperatingPoint::at_utilization(0.90))
            .solve()
            .unwrap();
        let supervised = Supervisor::skat_default()
            .run(&ramp(20.0, 34.0, 10))
            .unwrap();
        assert!(unsupervised.junction > supervised.peak_junction().unwrap());
    }

    #[test]
    fn recovery_restores_utilization() {
        // degrade then recover: utilization comes back toward demand
        let mut scenario = ramp(20.0, 32.0, 6);
        scenario.extend(ramp(32.0, 20.0, 6));
        scenario.extend(std::iter::repeat_n(Celsius::new(20.0), 6));
        let outcome = Supervisor::skat_default().run(&scenario).unwrap();
        assert!(!outcome.shut_down);
        let last = outcome.steps.last().unwrap();
        assert!(last.utilization > outcome.min_utilization);
    }

    #[test]
    fn steps_record_the_scenario() {
        let outcome = Supervisor::skat_default()
            .run(&ramp(20.0, 24.0, 4))
            .unwrap();
        assert_eq!(outcome.steps.len(), 4);
        assert_eq!(outcome.steps[0].supply, Celsius::new(20.0));
        assert_eq!(outcome.steps[3].supply, Celsius::new(24.0));
    }
}
