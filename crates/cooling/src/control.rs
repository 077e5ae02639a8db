//! The liquid-cooling control subsystem.
//!
//! §2: "The liquid cooling system must have a control subsystem containing
//! sensors of level, flow, and temperature of the heat-transfer agent, and
//! a temperature sensor for cooling components." This module implements
//! that subsystem as a deterministic threshold monitor producing alarms
//! and recommended actions.

use rcs_units::{Celsius, VolumeFlow};

/// One scan of all sensor channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Readings {
    /// Coolant level as a fraction of the nominal fill.
    pub coolant_level: f64,
    /// Circulated coolant flow.
    pub coolant_flow: VolumeFlow,
    /// Heat-transfer agent temperature at the bath outlet.
    pub coolant_temperature: Celsius,
    /// Hottest monitored component (FPGA) temperature.
    pub component_temperature: Celsius,
}

/// Severity of an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Out of nominal band; log and watch.
    Warning,
    /// Action required to avoid damage.
    Critical,
}

/// What the control subsystem tells the operator/supervisor to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// No action, keep monitoring.
    None,
    /// Top up the coolant at next service.
    ScheduleCoolantTopUp,
    /// Reduce the computational load (clock/utilization throttle).
    ThrottleLoad,
    /// Stop the module before hardware is damaged.
    EmergencyShutdown,
    /// Start the standby pump / inspect the running pump.
    SwitchToStandbyPump,
}

impl Action {
    /// Severity rank for comparing recommended actions: `None` < top-up
    /// < throttle < standby pump < shutdown. Strictly worse plant states
    /// must never map to a lower rank.
    #[must_use]
    pub fn severity_rank(self) -> u8 {
        match self {
            Self::None => 0,
            Self::ScheduleCoolantTopUp => 1,
            Self::ThrottleLoad => 2,
            Self::SwitchToStandbyPump => 3,
            Self::EmergencyShutdown => 4,
        }
    }
}

/// The most severe of a set of recommended actions (by
/// [`Action::severity_rank`]); [`Action::None`] for an empty set.
#[must_use]
pub fn worst_action(actions: impl IntoIterator<Item = Action>) -> Action {
    actions
        .into_iter()
        .max_by_key(|a| a.severity_rank())
        .unwrap_or(Action::None)
}

/// One raised alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Which channel fired.
    pub channel: &'static str,
    /// Severity of the excursion.
    pub severity: Severity,
    /// Recommended response.
    pub action: Action,
    /// Human-readable detail.
    pub message: String,
}

/// Thresholds for the control subsystem.
///
/// Defaults encode the paper's operating envelope: agent at or below
/// 30 °C, components at or below 55 °C with an absolute ceiling at the
/// reliability limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSubsystem {
    /// Warning level threshold (fraction of nominal fill).
    pub min_level_warning: f64,
    /// Critical level threshold.
    pub min_level_critical: f64,
    /// Minimum healthy circulation flow.
    pub min_flow: VolumeFlow,
    /// Agent temperature setpoint (warning above).
    pub agent_setpoint: Celsius,
    /// Agent temperature critical limit.
    pub agent_limit: Celsius,
    /// Component temperature design point (warning above).
    pub component_setpoint: Celsius,
    /// Component temperature critical limit (reliability ceiling).
    pub component_limit: Celsius,
}

impl Default for ControlSubsystem {
    fn default() -> Self {
        Self {
            min_level_warning: 0.92,
            min_level_critical: 0.80,
            min_flow: VolumeFlow::liters_per_minute(150.0),
            agent_setpoint: Celsius::new(30.0),
            agent_limit: Celsius::new(40.0),
            component_setpoint: Celsius::new(55.0),
            component_limit: Celsius::new(67.5),
        }
    }
}

impl ControlSubsystem {
    /// Thresholds for the SKAT+ design point (§4): the hotter
    /// UltraScale+ parts run their agent near 31 °C and their junctions
    /// near 55.5 °C *by design*, so the warning setpoints move up while
    /// the hard critical limits (40 °C agent, 67.5 °C reliability
    /// ceiling) stay exactly where the paper puts them.
    #[must_use]
    pub fn skat_plus() -> Self {
        Self {
            agent_setpoint: Celsius::new(33.0),
            component_setpoint: Celsius::new(58.0),
            ..Self::default()
        }
    }

    /// Evaluates one scan, returning all raised alarms (empty when
    /// healthy), most severe first.
    #[must_use]
    pub fn evaluate(&self, r: &Readings) -> Vec<Alarm> {
        let mut alarms = Vec::new();

        if r.coolant_level < self.min_level_critical {
            alarms.push(Alarm {
                channel: "level",
                severity: Severity::Critical,
                action: Action::EmergencyShutdown,
                message: format!(
                    "coolant level {:.0}% below critical {:.0}%",
                    r.coolant_level * 100.0,
                    self.min_level_critical * 100.0
                ),
            });
        } else if r.coolant_level < self.min_level_warning {
            alarms.push(Alarm {
                channel: "level",
                severity: Severity::Warning,
                action: Action::ScheduleCoolantTopUp,
                message: format!("coolant level {:.0}% low", r.coolant_level * 100.0),
            });
        }

        if r.coolant_flow < self.min_flow {
            let starved = r.coolant_flow.cubic_meters_per_second()
                < 0.5 * self.min_flow.cubic_meters_per_second();
            alarms.push(Alarm {
                channel: "flow",
                severity: if starved {
                    Severity::Critical
                } else {
                    Severity::Warning
                },
                action: if starved {
                    Action::SwitchToStandbyPump
                } else {
                    Action::ThrottleLoad
                },
                message: format!(
                    "circulation {:.0} L/min below minimum {:.0} L/min",
                    r.coolant_flow.as_liters_per_minute(),
                    self.min_flow.as_liters_per_minute()
                ),
            });
        }

        if r.coolant_temperature > self.agent_limit {
            alarms.push(Alarm {
                channel: "agent temperature",
                severity: Severity::Critical,
                action: Action::EmergencyShutdown,
                message: format!(
                    "agent at {:.1}, limit {:.1}",
                    r.coolant_temperature, self.agent_limit
                ),
            });
        } else if r.coolant_temperature > self.agent_setpoint {
            alarms.push(Alarm {
                channel: "agent temperature",
                severity: Severity::Warning,
                action: Action::ThrottleLoad,
                message: format!(
                    "agent at {:.1} above setpoint {:.1}",
                    r.coolant_temperature, self.agent_setpoint
                ),
            });
        }

        if r.component_temperature > self.component_limit {
            alarms.push(Alarm {
                channel: "component temperature",
                severity: Severity::Critical,
                action: Action::EmergencyShutdown,
                message: format!(
                    "component at {:.1} beyond reliability limit {:.1}",
                    r.component_temperature, self.component_limit
                ),
            });
        } else if r.component_temperature > self.component_setpoint {
            alarms.push(Alarm {
                channel: "component temperature",
                severity: Severity::Warning,
                action: Action::ThrottleLoad,
                message: format!(
                    "component at {:.1} above design point {:.1}",
                    r.component_temperature, self.component_setpoint
                ),
            });
        }

        alarms.sort_by_key(|a| core::cmp::Reverse(a.severity));
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy SKAT operating-mode scan.
    fn nominal_skat_readings() -> Readings {
        Readings {
            coolant_level: 1.0,
            coolant_flow: VolumeFlow::liters_per_minute(420.0),
            coolant_temperature: Celsius::new(28.5),
            component_temperature: Celsius::new(53.0),
        }
    }

    #[test]
    fn nominal_scan_is_healthy() {
        let ctl = ControlSubsystem::default();
        assert!(ctl.evaluate(&nominal_skat_readings()).is_empty());
    }

    #[test]
    fn low_level_escalates_with_depth() {
        let ctl = ControlSubsystem::default();
        let mut r = nominal_skat_readings();
        r.coolant_level = 0.90;
        let warn = ctl.evaluate(&r);
        assert_eq!(warn.len(), 1);
        assert_eq!(warn[0].severity, Severity::Warning);
        assert_eq!(warn[0].action, Action::ScheduleCoolantTopUp);

        r.coolant_level = 0.70;
        let crit = ctl.evaluate(&r);
        assert_eq!(crit[0].severity, Severity::Critical);
        assert_eq!(crit[0].action, Action::EmergencyShutdown);
    }

    #[test]
    fn starved_flow_switches_to_standby_pump() {
        let ctl = ControlSubsystem::default();
        let mut r = nominal_skat_readings();
        r.coolant_flow = VolumeFlow::liters_per_minute(60.0);
        let alarms = ctl.evaluate(&r);
        assert_eq!(alarms[0].action, Action::SwitchToStandbyPump);
    }

    #[test]
    fn agent_over_30c_warns_per_the_paper() {
        let ctl = ControlSubsystem::default();
        let mut r = nominal_skat_readings();
        r.coolant_temperature = Celsius::new(31.0);
        let alarms = ctl.evaluate(&r);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].channel, "agent temperature");
        assert_eq!(alarms[0].action, Action::ThrottleLoad);
    }

    #[test]
    fn hot_component_hits_the_reliability_ceiling() {
        let ctl = ControlSubsystem::default();
        let mut r = nominal_skat_readings();
        r.component_temperature = Celsius::new(70.0);
        let alarms = ctl.evaluate(&r);
        assert_eq!(alarms[0].severity, Severity::Critical);
        assert_eq!(alarms[0].action, Action::EmergencyShutdown);
    }

    #[test]
    fn critical_alarms_sort_first() {
        let ctl = ControlSubsystem::default();
        let r = Readings {
            coolant_level: 0.90,                               // warning
            coolant_flow: VolumeFlow::liters_per_minute(50.0), // critical
            coolant_temperature: Celsius::new(29.0),
            component_temperature: Celsius::new(54.0),
        };
        let alarms = ctl.evaluate(&r);
        assert_eq!(alarms.len(), 2);
        assert_eq!(alarms[0].severity, Severity::Critical);
        assert_eq!(alarms[1].severity, Severity::Warning);
    }
}
