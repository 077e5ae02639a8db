//! Fault injection: scripted degradation timelines for the cooling plant.
//!
//! The paper's reliability argument (§2, §4) is qualitative: immersion
//! removes failure classes. This module makes the remaining classes
//! *simulable*: a [`FaultTimeline`] scripts typed fault events — pump
//! seizure, impeller wear, exchanger fouling, chiller degradation,
//! coolant leaks, stuck valves and lying sensors — and [`state_at`]
//! resolves the timeline into a [`DegradedState`] that the coupled model
//! consumes through degraded-mode physics hooks: derated pump curves,
//! fouled exchanger UA, offset/derated chiller, and corrupted sensor
//! readings.
//!
//! [`state_at`]: FaultTimeline::state_at

use rcs_hydraulics::PumpCurve;
use rcs_units::{Seconds, TempDelta};

use crate::ImmersionBath;

/// Coolant level below which the pump inlet starts entraining air and
/// the delivered head derates (open-bath suction exposure).
pub(crate) const AIR_ENTRAINMENT_LEVEL: f64 = 0.85;

/// Coolant level below which circulation stops entirely: the suction is
/// uncovered and the pump churns air.
pub(crate) const LOSS_OF_SUCTION_LEVEL: f64 = 0.50;

/// Which §2 sensor channel a sensor fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorChannel {
    /// The bath level sensor (fraction of nominal fill).
    CoolantLevel,
    /// The circulation flow sensor (L/min).
    CoolantFlow,
    /// The heat-transfer-agent temperature sensor (°C).
    AgentTemperature,
    /// One of the redundant component-temperature probes (°C), by index.
    ComponentTemperature(usize),
}

/// How a faulty sensor lies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Reports a frozen value regardless of the true state.
    StuckAt(f64),
    /// Reports the true value plus a ramp growing from fault onset.
    Drift {
        /// Error growth rate in channel units per second.
        rate_per_s: f64,
    },
    /// Reports nothing at all (broken wire, dead transmitter).
    Dropout,
}

impl SensorFault {
    /// The corrupted reading for a true value, `elapsed` after fault
    /// onset. `None` models a dropout (no sample delivered).
    #[must_use]
    pub(crate) fn corrupt(&self, true_value: f64, elapsed: Seconds) -> Option<f64> {
        match self {
            Self::StuckAt(v) => Some(*v),
            Self::Drift { rate_per_s } => Some(true_value + rate_per_s * elapsed.seconds()),
            Self::Dropout => None,
        }
    }
}

/// A typed plant fault. Step faults take effect at the event time;
/// progressive faults (wear, fouling, drift, leak) accumulate from the
/// event time onward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A circulation pump rotor locks instantly (the pump contributes no
    /// head from the event time on).
    PumpSeizure {
        /// Index of the seized pump (`0..pump_count`).
        pump: usize,
    },
    /// Gradual impeller wear: every pump's delivered head and flow decay
    /// linearly from the event time (floored well above zero — wear
    /// degrades, seizure stops).
    ImpellerWear {
        /// Fractional head loss per hour of operation after onset.
        head_decay_per_hour: f64,
    },
    /// Heat-exchanger fouling: a scale layer grows on the plates, adding
    /// series thermal resistance at a constant rate.
    ExchangerFouling {
        /// Fouling resistance growth, K/W per hour.
        rate_k_per_w_per_hour: f64,
    },
    /// The facility chiller loses setpoint control and its supply
    /// temperature drifts upward.
    ChillerSetpointDrift {
        /// Supply temperature rise, K per hour.
        rate_k_per_hour: f64,
    },
    /// The chiller loses part of its rated capacity (e.g. a failed
    /// compressor stage) in one step.
    ChillerCapacityLoss {
        /// Remaining capacity as a fraction of rated.
        capacity_factor: f64,
    },
    /// The bath loses coolant at a constant rate (fitting weep,
    /// evaporation through a failed seal).
    CoolantLeak {
        /// Level loss per hour (fraction of nominal fill).
        level_per_hour: f64,
    },
    /// A circulation-path valve sticks partially closed in one step.
    ValveStuckPartial {
        /// The stuck opening fraction, at most 1. An opening of 0 or
        /// less is a fully shut valve: no circulation.
        opening: f64,
    },
    /// A sensor channel starts lying.
    SensorFault {
        /// The corrupted channel.
        channel: SensorChannel,
        /// The corruption mode.
        fault: SensorFault,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: Seconds,
    /// What breaks.
    pub kind: FaultKind,
}

/// A scripted sequence of fault events over a drill.
///
/// # Examples
///
/// ```
/// use rcs_cooling::faults::{DegradedState, FaultKind, FaultTimeline};
/// use rcs_units::Seconds;
///
/// let timeline = FaultTimeline::new()
///     .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
/// assert_eq!(timeline.state_at(Seconds::minutes(1.0)), DegradedState::nominal());
/// assert_eq!(timeline.state_at(Seconds::minutes(3.0)).seized_pumps, vec![0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// An empty (fault-free) timeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a fault.
    #[must_use]
    pub fn with_event(mut self, at: Seconds, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Resolves the timeline into the plant's degraded state at time `t`.
    /// Events scheduled after `t` have no effect; progressive faults
    /// accumulate over the elapsed time since their onset.
    #[must_use]
    pub fn state_at(&self, t: Seconds) -> DegradedState {
        let mut state = DegradedState::nominal();
        for event in &self.events {
            if event.at.seconds() > t.seconds() {
                continue;
            }
            let elapsed_h = (t - event.at).as_hours();
            match event.kind {
                FaultKind::PumpSeizure { pump } => {
                    if !state.seized_pumps.contains(&pump) {
                        state.seized_pumps.push(pump);
                    }
                }
                FaultKind::ImpellerWear {
                    head_decay_per_hour,
                } => {
                    state.pump_head_factor *= (1.0 - head_decay_per_hour * elapsed_h).max(0.05);
                }
                FaultKind::ExchangerFouling {
                    rate_k_per_w_per_hour,
                } => {
                    state.fouling_k_per_w += rate_k_per_w_per_hour * elapsed_h;
                }
                FaultKind::ChillerSetpointDrift { rate_k_per_hour } => {
                    state.chiller_setpoint_offset = TempDelta::from_kelvins(
                        state.chiller_setpoint_offset.kelvins() + rate_k_per_hour * elapsed_h,
                    );
                }
                FaultKind::ChillerCapacityLoss { capacity_factor } => {
                    state.chiller_capacity_factor *= capacity_factor.clamp(0.0, 1.0);
                }
                FaultKind::CoolantLeak { level_per_hour } => {
                    state.coolant_level =
                        (state.coolant_level - level_per_hour * elapsed_h).max(0.0);
                }
                FaultKind::ValveStuckPartial { opening } => {
                    state.valve_opening = state.valve_opening.min(opening);
                }
                FaultKind::SensorFault { channel, fault } => {
                    state.sensor_faults.push((channel, fault, event.at));
                }
            }
        }
        state
    }
}

/// The plant's degradation at one instant, resolved from a timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedState {
    /// Indices of seized (zero-head) pumps.
    pub seized_pumps: Vec<usize>,
    /// Remaining pump head fraction after impeller wear (`1.0` = new).
    pub pump_head_factor: f64,
    /// Accumulated exchanger fouling resistance, K/W.
    pub fouling_k_per_w: f64,
    /// Chiller supply-temperature offset above its setpoint.
    pub chiller_setpoint_offset: TempDelta,
    /// Remaining chiller capacity fraction (`1.0` = rated).
    pub chiller_capacity_factor: f64,
    /// True coolant level (fraction of nominal fill).
    pub coolant_level: f64,
    /// Circulation-valve opening (`1.0` = fully open).
    pub valve_opening: f64,
    /// Active sensor faults with their onset times.
    pub sensor_faults: Vec<(SensorChannel, SensorFault, Seconds)>,
}

impl DegradedState {
    /// The healthy plant.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            seized_pumps: Vec::new(),
            pump_head_factor: 1.0,
            fouling_k_per_w: 0.0,
            chiller_setpoint_offset: TempDelta::from_kelvins(0.0),
            chiller_capacity_factor: 1.0,
            coolant_level: 1.0,
            valve_opening: 1.0,
            sensor_faults: Vec::new(),
        }
    }

    /// Pump-inlet derate from a falling bath level: full head above
    /// `AIR_ENTRAINMENT_LEVEL`, linear loss down to
    /// `LOSS_OF_SUCTION_LEVEL`, nothing below.
    #[must_use]
    pub fn air_entrainment_factor(&self) -> f64 {
        if self.coolant_level >= AIR_ENTRAINMENT_LEVEL {
            1.0
        } else if self.coolant_level <= LOSS_OF_SUCTION_LEVEL {
            0.0
        } else {
            (self.coolant_level - LOSS_OF_SUCTION_LEVEL)
                / (AIR_ENTRAINMENT_LEVEL - LOSS_OF_SUCTION_LEVEL)
        }
    }

    /// The degraded bath: fouled exchanger, offset and derated chiller.
    /// Pump degradation is delivered separately via [`pump_curves`]
    /// because a seized pump changes the hydraulic network topology, not
    /// just a coefficient.
    ///
    /// [`pump_curves`]: DegradedState::pump_curves
    #[must_use]
    pub fn apply_to(&self, bath: &ImmersionBath) -> ImmersionBath {
        let mut degraded = bath.clone();
        if self.fouling_k_per_w > 0.0 {
            degraded.exchanger = degraded.exchanger.with_fouling(self.fouling_k_per_w);
        }
        if self.chiller_setpoint_offset.kelvins() != 0.0 {
            degraded.chiller = degraded
                .chiller
                .with_setpoint_offset(self.chiller_setpoint_offset);
        }
        if self.chiller_capacity_factor < 1.0 {
            degraded.chiller = degraded.chiller.derated(self.chiller_capacity_factor);
        }
        degraded
    }

    /// The surviving pump curves for a bath: seized pumps are omitted,
    /// the rest are derated by impeller wear and air entrainment. An
    /// empty list means the bath has no circulation at all (every pump
    /// seized, or the level fell below the suction).
    #[must_use]
    pub fn pump_curves(&self, bath: &ImmersionBath) -> Vec<PumpCurve> {
        let derate = self.pump_head_factor * self.air_entrainment_factor();
        if derate <= 0.0 {
            return Vec::new();
        }
        (0..bath.pump_count)
            .filter(|i| !self.seized_pumps.contains(i))
            .map(|_| bath.pump.derated(derate, derate))
            .collect()
    }

    /// The reading a channel's sensor actually delivers at time `t`
    /// given the channel's true value: the latest active fault on the
    /// channel wins; `None` is a dropout; a fault-free channel reports
    /// the truth.
    #[must_use]
    pub fn sensed(&self, channel: SensorChannel, true_value: f64, t: Seconds) -> Option<f64> {
        let mut reading = Some(true_value);
        for (ch, fault, onset) in &self.sensor_faults {
            if *ch == channel {
                reading = fault.corrupt(true_value, t - *onset);
            }
        }
        reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(m: f64) -> Seconds {
        Seconds::minutes(m)
    }

    #[test]
    fn empty_timeline_is_nominal_forever() {
        let state = FaultTimeline::new().state_at(Seconds::hours(10.0));
        assert_eq!(state, DegradedState::nominal());
    }

    #[test]
    fn events_do_not_fire_early() {
        let tl = FaultTimeline::new()
            .with_event(minutes(5.0), FaultKind::ValveStuckPartial { opening: 0.2 });
        assert_eq!(tl.state_at(minutes(4.9)), DegradedState::nominal());
        assert_eq!(tl.state_at(minutes(5.0)).valve_opening, 0.2);
    }

    #[test]
    fn progressive_faults_accumulate_from_onset() {
        let tl = FaultTimeline::new().with_event(
            minutes(10.0),
            FaultKind::CoolantLeak {
                level_per_hour: 0.6,
            },
        );
        let at_onset = tl.state_at(minutes(10.0));
        assert!((at_onset.coolant_level - 1.0).abs() < 1e-12);
        let later = tl.state_at(minutes(40.0)); // 0.5 h of leak
        assert!((later.coolant_level - 0.7).abs() < 1e-12);
        // the level can never go negative
        assert_eq!(tl.state_at(Seconds::hours(10.0)).coolant_level, 0.0);
    }

    #[test]
    fn wear_floors_instead_of_reversing() {
        let tl = FaultTimeline::new().with_event(
            Seconds::new(0.0),
            FaultKind::ImpellerWear {
                head_decay_per_hour: 2.0,
            },
        );
        let worn = tl.state_at(Seconds::hours(5.0));
        assert!((worn.pump_head_factor - 0.05).abs() < 1e-12);
    }

    #[test]
    fn seizure_drops_pumps_from_the_curve_list() {
        let bath = ImmersionBath::skat_plus_default(); // two pumps
        let tl =
            FaultTimeline::new().with_event(Seconds::new(0.0), FaultKind::PumpSeizure { pump: 0 });
        let curves = tl.state_at(minutes(1.0)).pump_curves(&bath);
        assert_eq!(curves.len(), 1);

        let both = tl
            .with_event(minutes(2.0), FaultKind::PumpSeizure { pump: 1 })
            .state_at(minutes(3.0));
        assert!(both.pump_curves(&bath).is_empty());
    }

    #[test]
    fn low_level_entrains_air_and_then_loses_suction() {
        let mut state = DegradedState::nominal();
        state.coolant_level = 0.90;
        assert_eq!(state.air_entrainment_factor(), 1.0);
        state.coolant_level = 0.675; // midway between 0.85 and 0.50
        assert!((state.air_entrainment_factor() - 0.5).abs() < 1e-12);
        state.coolant_level = 0.40;
        assert_eq!(state.air_entrainment_factor(), 0.0);
        assert!(state.pump_curves(&ImmersionBath::skat_default()).is_empty());
    }

    #[test]
    fn apply_to_degrades_exchanger_and_chiller() {
        let bath = ImmersionBath::skat_default();
        let tl = FaultTimeline::new()
            .with_event(
                Seconds::new(0.0),
                FaultKind::ExchangerFouling {
                    rate_k_per_w_per_hour: 0.02,
                },
            )
            .with_event(
                Seconds::new(0.0),
                FaultKind::ChillerSetpointDrift {
                    rate_k_per_hour: 4.0,
                },
            );
        let degraded = tl.state_at(Seconds::hours(1.0)).apply_to(&bath);
        assert!(
            degraded.exchanger.ua().watts_per_kelvin() < bath.exchanger.ua().watts_per_kelvin()
        );
        assert!(degraded.chiller.setpoint() > bath.chiller.setpoint());
        // nominal state leaves the bath untouched
        assert_eq!(DegradedState::nominal().apply_to(&bath), bath);
    }

    #[test]
    fn sensor_faults_corrupt_only_their_channel() {
        let tl = FaultTimeline::new()
            .with_event(
                minutes(1.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::AgentTemperature,
                    fault: SensorFault::StuckAt(28.0),
                },
            )
            .with_event(
                minutes(1.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::ComponentTemperature(1),
                    fault: SensorFault::Dropout,
                },
            );
        let state = tl.state_at(minutes(2.0));
        assert_eq!(
            state.sensed(SensorChannel::AgentTemperature, 31.0, minutes(2.0)),
            Some(28.0)
        );
        assert_eq!(
            state.sensed(SensorChannel::ComponentTemperature(1), 55.0, minutes(2.0)),
            None
        );
        // untouched channels report the truth
        assert_eq!(
            state.sensed(SensorChannel::ComponentTemperature(0), 55.0, minutes(2.0)),
            Some(55.0)
        );
        assert_eq!(
            state.sensed(SensorChannel::CoolantFlow, 384.0, minutes(2.0)),
            Some(384.0)
        );
    }

    #[test]
    fn drift_grows_from_fault_onset() {
        let fault = SensorFault::Drift { rate_per_s: 0.1 };
        assert_eq!(fault.corrupt(50.0, Seconds::new(0.0)), Some(50.0));
        assert_eq!(fault.corrupt(50.0, Seconds::new(30.0)), Some(53.0));
    }
}
