//! Fault drills: the coupled transient model driven through scripted
//! fault timelines under a sensor-fault-tolerant supervisor.
//!
//! A [`FaultDrill`] marries three robustness layers built below:
//!
//! 1. **Degraded-mode physics** — a [`FaultTimeline`] resolved every scan
//!    into a `DegradedState` that derates pump curves, fouls the
//!    exchanger, offsets/derates the chiller, drains the bath and jams
//!    valves; the coupled steady solver (through its retry ladder)
//!    relinearizes the two-node bath transient around the degraded plant.
//! 2. **Sensor plausibility** — the [`HardenedSupervisor`] runs the §2
//!    control subsystem on *filtered* channels: range and rate checks,
//!    last-good hold with timeout, and median voting across redundant
//!    component-temperature probes, so lying sensors neither raise false
//!    alarms nor mask real excursions.
//! 3. **Protective margin** — the supervisor trips its emergency stop a
//!    few kelvin below the hardware reliability ceiling, so shutdown
//!    always lands *before* a true hardware-limit violation.
//!
//! [`FaultTimeline`]: rcs_cooling::faults::FaultTimeline

use rcs_cooling::control::{self, Action, Alarm, ControlSubsystem, Readings};
use rcs_cooling::faults::{DegradedState, FaultTimeline, SensorChannel};
use rcs_cooling::plausibility::{median_vote, ChannelLimits, ChannelStatus, PlausibilityFilter};
use rcs_cooling::ImmersionBath;
use rcs_devices::OperatingPoint;
use rcs_kernel::{Clock, Codec, SnapshotError};
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};
use rcs_platform::ComputeModule;
use rcs_units::{Celsius, Seconds, VolumeFlow};

use crate::error::CoreError;
use crate::immersion::{
    pump_heat, ImmersionModel, SteadySeed, BATH_VOLUME_M3, CHIP_FIELD_CAPACITANCE_PER_CHIP,
};

/// Snapshot kind tag for [`DrillSession`] checkpoints.
pub const DRILL_SNAPSHOT_KIND: &str = "core.drill";

/// Sensor scan interval.
pub(crate) const SCAN_DT: Seconds = Seconds::new(2.0);

/// Steps between checks for plant relinearization (the steady solver is
/// re-run only when the degraded physics actually changed).
const RELINEARIZE_EVERY: usize = 5;

/// Redundant component-temperature probes per module.
pub(crate) const COMPONENT_PROBES: usize = 3;

/// Protective margin below the hardware reliability ceiling at which the
/// hardened supervisor trips its emergency stop. Sized for the
/// worst-case heating rate in the drill set (a fully stagnant bath heats
/// the chip field at ~0.6 K/s, ~1.2 K per scan).
pub(crate) const SHUTDOWN_MARGIN_K: f64 = 3.5;

/// Stagnation penalty on the chip-to-bath resistance when circulation is
/// lost entirely (natural convection instead of forced turbulator flow).
const STAGNANT_SINK_FACTOR: f64 = 5.0;

/// Residual bath-to-water conductance path with no circulation: natural
/// convection through the heat-exchange section plus wall conduction.
const STAGNANT_HX_RESISTANCE_K_PER_W: f64 = 0.02;

/// Utilization floor the throttle policy will not go below.
const UTILIZATION_FLOOR: f64 = 0.20;

/// Throttle step per scan on a `ThrottleLoad` recommendation.
const THROTTLE_STEP: f64 = 0.05;

/// The raw (possibly lying) sensor samples delivered in one scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawScan {
    /// Level transmitter (fraction of nominal fill), `None` on dropout.
    pub level: Option<f64>,
    /// Flow transmitter (L/min), `None` on dropout.
    pub flow_lpm: Option<f64>,
    /// Agent temperature transmitter (°C), `None` on dropout.
    pub agent_c: Option<f64>,
    /// Redundant component-temperature probes (°C).
    pub component_c: [Option<f64>; COMPONENT_PROBES],
}

/// Worst health seen per channel across a drill; every channel valid by
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelHealth {
    /// Level channel.
    pub level: ChannelStatus,
    /// Flow channel.
    pub flow: ChannelStatus,
    /// Agent-temperature channel.
    pub agent: ChannelStatus,
    /// Component-temperature probes.
    pub component: [ChannelStatus; COMPONENT_PROBES],
}

impl ChannelHealth {
    /// Channels that ended the drill declared `Failed`.
    #[must_use]
    pub fn failed_channels(&self) -> Vec<&'static str> {
        let mut failed = Vec::new();
        if self.level == ChannelStatus::Failed {
            failed.push("level");
        }
        if self.flow == ChannelStatus::Failed {
            failed.push("flow");
        }
        if self.agent == ChannelStatus::Failed {
            failed.push("agent temperature");
        }
        if self.component.contains(&ChannelStatus::Failed) {
            failed.push("component probe");
        }
        failed
    }
}

fn worse(a: ChannelStatus, b: ChannelStatus) -> ChannelStatus {
    let rank = |s: ChannelStatus| match s {
        ChannelStatus::Valid => 0,
        ChannelStatus::Held => 1,
        ChannelStatus::Failed => 2,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// The §2 control subsystem hardened against lying sensors: every
/// channel passes a plausibility filter before the threshold logic, the
/// redundant component probes are median-voted, and the emergency stop
/// fires [`SHUTDOWN_MARGIN_K`] below the hardware ceiling.
#[derive(Debug, Clone)]
pub(crate) struct HardenedSupervisor {
    /// Thresholds with the protective shutdown margin applied.
    control: ControlSubsystem,
    level: PlausibilityFilter,
    flow: PlausibilityFilter,
    agent: PlausibilityFilter,
    component: [PlausibilityFilter; COMPONENT_PROBES],
    worst_seen: ChannelHealth,
    /// Scans where the component vote ran on fewer than
    /// [`COMPONENT_PROBES`] live probes (but at least one).
    votes_degraded: u64,
    /// Scans where no probe was live and the vote fell back to held
    /// last-good values.
    vote_fallbacks: u64,
}

impl HardenedSupervisor {
    /// Hardens a base control subsystem. The base `component_limit` is
    /// the *hardware* ceiling; the hardened copy trips
    /// [`SHUTDOWN_MARGIN_K`] earlier.
    #[must_use]
    pub(crate) fn new(base: ControlSubsystem) -> Self {
        let mut control = base;
        control.component_limit = Celsius::new(base.component_limit.degrees() - SHUTDOWN_MARGIN_K);
        Self {
            control,
            level: PlausibilityFilter::new(ChannelLimits::coolant_level()),
            flow: PlausibilityFilter::new(ChannelLimits::coolant_flow_lpm()),
            agent: PlausibilityFilter::new(ChannelLimits::agent_temperature_c()),
            component: core::array::from_fn(|_| {
                PlausibilityFilter::new(ChannelLimits::component_temperature_c())
            }),
            worst_seen: ChannelHealth::default(),
            votes_degraded: 0,
            vote_fallbacks: 0,
        }
    }

    /// The worst status each channel reached so far.
    #[must_use]
    pub(crate) fn channel_health(&self) -> ChannelHealth {
        self.worst_seen
    }

    /// Total implausible-but-delivered samples rejected across every
    /// channel so far (range or rate check).
    #[must_use]
    pub(crate) fn plausibility_rejections(&self) -> u64 {
        self.filters().map(PlausibilityFilter::rejected).sum()
    }

    /// Total dropouts (missing samples) across every channel so far.
    #[must_use]
    pub(crate) fn plausibility_dropouts(&self) -> u64 {
        self.filters().map(PlausibilityFilter::dropouts).sum()
    }

    /// Scans where the component-temperature median vote ran on fewer
    /// than [`COMPONENT_PROBES`] live probes (an override of at least
    /// one probe, but a live quorum remained).
    #[must_use]
    pub(crate) fn votes_degraded(&self) -> u64 {
        self.votes_degraded
    }

    /// Scans where no probe was live at all and the vote fell back to
    /// held last-good values.
    #[must_use]
    pub(crate) fn vote_fallbacks(&self) -> u64 {
        self.vote_fallbacks
    }

    fn filters(&self) -> impl Iterator<Item = &PlausibilityFilter> {
        [&self.level, &self.flow, &self.agent]
            .into_iter()
            .chain(self.component.iter())
    }

    /// Filters one raw scan and evaluates the control thresholds on the
    /// plausible values. Returns the filtered readings the logic acted
    /// on, the raised alarms, and the single recommended action (the
    /// worst across alarms).
    pub(crate) fn scan(&mut self, t: Seconds, raw: &RawScan) -> (Readings, Vec<Alarm>, Action) {
        let level = self.level.accept(t, raw.level);
        let flow = self.flow.accept(t, raw.flow_lpm);
        let agent = self.agent.accept(t, raw.agent_c);
        self.worst_seen.level = worse(self.worst_seen.level, level.status);
        self.worst_seen.flow = worse(self.worst_seen.flow, flow.status);
        self.worst_seen.agent = worse(self.worst_seen.agent, agent.status);

        // Redundant probes: vote over the live (Valid) probes; a probe
        // in hold still contributes its last good value only when no
        // probe is live at all.
        let mut live = [None; COMPONENT_PROBES];
        let mut held = [None; COMPONENT_PROBES];
        for (i, filter) in self.component.iter_mut().enumerate() {
            let sample = filter.accept(t, raw.component_c[i]);
            self.worst_seen.component[i] = worse(self.worst_seen.component[i], sample.status);
            match sample.status {
                ChannelStatus::Valid => live[i] = sample.value,
                ChannelStatus::Held => held[i] = sample.value,
                ChannelStatus::Failed => {}
            }
        }
        let live_count = live.iter().flatten().count();
        if live_count == 0 {
            self.vote_fallbacks += 1;
        } else if live_count < COMPONENT_PROBES {
            self.votes_degraded += 1;
        }
        let component_c = median_vote(&live).or_else(|| median_vote(&held));

        // Channels with no plausible history fall back to alarm-neutral
        // values: a silent channel is a maintenance item (reported via
        // channel health), not a thermal excursion.
        let readings = Readings {
            coolant_level: level.value.unwrap_or(1.0),
            coolant_flow: VolumeFlow::liters_per_minute(
                flow.value
                    .unwrap_or_else(|| self.control.min_flow.as_liters_per_minute()),
            ),
            coolant_temperature: Celsius::new(
                agent
                    .value
                    .unwrap_or_else(|| self.control.agent_setpoint.degrees()),
            ),
            component_temperature: Celsius::new(
                component_c.unwrap_or_else(|| self.control.component_setpoint.degrees()),
            ),
        };
        let alarms = self.control.evaluate(&readings);
        let action = control::worst_action(alarms.iter().map(|a| a.action));
        (readings, alarms, action)
    }
}

/// One scripted drill: a design, a fault timeline, and a duration.
#[derive(Debug, Clone)]
pub struct FaultDrill {
    /// Drill name (also the E17 row label).
    pub name: String,
    /// The compute module under test.
    pub module: ComputeModule,
    /// The (healthy) bath; faults degrade clones of it.
    pub bath: ImmersionBath,
    /// Base control thresholds (the hardened supervisor derives its
    /// margined copy; `component_limit` here is the hardware ceiling).
    pub control: ControlSubsystem,
    /// The scripted faults.
    pub timeline: FaultTimeline,
    /// Drill length.
    pub duration: Seconds,
    /// Demanded utilization.
    pub demand_utilization: f64,
}

impl FaultDrill {
    /// A drill over the SKAT design with its default control thresholds.
    #[must_use]
    pub fn skat(name: &str, timeline: FaultTimeline, duration: Seconds) -> Self {
        Self {
            name: name.to_owned(),
            module: rcs_platform::presets::skat(),
            bath: ImmersionBath::skat_default(),
            control: ControlSubsystem::default(),
            timeline,
            duration,
            demand_utilization: 0.90,
        }
    }

    /// A drill over the SKAT+ design with its shifted warning setpoints
    /// (hard limits unchanged).
    #[must_use]
    pub fn skat_plus(name: &str, timeline: FaultTimeline, duration: Seconds) -> Self {
        Self {
            name: name.to_owned(),
            module: rcs_platform::presets::skat_plus(),
            bath: ImmersionBath::skat_plus_default(),
            control: ControlSubsystem::skat_plus(),
            timeline,
            duration,
            demand_utilization: 0.90,
        }
    }

    /// Runs the drill under the hardened supervisor.
    ///
    /// The RNG drives only small per-scan sensor measurement noise, so
    /// two runs with equal-state RNGs are bit-identical — and so is
    /// every telemetry channel, a pure function of the RNG state:
    ///
    /// - counters on `sinks.obs`: `drill.runs`, `drill.steps`,
    ///   `drill.relinearizations`, `drill.solver_failures` (engine
    ///   shape); `drill.alarm_transitions` (silent → alarming scans),
    ///   `drill.throttle_actions`, `drill.shutdowns`,
    ///   `drill.violation_steps` (supervision outcomes);
    ///   `drill.plausibility.rejections` / `.dropouts` and
    ///   `drill.median_vote.degraded` / `.fallbacks` (sensor-defense
    ///   activity); plus the `immersion.*` / `hydraulics.*` counters of
    ///   the baseline solve and every relinearization;
    /// - trace on `sinks.trace`: the true per-scan trajectory in bounded
    ///   channels — `drill.t_chip` / `drill.t_bath` (°C),
    ///   `drill.flow_lpm`, `drill.utilization`, `drill.alarms` and
    ///   `drill.action` (see [`Action::severity_rank`]) — plus the
    ///   `immersion.ladder.*` channels of the baseline solve and every
    ///   relinearization;
    /// - spans on `sinks.spans`: the baseline solve's `immersion.ladder`
    ///   / `rung` spans (callers typically bracket the whole drill in a
    ///   cell span).
    #[must_use]
    pub fn run(&self, rng: &mut Rng, sinks: Sinks<'_>) -> DrillOutcome {
        self.simulate(rng, true, sinks)
    }

    /// [`FaultDrill::run`] on separate sinks. Kept for
    /// `perfbench/src/sinks.rs`, its only caller.
    #[must_use]
    pub fn run_spanned(
        &self,
        rng: &mut Rng,
        obs: &Registry,
        trace: &TraceRecorder,
        spans: &SpanSink,
    ) -> DrillOutcome {
        self.run(rng, Sinks { obs, trace, spans })
    }

    /// Runs the same physics with the supervisor disconnected (no
    /// throttling, no shutdown) — the ground-truth trajectory used to
    /// check that supervised shutdowns land before hardware violations.
    /// Telemetry as for [`FaultDrill::run`].
    #[must_use]
    pub fn run_open_loop(&self, rng: &mut Rng, sinks: Sinks<'_>) -> DrillOutcome {
        self.simulate(rng, false, sinks)
    }

    fn simulate(&self, rng: &mut Rng, supervised: bool, sinks: Sinks<'_>) -> DrillOutcome {
        match DrillSession::new(self, Rng::from_state(rng.state()), supervised, sinks) {
            Ok(mut session) => {
                while session.step(self, sinks) {}
                let (outcome, final_rng) = session.finish(sinks);
                // Hand the advanced stream back so callers chaining
                // drills off one RNG see the exact legacy sequence.
                *rng = final_rng;
                outcome
            }
            // Baseline solve failed before the first draw: the stream
            // is untouched, exactly as before the port.
            Err(outcome) => *outcome,
        }
    }

    /// Solves the degraded steady state and extracts the two-node
    /// transient coefficients around it. A bath with no circulation at
    /// all (every pump seized, suction uncovered, or the circulation
    /// valve stuck fully shut) gets the stagnation model instead of a
    /// coupled solve — stagnation is a physical state, not a solver
    /// failure.
    ///
    /// A coupled solve starts its first rung from `seed` and also returns
    /// the steady state it converged to; the stagnation model returns
    /// none.
    fn linearize(
        &self,
        state: &DegradedState,
        utilization: f64,
        r_chip_baseline: f64,
        chips: f64,
        seed: SteadySeed,
        sinks: Sinks<'_>,
    ) -> Result<(Linearization, Option<SteadySeed>), CoreError> {
        let degraded_bath = state.apply_to(&self.bath);
        let curves = state.pump_curves(&self.bath);

        if curves.is_empty() || state.valve_opening <= 0.0 {
            // no circulation: natural convection at the sinks, residual
            // conduction (plus any fouling) through the exchanger section
            let lin = Linearization {
                flow_lpm: 0.0,
                r_field: STAGNANT_SINK_FACTOR * r_chip_baseline / chips,
                r_hx: STAGNANT_HX_RESISTANCE_K_PER_W + state.fouling_k_per_w,
                supply_c: degraded_bath.chiller.setpoint().degrees(),
                pump_heat_w: 0.0,
            };
            return Ok((lin, None));
        }

        let mut model = ImmersionModel::new(self.module.clone(), degraded_bath.clone())
            .with_operating_point(OperatingPoint::at_utilization(
                utilization.max(UTILIZATION_FLOOR),
            ))
            .with_pump_curves(curves)
            .with_seed(seed);
        if state.valve_opening < 1.0 {
            model = model.with_circulation_valve(state.valve_opening);
        }
        let steady = model.solve_with_ladder(&ImmersionModel::LADDER, sinks)?;
        let (_, r_sink, r_hx) = model.lumped_plant(&steady);
        let pump = pump_heat(&degraded_bath, steady.circulation_power);
        let supply = degraded_bath
            .chiller
            .supply_temperature(steady.total_heat + pump);

        let lin = Linearization {
            flow_lpm: steady.coolant_flow.as_liters_per_minute(),
            r_field: r_sink.kelvin_per_watt() / chips,
            r_hx: r_hx.kelvin_per_watt(),
            supply_c: supply.degrees(),
            pump_heat_w: pump.watts(),
        };
        Ok((lin, Some(SteadySeed::from(&steady))))
    }
}

/// A resumable fault drill: the scan/supervise/integrate loop hoisted
/// onto the `rcs-kernel` stepping kernel.
///
/// The session owns everything the drill loop mutates — the plant
/// state, the hardened supervisor (filter histories included), the
/// cached linearization, the RNG stream and the kernel [`Clock`] —
/// while the [`FaultDrill`] script is passed into every call as the
/// immutable environment. [`DrillSession::checkpoint`] seals the whole
/// mutable state plus the observability sinks;
/// [`DrillSession::resume`] reconstructs a session that finishes
/// **bitwise** identically — verdicts, traces, golden counters and
/// every remaining RNG draw — to one that was never interrupted.
#[derive(Debug, Clone)]
pub struct DrillSession {
    clock: Clock,
    rng: Rng,
    supervised: bool,
    powered: bool,
    alarming: bool,
    t_chip: f64,
    t_bath: f64,
    utilization: f64,
    /// Derived once from the baseline solve; serialized so resume never
    /// re-runs (or re-records) the baseline.
    chips: f64,
    c_chip: f64,
    r_chip_baseline: f64,
    lin: Option<Linearization>,
    lin_key: Option<LinKey>,
    /// Where the next loaded relinearization starts.
    seeds: SeedPath,
    supervisor: HardenedSupervisor,
    outcome: DrillOutcome,
}

impl DrillSession {
    /// Solves the healthy baseline (recording its telemetry — spans of
    /// the baseline ladder included — into the caller's sinks, exactly
    /// as the uninterrupted drill does) and prepares the scan loop.
    ///
    /// # Errors
    ///
    /// If the baseline steady solve fails, returns the drill outcome
    /// carrying the structured solver failure — the legacy early-exit
    /// path, with no scans run and no end-of-run counters recorded.
    #[allow(clippy::result_large_err)]
    pub fn new(
        drill: &FaultDrill,
        rng: Rng,
        supervised: bool,
        sinks: Sinks<'_>,
    ) -> Result<Self, Box<DrillOutcome>> {
        let Sinks { obs, trace, .. } = sinks;
        use rcs_obs::trace::ChannelKind;
        obs.inc("drill.runs");
        // Open the per-scan channels before the baseline solve so the
        // trace layout matches the legacy loop exactly.
        let _ = trace.channel("drill.t_chip", ChannelKind::Temperature);
        let _ = trace.channel("drill.t_bath", ChannelKind::Temperature);
        let _ = trace.channel("drill.flow_lpm", ChannelKind::Flow);
        let _ = trace.channel("drill.utilization", ChannelKind::Scalar);
        let _ = trace.channel("drill.alarms", ChannelKind::Alarm);
        let _ = trace.channel("drill.action", ChannelKind::Action);
        let mut outcome = DrillOutcome {
            name: drill.name.clone(),
            design: drill.module.name().to_owned(),
            supervised,
            time_to_alarm: None,
            time_to_shutdown: None,
            shut_down: false,
            peak_junction: Celsius::new(f64::NEG_INFINITY),
            peak_agent: Celsius::new(f64::NEG_INFINITY),
            violation_steps: 0,
            min_utilization: drill.demand_utilization,
            channel_health: ChannelHealth::default(),
            solver_failure: None,
            steps: 0,
        };

        // Healthy baseline: initial temperatures and the stagnant-mode
        // reference resistance.
        let model = ImmersionModel::new(drill.module.clone(), drill.bath.clone())
            .with_operating_point(OperatingPoint::at_utilization(drill.demand_utilization));
        let baseline = match model.solve_with_ladder(&ImmersionModel::LADDER, sinks) {
            Ok(r) => r,
            Err(e) => {
                obs.inc("drill.solver_failures");
                outcome.solver_failure = Some(e.to_string());
                return Err(Box::new(outcome));
            }
        };
        #[allow(clippy::cast_precision_loss)]
        let chips = drill.module.compute_fpga_count() as f64;
        let c_chip = CHIP_FIELD_CAPACITANCE_PER_CHIP * chips;
        let (_, r_sink, _) = model.lumped_plant(&baseline);
        let r_chip_baseline = r_sink.kelvin_per_watt();

        Ok(Self {
            clock: Clock::fixed_clamped(SCAN_DT.seconds(), drill.duration.seconds()),
            rng,
            supervised,
            powered: true,
            alarming: false,
            t_chip: baseline.junction.degrees(),
            t_bath: baseline.coolant_hot.degrees(),
            utilization: drill.demand_utilization,
            chips,
            c_chip,
            r_chip_baseline,
            lin: None,
            lin_key: None,
            seeds: SeedPath::new(SteadySeed::from(&baseline)),
            supervisor: HardenedSupervisor::new(drill.control),
            outcome,
        })
    }

    /// Runs one sensor scan + integration step. Returns `false` once
    /// the drill horizon is reached or a mid-run solver failure ended
    /// the drill early (the call is then a no-op). Relinearizations
    /// record counters and trace samples but no spans.
    pub(crate) fn step(&mut self, drill: &FaultDrill, sinks: Sinks<'_>) -> bool {
        use rcs_obs::trace::ChannelKind;
        let Sinks { obs, trace, .. } = sinks;
        let Some(tick) = self.clock.tick() else {
            return false;
        };
        let ch_chip = trace.channel("drill.t_chip", ChannelKind::Temperature);
        let ch_bath = trace.channel("drill.t_bath", ChannelKind::Temperature);
        let ch_flow = trace.channel("drill.flow_lpm", ChannelKind::Flow);
        let ch_util = trace.channel("drill.utilization", ChannelKind::Scalar);
        let ch_alarms = trace.channel("drill.alarms", ChannelKind::Alarm);
        let ch_action = trace.channel("drill.action", ChannelKind::Action);
        let hardware_limit = drill.control.component_limit;

        #[allow(clippy::cast_possible_truncation)]
        let step = tick.index as usize;
        let t = Seconds::new(tick.t);
        let state = drill.timeline.state_at(t);

        // Relinearize the plant around the degraded steady state
        // whenever the degraded physics (or the allowed load)
        // changed since the last linearization.
        if step.is_multiple_of(RELINEARIZE_EVERY) || self.lin.is_none() {
            let key = LinKey::of(&state, self.utilization, self.powered);
            if self.lin_key.as_ref() != Some(&key) {
                obs.inc("drill.relinearizations");
                match drill.linearize(
                    &state,
                    self.utilization,
                    self.r_chip_baseline,
                    self.chips,
                    self.seeds.start(&key.regime, tick.t),
                    Sinks {
                        spans: SpanSink::disabled(),
                        ..sinks
                    },
                ) {
                    Ok((l, solved)) => {
                        if let Some(solved) = solved {
                            self.seeds.record(tick.t, solved);
                        }
                        self.lin = Some(l);
                        self.lin_key = Some(key);
                    }
                    Err(e) => {
                        obs.inc("drill.solver_failures");
                        self.outcome.solver_failure = Some(e.to_string());
                        self.clock.finish();
                        return false;
                    }
                }
            }
        }
        let lin = self.lin.as_ref().expect("linearized above");

        // --- sensor scan on the *current* true state -------------
        let noise_level = self.rng.gen_range(-0.002..0.002);
        let noise_flow = self.rng.gen_range(-0.5..0.5);
        let noise_agent = self.rng.gen_range(-0.02..0.02);
        let noise_component: [f64; COMPONENT_PROBES] =
            core::array::from_fn(|_| self.rng.gen_range(-0.05..0.05));
        let raw = RawScan {
            level: state.sensed(
                SensorChannel::CoolantLevel,
                state.coolant_level + noise_level,
                t,
            ),
            flow_lpm: state.sensed(SensorChannel::CoolantFlow, lin.flow_lpm + noise_flow, t),
            agent_c: state.sensed(
                SensorChannel::AgentTemperature,
                self.t_bath + noise_agent,
                t,
            ),
            component_c: core::array::from_fn(|i| {
                state.sensed(
                    SensorChannel::ComponentTemperature(i),
                    self.t_chip + noise_component[i],
                    t,
                )
            }),
        };

        if self.supervised && self.powered {
            let (_readings, alarms, action) = self.supervisor.scan(t, &raw);
            #[allow(clippy::cast_precision_loss)]
            {
                trace.record(ch_alarms, t.seconds(), alarms.len() as f64);
                trace.record(ch_action, t.seconds(), f64::from(action.severity_rank()));
            }
            if !alarms.is_empty() && self.outcome.time_to_alarm.is_none() {
                self.outcome.time_to_alarm = Some(t);
            }
            if !alarms.is_empty() && !self.alarming {
                obs.inc("drill.alarm_transitions");
            }
            self.alarming = !alarms.is_empty();
            match action {
                Action::EmergencyShutdown => {
                    self.powered = false;
                    self.outcome.shut_down = true;
                    self.outcome.time_to_shutdown = Some(t);
                    obs.inc("drill.shutdowns");
                }
                Action::ThrottleLoad => {
                    self.utilization = (self.utilization - THROTTLE_STEP).max(UTILIZATION_FLOOR);
                    obs.inc("drill.throttle_actions");
                }
                Action::None => {
                    self.utilization =
                        (self.utilization + THROTTLE_STEP).min(drill.demand_utilization);
                }
                Action::ScheduleCoolantTopUp | Action::SwitchToStandbyPump => {}
            }
            self.outcome.min_utilization = self.outcome.min_utilization.min(self.utilization);
        }

        // --- integrate one scan interval -------------------------
        let (p_field, p_other) = if self.powered {
            let op = OperatingPoint::at_utilization(self.utilization);
            let fpga = drill
                .module
                .fpga_heat(op, Celsius::new(self.t_chip))
                .watts();
            let total = drill
                .module
                .total_heat(op, Celsius::new(self.t_chip))
                .watts();
            (fpga, total - fpga + lin.pump_heat_w)
        } else {
            (0.0, lin.pump_heat_w)
        };
        let oil = drill.bath.coolant.state(Celsius::new(self.t_bath));
        let c_bath = BATH_VOLUME_M3
            * state.coolant_level.max(0.05)
            * oil.density.kg_per_cubic_meter()
            * oil.specific_heat.joules_per_kg_kelvin();
        let q_field = (self.t_chip - self.t_bath) / lin.r_field;
        let q_hx = (self.t_bath - lin.supply_c) / lin.r_hx;
        // The last step of a non-multiple duration is clamped by the
        // kernel grid so the drill never integrates past the requested
        // end time (exact multiples leave every step at the full
        // SCAN_DT, bit-for-bit).
        let dt = tick.dt;
        self.t_chip += dt * (p_field - q_field) / self.c_chip;
        self.t_bath += dt * (p_other + q_field - q_hx) / c_bath;

        self.outcome.peak_junction = self.outcome.peak_junction.max(Celsius::new(self.t_chip));
        self.outcome.peak_agent = self.outcome.peak_agent.max(Celsius::new(self.t_bath));
        if self.t_chip > hardware_limit.degrees() {
            self.outcome.violation_steps += 1;
        }
        trace.record(ch_chip, t.seconds(), self.t_chip);
        trace.record(ch_bath, t.seconds(), self.t_bath);
        trace.record(ch_flow, t.seconds(), lin.flow_lpm);
        trace.record(ch_util, t.seconds(), self.utilization);
        self.outcome.steps = step + 1;
        true
    }

    /// Advances at most `max_steps` scans; returns how many ran.
    pub fn run(&mut self, drill: &FaultDrill, sinks: Sinks<'_>, max_steps: u64) -> u64 {
        let mut taken = 0;
        while taken < max_steps && self.step(drill, sinks) {
            taken += 1;
        }
        taken
    }

    /// Records the end-of-run counters into `sinks.obs` and yields the
    /// outcome plus the advanced RNG stream.
    #[must_use]
    pub fn finish(mut self, sinks: Sinks<'_>) -> (DrillOutcome, Rng) {
        let obs = sinks.obs;
        self.outcome.channel_health = self.supervisor.channel_health();
        obs.add("drill.steps", self.outcome.steps as u64);
        obs.add("drill.violation_steps", self.outcome.violation_steps as u64);
        obs.add(
            "drill.plausibility.rejections",
            self.supervisor.plausibility_rejections(),
        );
        obs.add(
            "drill.plausibility.dropouts",
            self.supervisor.plausibility_dropouts(),
        );
        obs.add(
            "drill.median_vote.degraded",
            self.supervisor.votes_degraded(),
        );
        obs.add(
            "drill.median_vote.fallbacks",
            self.supervisor.vote_fallbacks(),
        );
        obs.work("drill.scans", self.outcome.steps as u64);
        (self.outcome, self.rng)
    }

    /// Seals the full drill state — clock, plant state, supervisor
    /// filter histories, cached linearization, relinearization seed and
    /// its history, RNG stream position, partial outcome — plus the
    /// contents of `sinks` (the span sink's open stack included, so a
    /// span bracketing this drill survives the checkpoint) into versioned
    /// snapshot bytes.
    #[must_use]
    pub fn checkpoint(&self, sinks: Sinks<'_>) -> Vec<u8> {
        let mut session = self.clone();
        rcs_kernel::seal_session(DRILL_SNAPSHOT_KIND, sinks, |c| session.layout(c))
    }

    /// Reconstructs a session from [`DrillSession::checkpoint`] bytes,
    /// restoring the captured telemetry into the (fresh) `sinks`. The
    /// resumed session finishes bitwise identically to the
    /// uninterrupted one — including every remaining RNG draw.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on corrupted or truncated bytes, a snapshot
    /// of a different kind, or a state the scan loop cannot continue
    /// from. The `drill` must be the same script the checkpoint was
    /// taken from; the snapshot stores only the mutable state, not the
    /// script.
    pub fn resume(
        drill: &FaultDrill,
        bytes: &[u8],
        sinks: Sinks<'_>,
    ) -> Result<Self, SnapshotError> {
        let mut session = Self {
            clock: Clock::counted(0),
            rng: Rng::seed_from_u64(0),
            supervised: false,
            powered: false,
            alarming: false,
            t_chip: 0.0,
            t_bath: 0.0,
            utilization: 0.0,
            chips: 0.0,
            c_chip: 0.0,
            r_chip_baseline: 0.0,
            lin: None,
            lin_key: None,
            seeds: SeedPath::new(SteadySeed::default()),
            supervisor: HardenedSupervisor::new(drill.control),
            outcome: DrillOutcome {
                name: drill.name.clone(),
                design: drill.module.name().to_owned(),
                ..DrillOutcome::default()
            },
        };
        rcs_kernel::open_session(DRILL_SNAPSHOT_KIND, bytes, sinks, |c| session.layout(c))?;
        session.outcome.supervised = session.supervised;
        Ok(session)
    }

    /// The one wire layout of a drill — clock, RNG stream, plant state,
    /// cached linearization and its key, relinearization seeds, the
    /// supervisor's worst-seen statuses, vote tallies and filter states,
    /// then the partial outcome — run by both checkpoint and resume.
    ///
    /// Decoding rejects what the scan loop cannot continue from: an RNG
    /// state that is not four words or is all zero, a utilization that
    /// is not in `[0, 1]` (the operating point refuses it), and a
    /// linearization without its cache key or a key without its
    /// linearization (an unchanged key would skip the relinearization
    /// the missing plant needs).
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        self.clock.layout(c)?;
        let mut words = self.rng.state().to_vec();
        c.vec(&mut words, Codec::u64)?;
        c.ensure(words.len() == 4 && words.iter().any(|&w| w != 0), || {
            format!("rng state must be four words, not all zero: {words:?}")
        })?;
        self.rng = Rng::from_state(core::array::from_fn(|i| words[i]));
        c.bool(&mut self.supervised)?;
        c.bool(&mut self.powered)?;
        c.bool(&mut self.alarming)?;
        c.f64(&mut self.t_chip)?;
        c.f64(&mut self.t_bath)?;
        c.f64(&mut self.utilization)?;
        let utilization = self.utilization;
        c.ensure((0.0..=1.0).contains(&utilization), || {
            format!("utilization {utilization} is not in [0, 1]")
        })?;
        c.f64(&mut self.chips)?;
        c.f64(&mut self.c_chip)?;
        c.f64(&mut self.r_chip_baseline)?;
        c.option(&mut self.lin, |c, l| {
            c.f64(&mut l.flow_lpm)?;
            c.f64(&mut l.r_field)?;
            c.f64(&mut l.r_hx)?;
            c.f64(&mut l.supply_c)?;
            c.f64(&mut l.pump_heat_w)
        })?;
        c.option(&mut self.lin_key, |c, k| {
            k.regime.layout(c)?;
            c.f64(&mut k.head_factor)?;
            c.f64(&mut k.air_factor)?;
            c.f64(&mut k.fouling)?;
            c.f64(&mut k.offset_k)?;
            c.f64(&mut k.capacity)
        })?;
        c.ensure(self.lin.is_some() == self.lin_key.is_some(), || {
            "linearization and its cache key are not both present or both absent".to_owned()
        })?;
        self.seeds.layout(c)?;
        let sup = &mut self.supervisor;
        let h = &mut sup.worst_seen;
        let statuses = [&mut h.level, &mut h.flow, &mut h.agent];
        for status in statuses.into_iter().chain(&mut h.component) {
            let mut tag = STATUSES
                .iter()
                .position(|s| s == status)
                .map_or(0, |i| i as u8);
            c.tag(&mut tag, 3, "channel status")?;
            *status = STATUSES[usize::from(tag)];
        }
        c.u64(&mut sup.votes_degraded)?;
        c.u64(&mut sup.vote_fallbacks)?;
        let filters = [&mut sup.level, &mut sup.flow, &mut sup.agent];
        for filter in filters.into_iter().chain(&mut sup.component) {
            filter_layout(c, filter)?;
        }
        let o = &mut self.outcome;
        for t in [&mut o.time_to_alarm, &mut o.time_to_shutdown] {
            c.option(t, |c, t| c.f64_as(t, Seconds::seconds, Seconds::new))?;
        }
        c.bool(&mut o.shut_down)?;
        c.f64_as(&mut o.peak_junction, Celsius::degrees, Celsius::new)?;
        c.f64_as(&mut o.peak_agent, Celsius::degrees, Celsius::new)?;
        c.usize(&mut o.violation_steps)?;
        c.f64(&mut o.min_utilization)?;
        c.option(&mut o.solver_failure, Codec::str)?;
        c.usize(&mut o.steps)
    }
}

/// Channel statuses in the order of their snapshot tags.
const STATUSES: [ChannelStatus; 3] = [
    ChannelStatus::Valid,
    ChannelStatus::Held,
    ChannelStatus::Failed,
];

/// A plausibility filter's history: last good sample, last scan, hold
/// start, then the rejection and dropout tallies.
fn filter_layout(c: &mut Codec<'_>, filter: &mut PlausibilityFilter) -> Result<(), SnapshotError> {
    let mut state = filter.state();
    c.option(&mut state.last_good, |c, (t, v)| {
        c.f64(t)?;
        c.f64(v)
    })?;
    c.option(&mut state.last_scan, Codec::f64)?;
    c.option(&mut state.held_since, Codec::f64)?;
    c.u64(&mut state.rejected)?;
    c.u64(&mut state.dropouts)?;
    filter.restore_state(&state);
    Ok(())
}

/// Two-node transient coefficients extracted from a degraded steady
/// solve (all raw f64, K/W and °C, for the inner Euler loop).
#[derive(Debug, Clone, Default)]
struct Linearization {
    flow_lpm: f64,
    r_field: f64,
    r_hx: f64,
    supply_c: f64,
    pump_heat_w: f64,
}

/// Cache key deciding whether the plant must be relinearized: the
/// physics-affecting slice of the degraded state plus the allowed load.
#[derive(Debug, Clone, PartialEq, Default)]
struct LinKey {
    regime: Regime,
    head_factor: f64,
    air_factor: f64,
    fouling: f64,
    offset_k: f64,
    capacity: f64,
}

impl LinKey {
    fn of(state: &DegradedState, utilization: f64, powered: bool) -> Self {
        Self {
            regime: Regime {
                seized: state.seized_pumps.clone(),
                valve: state.valve_opening,
                utilization,
                powered,
            },
            head_factor: state.pump_head_factor,
            air_factor: state.air_entrainment_factor(),
            fouling: state.fouling_k_per_w,
            offset_k: state.chiller_setpoint_offset.kelvins(),
            capacity: state.chiller_capacity_factor,
        }
    }
}

/// The discrete part of a [`LinKey`]: what steps rather than drifts. The
/// gradual faults move the rest of the key linearly in time, so steady
/// states solved in one regime lie on a smooth path.
#[derive(Debug, Clone, PartialEq, Default)]
struct Regime {
    seized: Vec<usize>,
    valve: f64,
    utilization: f64,
    powered: bool,
}

impl Regime {
    /// The wire layout of a regime: seized pumps, valve opening,
    /// utilization, `powered`.
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        c.vec(&mut self.seized, Codec::usize)?;
        c.f64(&mut self.valve)?;
        c.f64(&mut self.utilization)?;
        c.bool(&mut self.powered)
    }
}

/// Where the next loaded relinearization starts: the last converged
/// coupled steady state, plus the loaded states solved before it in the
/// current [`Regime`] with their scan times, so that rung 0 starts from
/// an extrapolation along the fault path rather than from the last point.
#[derive(Debug, Clone)]
struct SeedPath {
    /// The last converged coupled steady state (the baseline's until the
    /// first loaded relinearization).
    seed: SteadySeed,
    /// Up to two loaded states solved in `regime` before `seed`, oldest
    /// first.
    earlier: Vec<SteadySeed>,
    /// Scan times of `earlier` and then of `seed`: empty until `seed` is
    /// a solve of `regime`, and one longer than `earlier` after that.
    times: Vec<f64>,
    /// The regime `times` belongs to; `None` before the first loaded
    /// relinearization.
    regime: Option<Regime>,
}

impl SeedPath {
    /// Points kept per regime: three make the extrapolation quadratic.
    const POINTS: usize = 3;

    fn new(seed: SteadySeed) -> Self {
        Self {
            seed,
            earlier: Vec::new(),
            times: Vec::new(),
            regime: None,
        }
    }

    /// Where a relinearization in `regime` at scan time `t` starts. A
    /// change of regime clears the history (but keeps the seed): a
    /// throttle step or a pump seizure moves the steady state by a step
    /// that no extrapolation of the old regime predicts.
    fn start(&mut self, regime: &Regime, t: f64) -> SteadySeed {
        if self.regime.as_ref() != Some(regime) {
            self.earlier.clear();
            self.times.clear();
            self.regime = Some(regime.clone());
        }
        self.predict(t)
    }

    /// The Lagrange extrapolation of the history to `t`: quadratic
    /// through three points, linear through two, the plain seed with one
    /// or none. A prediction that is non-finite or has no forward flow
    /// falls back one order, dropping the oldest point.
    fn predict(&self, t: f64) -> SteadySeed {
        let points: Vec<SteadySeed> = self
            .earlier
            .iter()
            .copied()
            .chain(core::iter::once(self.seed))
            .collect();
        for used in (2..=self.times.len()).rev() {
            let times = &self.times[self.times.len() - used..];
            let seeds = &points[points.len() - used..];
            let guess = extrapolate(times, seeds, t);
            if guess.is_finite() && guess.flow.cubic_meters_per_second() > 0.0 {
                return guess;
            }
        }
        self.seed
    }

    /// Takes `solved`, converged at scan time `t` in the regime of the
    /// last [`SeedPath::start`], as the new seed.
    fn record(&mut self, t: f64, solved: SteadySeed) {
        if !self.times.is_empty() {
            self.earlier.push(self.seed);
            if self.earlier.len() == Self::POINTS {
                self.earlier.remove(0);
            }
        }
        self.times.push(t);
        if self.times.len() > Self::POINTS {
            self.times.remove(0);
        }
        self.seed = solved;
    }

    /// The wire layout of a path: seed, earlier seeds, scan times, then
    /// the regime. Decoding checks only the counts: coincident times give
    /// a non-finite prediction, which falls back to a lower order, a
    /// non-finite seed is ignored by the solver, and any finite start
    /// (from unordered times too) only moves where rung 0 begins.
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        seed_layout(c, &mut self.seed)?;
        c.vec(&mut self.earlier, seed_layout)?;
        c.vec(&mut self.times, Codec::f64)?;
        let (earlier, times) = (self.earlier.len(), self.times.len());
        c.ensure(
            earlier < Self::POINTS && (times == earlier + 1 || times + earlier == 0),
            || format!("seed history has {times} scan times for {earlier} earlier states"),
        )?;
        c.option(&mut self.regime, |c, regime| regime.layout(c))
    }
}

/// The Lagrange polynomial through `(times[i], seeds[i])`, evaluated at
/// `t`, component by component.
fn extrapolate(times: &[f64], seeds: &[SteadySeed], t: f64) -> SteadySeed {
    let mut sum = [0.0; 4];
    for (w, seed) in lagrange_weights(times, t).into_iter().zip(seeds) {
        let x = [
            seed.junction.degrees(),
            seed.coolant_hot.degrees(),
            seed.coolant_cold.degrees(),
            seed.flow.cubic_meters_per_second(),
        ];
        for (s, x) in sum.iter_mut().zip(x) {
            *s += w * x;
        }
    }
    SteadySeed {
        junction: Celsius::new(sum[0]),
        coolant_hot: Celsius::new(sum[1]),
        coolant_cold: Celsius::new(sum[2]),
        flow: VolumeFlow::from_cubic_meters_per_second(sum[3]),
    }
}

/// The weights that carry values at `times` to `t` along their Lagrange
/// polynomial: `∏ (t − tⱼ) / (tᵢ − tⱼ)` over `j ≠ i`. Equal spacing gives
/// (−1, 2) for two points and (1, −3, 3) for three; coincident times give
/// non-finite weights.
fn lagrange_weights(times: &[f64], t: f64) -> Vec<f64> {
    times
        .iter()
        .enumerate()
        .map(|(i, ti)| {
            times
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, tj)| (t - tj) / (ti - tj))
                .product()
        })
        .collect()
}

/// A steady seed as four `f64`: junction, hot oil, cold oil, bath flow.
fn seed_layout(c: &mut Codec<'_>, seed: &mut SteadySeed) -> Result<(), SnapshotError> {
    c.f64_as(&mut seed.junction, Celsius::degrees, Celsius::new)?;
    c.f64_as(&mut seed.coolant_hot, Celsius::degrees, Celsius::new)?;
    c.f64_as(&mut seed.coolant_cold, Celsius::degrees, Celsius::new)?;
    c.f64_as(
        &mut seed.flow,
        VolumeFlow::cubic_meters_per_second,
        VolumeFlow::from_cubic_meters_per_second,
    )
}

/// What a drill produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrillOutcome {
    /// Drill name.
    pub name: String,
    /// Module/design name.
    pub design: String,
    /// `false` for the open-loop ground-truth run.
    pub supervised: bool,
    /// First scan at which any alarm was raised.
    pub time_to_alarm: Option<Seconds>,
    /// Scan at which the supervisor tripped the emergency stop.
    pub time_to_shutdown: Option<Seconds>,
    /// `true` if the supervisor shut the module down.
    pub shut_down: bool,
    /// Highest true junction temperature over the drill.
    pub peak_junction: Celsius,
    /// Highest true agent temperature over the drill.
    pub peak_agent: Celsius,
    /// Scans on which the true junction exceeded the hardware ceiling.
    pub violation_steps: usize,
    /// Lowest utilization the supervisor allowed.
    pub min_utilization: f64,
    /// Worst status each sensor channel reached.
    pub channel_health: ChannelHealth,
    /// Structured message if any solver rung ladder was exhausted
    /// (`None` for every physical drill).
    pub solver_failure: Option<String>,
    /// Scans executed.
    pub steps: usize,
}

impl DrillOutcome {
    /// `true` if the drill finished with zero hardware-limit violations
    /// and no solver failure.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violation_steps == 0 && self.solver_failure.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_cooling::faults::{FaultKind, SensorFault};

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    fn nominal_drill() -> FaultDrill {
        FaultDrill::skat("nominal", FaultTimeline::new(), Seconds::minutes(10.0))
    }

    #[test]
    fn nominal_drill_raises_nothing() {
        let outcome = nominal_drill().run(&mut rng(), Sinks::disabled());
        assert!(outcome.time_to_alarm.is_none(), "{outcome:?}");
        assert!(!outcome.shut_down);
        assert!(outcome.clean());
        assert_eq!(outcome.channel_health, ChannelHealth::default());
        assert!((outcome.min_utilization - 0.90).abs() < 1e-12);
    }

    #[test]
    fn the_fouling_stall_is_a_structured_solver_failure() {
        // A known stall of the coupled fixed point: SKAT+ with exchanger
        // fouling at 0.0057 K/W/h, a valve stuck at 34 % and a stuck
        // flow sensor. The supervisor shuts the module down at 432 s;
        // some 150 s later, as the fouling keeps growing, no rung of the
        // relinearization's robust ladder settles. Anderson acceleration
        // does not remove the stall either. The drill must stop there
        // and say so: no panic and no silent answer.
        let timeline = FaultTimeline::new()
            .with_event(
                Seconds::new(196.013_466_120_277_46),
                FaultKind::SensorFault {
                    channel: SensorChannel::CoolantFlow,
                    fault: SensorFault::StuckAt(40.0),
                },
            )
            .with_event(
                Seconds::new(15.085_226_833_390_507),
                FaultKind::ValveStuckPartial {
                    opening: 0.343_715_225_292_238_2,
                },
            )
            .with_event(
                Seconds::new(29.331_788_199_309_795),
                FaultKind::ExchangerFouling {
                    rate_k_per_w_per_hour: 0.005_683_113_300_987_479,
                },
            );
        let drill = FaultDrill::skat_plus("fouling stall", timeline, Seconds::minutes(20.0));
        let mut noise = Rng::from_state([
            4_459_883_985_227_805_811,
            13_810_241_932_670_568_633,
            5_929_899_252_078_136_610,
            7_852_303_822_236_916_059,
        ]);
        let obs = Registry::new();
        let outcome = drill.run(&mut noise, Sinks::counters(&obs));
        let failure = outcome.solver_failure.as_deref().expect("the drill stalls");
        assert!(failure.contains("did not converge"), "{failure}");
        assert!(!outcome.clean());
        assert_eq!(outcome.time_to_shutdown, Some(Seconds::new(432.0)));
        assert!(outcome.steps < 1200, "the drill stops at the stall");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("drill.solver_failures"), 1);
        assert!(snap.counter("immersion.ladder.no_convergence") >= 1);
    }

    #[test]
    fn nominal_skat_plus_drill_raises_nothing() {
        let drill = FaultDrill::skat_plus("nominal", FaultTimeline::new(), Seconds::minutes(10.0));
        let outcome = drill.run(&mut rng(), Sinks::disabled());
        assert!(outcome.time_to_alarm.is_none(), "{outcome:?}");
        assert!(!outcome.shut_down);
        assert!(outcome.clean());
    }

    #[test]
    fn pump_seizure_shuts_down_before_the_hardware_limit() {
        let timeline = FaultTimeline::new()
            .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
        let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(20.0));

        let open = drill.run_open_loop(&mut rng(), Sinks::disabled());
        assert!(
            open.violation_steps > 0,
            "ground truth must cross the ceiling: {open:?}"
        );

        let supervised = drill.run(&mut rng(), Sinks::disabled());
        assert!(supervised.shut_down);
        assert_eq!(supervised.violation_steps, 0, "{supervised:?}");
        assert!(supervised.peak_junction.degrees() < 67.5);
        assert!(supervised.time_to_shutdown.unwrap() < open_first_violation(&drill));
    }

    fn open_first_violation(drill: &FaultDrill) -> Seconds {
        // re-run open loop and find the first violation time by peak
        // accounting: violations accumulate per scan, so the first
        // violating scan index is steps - violation_steps
        let open = drill.run_open_loop(&mut rng(), Sinks::disabled());
        Seconds::new((open.steps - open.violation_steps) as f64 * SCAN_DT.seconds())
    }

    #[test]
    fn fractional_duration_clamps_the_final_step() {
        // A chiller drifting hot keeps temperatures rising to the end of
        // the horizon, so the very last integration step is visible in
        // the peak. A 301 s drill used to take ceil(301/2) = 151 *full*
        // 2 s steps — bit-identical to a 302 s drill, simulating one
        // second past the requested end; now the final step integrates
        // only the remaining 1 s.
        let timeline = || {
            FaultTimeline::new().with_event(
                Seconds::minutes(1.0),
                FaultKind::ChillerSetpointDrift {
                    rate_k_per_hour: 45.0,
                },
            )
        };
        let frac = FaultDrill::skat("drift 301 s", timeline(), Seconds::new(301.0))
            .run_open_loop(&mut rng(), Sinks::disabled());
        let full = FaultDrill::skat("drift 302 s", timeline(), Seconds::new(302.0))
            .run_open_loop(&mut rng(), Sinks::disabled());

        // same scan count (the scan grid is unchanged)…
        assert_eq!(frac.steps, 151);
        assert_eq!(full.steps, 151);
        // …but the clamped run must stop short of the full run's peak
        assert!(
            frac.peak_junction < full.peak_junction,
            "301 s drill simulated past its end: frac {:?} vs full {:?}",
            frac.peak_junction,
            full.peak_junction
        );
        // exact multiples keep every step at the full SCAN_DT: the
        // clamped 302 s run retraces the old fixed-step trajectory, so
        // no committed golden (all exact-multiple horizons) moves
        let refull = FaultDrill::skat("drift 302 s", timeline(), Seconds::new(302.0))
            .run_open_loop(&mut rng(), Sinks::disabled());
        assert_eq!(full, refull);
    }

    #[test]
    fn lying_sensors_on_a_healthy_plant_stay_silent() {
        let timeline = FaultTimeline::new()
            .with_event(
                Seconds::minutes(3.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::AgentTemperature,
                    fault: SensorFault::StuckAt(45.0), // would trip the 40 °C limit
                },
            )
            .with_event(
                Seconds::minutes(4.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::ComponentTemperature(1),
                    fault: SensorFault::Drift { rate_per_s: 0.2 },
                },
            )
            .with_event(
                Seconds::minutes(5.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::CoolantFlow,
                    fault: SensorFault::Dropout,
                },
            );
        let drill = FaultDrill::skat("sensor storm", timeline, Seconds::minutes(12.0));
        let outcome = drill.run(&mut rng(), Sinks::disabled());
        assert!(outcome.time_to_alarm.is_none(), "{outcome:?}");
        assert!(!outcome.shut_down);
        // but the broken channels are reported for maintenance
        assert_ne!(outcome.channel_health, ChannelHealth::default());
        assert!(!outcome.channel_health.failed_channels().is_empty());
    }

    #[test]
    fn skat_plus_rides_through_a_single_pump_seizure() {
        let timeline = FaultTimeline::new()
            .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
        let drill = FaultDrill::skat_plus("single seizure", timeline, Seconds::minutes(15.0));
        let outcome = drill.run(&mut rng(), Sinks::disabled());
        assert!(!outcome.shut_down, "{outcome:?}");
        assert!(outcome.clean());
    }

    #[test]
    fn a_fully_shut_circulation_valve_stagnates_the_bath_without_a_panic() {
        use rcs_obs::trace::TraceRecorder;

        for opening in [0.0, -0.5] {
            let timeline = FaultTimeline::new().with_event(
                Seconds::minutes(2.0),
                FaultKind::ValveStuckPartial { opening },
            );
            let drill = FaultDrill::skat("shut valve", timeline, Seconds::minutes(10.0));
            let trace = TraceRecorder::new();
            let sinks = Sinks {
                trace: &trace,
                ..Sinks::disabled()
            };
            let outcome = drill.run(&mut rng(), sinks);
            assert!(outcome.solver_failure.is_none(), "{outcome:?}");
            let snap = trace.snapshot();
            let flow = &snap
                .channel("drill.flow_lpm")
                .expect("flow is traced")
                .samples;
            assert!(flow.iter().any(|s| s.t < 120.0 && s.value > 0.0));
            let after: Vec<f64> = flow
                .iter()
                .filter(|s| s.t > 120.0)
                .map(|s| s.value)
                .collect();
            assert!(
                !after.is_empty() && after.iter().all(|&q| q == 0.0),
                "{after:?}"
            );
        }
    }

    #[test]
    fn coolant_leak_trips_the_level_ladder() {
        let timeline = FaultTimeline::new().with_event(
            Seconds::minutes(1.0),
            FaultKind::CoolantLeak {
                level_per_hour: 1.2,
            },
        );
        let drill = FaultDrill::skat("leak", timeline, Seconds::minutes(20.0));
        let outcome = drill.run(&mut rng(), Sinks::disabled());
        // warning (top-up) first, shutdown at the critical level
        assert!(outcome.time_to_alarm.is_some());
        assert!(outcome.shut_down);
        assert!(outcome.time_to_alarm.unwrap() < outcome.time_to_shutdown.unwrap());
        assert!(outcome.clean());
    }

    #[test]
    fn nominal_drill_telemetry_is_quiet_and_exact() {
        let obs = Registry::new();
        let outcome = nominal_drill().run(&mut rng(), Sinks::counters(&obs));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("drill.runs"), 1);
        assert_eq!(snap.counter("drill.steps"), outcome.steps as u64);
        assert_eq!(snap.counter("drill.steps"), 300, "10 min at 2 s scans");
        // a healthy plant with honest sensors defends against nothing
        assert_eq!(snap.counter("drill.plausibility.rejections"), 0);
        assert_eq!(snap.counter("drill.plausibility.dropouts"), 0);
        assert_eq!(snap.counter("drill.median_vote.degraded"), 0);
        assert_eq!(snap.counter("drill.alarm_transitions"), 0);
        assert_eq!(snap.counter("drill.shutdowns"), 0);
        assert_eq!(snap.counter("drill.violation_steps"), 0);
        assert_eq!(snap.counter("drill.solver_failures"), 0);
        // one baseline solve + one nominal-state relinearization
        assert_eq!(snap.counter("drill.relinearizations"), 1);
        assert_eq!(snap.counter("immersion.ladder.calls"), 2);
        assert_eq!(snap.counter("immersion.ladder.escalations"), 0);
    }

    #[test]
    fn sensor_storm_telemetry_counts_the_defenses() {
        let timeline = FaultTimeline::new()
            .with_event(
                Seconds::minutes(3.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::AgentTemperature,
                    fault: SensorFault::StuckAt(45.0),
                },
            )
            .with_event(
                Seconds::minutes(5.0),
                FaultKind::SensorFault {
                    channel: SensorChannel::CoolantFlow,
                    fault: SensorFault::Dropout,
                },
            );
        let drill = FaultDrill::skat("sensor storm", timeline, Seconds::minutes(12.0));
        let obs = Registry::new();
        let outcome = drill.run(&mut rng(), Sinks::counters(&obs));
        let snap = obs.snapshot();
        // the stuck agent channel is rejected scan after scan, and the
        // flow dropout is a dropout per scan from minute 5 onward
        assert!(snap.counter("drill.plausibility.rejections") > 0);
        assert!(snap.counter("drill.plausibility.dropouts") > 0);
        // all of it defended: no alarms, no shutdown, no violations
        assert_eq!(snap.counter("drill.alarm_transitions"), 0);
        assert_eq!(snap.counter("drill.shutdowns"), 0);
        assert_eq!(snap.counter("drill.violation_steps"), 0);
        assert!(outcome.clean());
    }

    #[test]
    fn shutdown_drill_records_the_alarm_and_stop() {
        let timeline = FaultTimeline::new()
            .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
        let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(20.0));
        let obs = Registry::new();
        let outcome = drill.run(&mut rng(), Sinks::counters(&obs));
        assert!(outcome.shut_down);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("drill.shutdowns"), 1);
        assert!(snap.counter("drill.alarm_transitions") >= 1);
        assert_eq!(snap.counter("drill.violation_steps"), 0);
    }

    #[test]
    fn observed_and_plain_drills_produce_identical_outcomes() {
        let timeline = FaultTimeline::new()
            .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
        let drill = FaultDrill::skat("parity", timeline, Seconds::minutes(8.0));
        let plain = drill.run(&mut Rng::seed_from_u64(123), Sinks::disabled());
        let observed = drill.run(
            &mut Rng::seed_from_u64(123),
            Sinks::counters(&Registry::new()),
        );
        assert_eq!(plain, observed);
    }

    #[test]
    fn drills_are_deterministic_for_equal_rngs() {
        let timeline = FaultTimeline::new()
            .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
        let drill = FaultDrill::skat("determinism", timeline, Seconds::minutes(8.0));
        let a = drill.run(&mut Rng::seed_from_u64(123), Sinks::disabled());
        let b = drill.run(&mut Rng::seed_from_u64(123), Sinks::disabled());
        assert_eq!(a, b);
    }

    /// Runs `drill` straight through, then split at every scan in
    /// `splits`: checkpoint there, resume into fresh sinks and finish.
    /// Every split must reproduce the straight run bit for bit.
    fn assert_resume_is_bitwise(drill: &FaultDrill, steps: usize, splits: &[u64]) {
        use rcs_obs::trace::TraceRecorder;

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let mut rng_ref = rng();
        let reference = drill.run(&mut rng_ref, sinks_ref);
        assert_eq!(reference.steps, steps);

        for &k in splits {
            let obs_a = Registry::new();
            let trace_a = TraceRecorder::new();
            let sinks_a = Sinks {
                obs: &obs_a,
                trace: &trace_a,
                ..Sinks::disabled()
            };
            let mut session = DrillSession::new(drill, Rng::seed_from_u64(7), true, sinks_a)
                .expect("baseline solves");
            session.run(drill, sinks_a, k);
            let bytes = session.checkpoint(sinks_a);

            let obs_b = Registry::new();
            let trace_b = TraceRecorder::new();
            let sinks_b = Sinks {
                obs: &obs_b,
                trace: &trace_b,
                ..Sinks::disabled()
            };
            let mut resumed = DrillSession::resume(drill, &bytes, sinks_b).expect("snapshot opens");
            while resumed.step(drill, sinks_b) {}
            assert!(resumed.clock.is_finished());
            let (outcome, final_rng) = resumed.finish(Sinks::counters(&obs_b));

            let name = &drill.name;
            assert_eq!(outcome, reference, "{name}: outcome diverged at split {k}");
            assert_eq!(
                obs_b.snapshot(),
                obs_ref.snapshot(),
                "{name}: golden counters diverged at split {k}"
            );
            assert_eq!(
                trace_b.snapshot(),
                trace_ref.snapshot(),
                "{name}: traces diverged at split {k}"
            );
            assert_eq!(
                final_rng.state(),
                rng_ref.state(),
                "{name}: rng stream diverged at split {k}"
            );
        }
    }

    #[test]
    fn drill_session_checkpoint_resume_is_bitwise_identical() {
        // A drill that exercises every stateful subsystem: the pump
        // seizure trips relinearizations, alarms, throttles and an
        // emergency shutdown, so filter histories, vote tallies and the
        // partial outcome are all non-trivial at the split points.
        // Splits straddle the seizure (scan 60), the shutdown region and
        // both endpoints (0 = checkpoint before any scan, 600 = after
        // the last one); 20 min at 2 s scans is 600 scans.
        let seizure = FaultDrill::skat(
            "resume",
            FaultTimeline::new()
                .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 }),
            Seconds::minutes(20.0),
        );
        assert_resume_is_bitwise(&seizure, 600, &[0, 1, 59, 60, 61, 137, 599, 600]);

        // Growing fouling relinearizes the loaded plant every 5th scan,
        // each solve seeded from the one before. Splits between two
        // seeded relinearizations resume only if the seed round-trips
        // through the snapshot: the resumed solve must start where the
        // uninterrupted one does, or its iteration counts drift.
        let fouling = FaultDrill::skat(
            "resume fouling",
            FaultTimeline::new().with_event(
                Seconds::minutes(1.0),
                FaultKind::ExchangerFouling {
                    rate_k_per_w_per_hour: 0.002,
                },
            ),
            Seconds::minutes(20.0),
        );
        // The supervisor throttles this drill every few minutes, and
        // each throttle step starts a new regime: the relinearizations
        // at scans 145 (a regime reset), 150 and 155 are the first three
        // of one regime, so splits 147, 152 and 157 follow its 1st, 2nd
        // and 3rd, and 206 follows the reset at scan 205, whose regime
        // then continues. They resume only if the whole seed history and
        // its regime round-trip through the snapshot.
        assert_resume_is_bitwise(&fouling, 600, &[0, 33, 147, 152, 157, 206, 212, 477]);
    }

    fn seed_at(x: [f64; 4]) -> SteadySeed {
        SteadySeed {
            junction: Celsius::new(x[0]),
            coolant_hot: Celsius::new(x[1]),
            coolant_cold: Celsius::new(x[2]),
            flow: VolumeFlow::from_cubic_meters_per_second(x[3]),
        }
    }

    fn components(s: SteadySeed) -> [f64; 4] {
        [
            s.junction.degrees(),
            s.coolant_hot.degrees(),
            s.coolant_cold.degrees(),
            s.flow.cubic_meters_per_second(),
        ]
    }

    fn regime(utilization: f64) -> Regime {
        Regime {
            seized: Vec::new(),
            valve: 1.0,
            utilization,
            powered: true,
        }
    }

    /// A path with the seeds at `points` recorded in order, in one
    /// regime at utilization 0.9, starting from `baseline`.
    fn path_through(baseline: [f64; 4], points: &[(f64, [f64; 4])]) -> SeedPath {
        let mut path = SeedPath::new(seed_at(baseline));
        for &(t, x) in points {
            let _ = path.start(&regime(0.9), t);
            path.record(t, seed_at(x));
        }
        path
    }

    #[test]
    fn the_extrapolation_reproduces_linear_and_quadratic_paths() {
        // Unequal spacing, and each component on its own path.
        let linear = |t: f64| {
            [
                50.0 + 0.01 * t,
                30.0 - 0.002 * t,
                25.0 + 1e-4 * t,
                1e-3 - 1e-7 * t,
            ]
        };
        let quadratic = |t: f64| {
            [
                50.0 + 0.01 * t + 3e-5 * t * t,
                30.0 - 0.002 * t + 1e-6 * t * t,
                25.0 - 2e-6 * t * t,
                1e-3 - 1e-7 * t - 1e-10 * t * t,
            ]
        };
        let times = [60.0, 70.0, 90.0];
        let t = 120.0;
        let close = |got: [f64; 4], want: [f64; 4], what: &str| {
            for (g, w) in got.into_iter().zip(want) {
                assert!((g - w).abs() <= 1e-12 * w.abs(), "{what}: {g} vs {w}");
            }
        };
        for (name, f) in [
            ("linear", &linear as &dyn Fn(f64) -> [f64; 4]),
            ("quadratic", &quadratic),
        ] {
            let points: Vec<_> = times.iter().map(|&t| (t, f(t))).collect();
            let path = path_through(f(0.0), &points);
            assert_eq!(path.times, times);
            close(components(path.predict(t)), f(t), name);
        }
        // Two points of the linear path carry it too.
        let path = path_through(linear(0.0), &[(70.0, linear(70.0)), (90.0, linear(90.0))]);
        close(components(path.predict(t)), linear(t), "two-point linear");
        // One point is the plain seed, bit for bit.
        let path = path_through(linear(0.0), &[(90.0, linear(90.0))]);
        assert_eq!(path.predict(t), seed_at(linear(90.0)));
    }

    #[test]
    fn equal_spacing_gives_the_backward_difference_weights() {
        assert_eq!(
            lagrange_weights(&[10.0, 20.0, 30.0], 40.0),
            [1.0, -3.0, 3.0]
        );
        assert_eq!(lagrange_weights(&[20.0, 30.0], 40.0), [-1.0, 2.0]);
        assert_eq!(lagrange_weights(&[30.0], 40.0), [1.0]);
        assert!(lagrange_weights(&[10.0, 10.0, 30.0], 40.0)
            .iter()
            .any(|w| !w.is_finite()));
    }

    #[test]
    fn a_non_finite_or_flowless_prediction_drops_one_order() {
        let x = |flow: f64| [55.0, 31.0, 26.0, flow];
        let at = |t: f64, flow: f64| (t, x(flow));
        // Equal spacing: the quadratic is f0 − 3f1 + 3f2, the line
        // 2f2 − f1.
        let quadratic = path_through(x(1.0), &[at(10.0, 1.0), at(20.0, 1.5), at(30.0, 1.75)]);
        assert_eq!(quadratic.predict(40.0), seed_at(x(1.0 - 4.5 + 5.25)));

        // A quadratic with no forward flow falls back to the line.
        let path = path_through(x(1.0), &[at(10.0, 0.5), at(20.0, 3.0), at(30.0, 2.5)]);
        assert_eq!(path.predict(40.0), seed_at(x(2.0)));
        // A line with no forward flow falls back to the plain seed.
        let path = path_through(x(1.0), &[at(20.0, 3.0), at(30.0, 1.0)]);
        assert_eq!(path.predict(40.0), seed_at(x(1.0)));

        // A non-finite oldest point spoils only the quadratic.
        let mut path = path_through(x(1.0), &[at(10.0, 1.0), at(20.0, 1.5), at(30.0, 1.75)]);
        path.earlier[0].junction = Celsius::new(f64::INFINITY);
        assert_eq!(path.predict(40.0), seed_at([55.0, 31.0, 26.0, 2.0]));

        // Coincident scan times (only a corrupted snapshot has them)
        // give non-finite weights: the quadratic falls back to the line,
        // and a coincident pair falls back to the plain seed.
        let mut path = path_through(x(1.0), &[at(10.0, 1.0), at(20.0, 1.5), at(30.0, 1.75)]);
        path.times = vec![20.0, 20.0, 30.0];
        assert_eq!(path.predict(40.0), seed_at(x(2.0)));
        path.times = vec![10.0, 30.0, 30.0];
        assert_eq!(path.predict(40.0), seed_at(x(1.75)));
    }

    /// A nominal drill's session twelve scans in, edited by `edit`
    /// through its private fields, checkpointed and resumed.
    fn resumed_after(
        supervised: bool,
        edit: impl FnOnce(&mut DrillSession),
    ) -> Result<DrillSession, SnapshotError> {
        let drill = nominal_drill();
        let mut session = DrillSession::new(&drill, rng(), supervised, Sinks::disabled())
            .expect("baseline solves");
        session.run(&drill, Sinks::disabled(), 12);
        edit(&mut session);
        let bytes = session.checkpoint(Sinks::disabled());
        DrillSession::resume(&drill, &bytes, Sinks::disabled())
    }

    fn assert_malformed(result: Result<DrillSession, SnapshotError>, what: &str) {
        match result {
            Err(SnapshotError::Malformed(msg)) => assert!(!msg.is_empty()),
            Err(other) => panic!("{what}: {other}"),
            Ok(_) => panic!("{what} decoded"),
        }
    }

    #[test]
    fn a_seed_history_round_trips_and_inconsistent_counts_are_malformed() {
        let x = |flow: f64| [55.0, 31.0, 26.0, flow];
        let path = path_through(x(1.0), &[(10.0, x(1.0)), (20.0, x(1.5)), (30.0, x(1.75))]);
        let back = resumed_after(true, |s| s.seeds = path.clone())
            .expect("snapshot opens")
            .seeds;
        assert_eq!(
            (back.seed, &back.earlier, &back.times, &back.regime),
            (path.seed, &path.earlier, &path.times, &path.regime)
        );

        // (earlier seeds, scan times) pairs no path can hold.
        for (earlier, times) in [(3, 4), (1, 0), (1, 1), (0, 2), (2, 2)] {
            let result = resumed_after(true, |s| {
                s.seeds.earlier = vec![path.seed; earlier];
                s.seeds.times = vec![10.0; times];
            });
            assert_malformed(
                result,
                &format!("{earlier} earlier seeds with {times} scan times"),
            );
        }
    }

    #[test]
    fn a_linearization_and_its_key_come_back_together_or_not_at_all() {
        // Twelve scans in, both are cached; a resumed drill with the key
        // but no plant skipped the relinearization and then panicked at
        // its next scan.
        let both = resumed_after(true, |_| {}).expect("snapshot opens");
        assert!(both.lin.is_some() && both.lin_key.is_some());
        assert_malformed(
            resumed_after(true, |s| s.lin = None),
            "a key without a plant",
        );
        assert_malformed(
            resumed_after(true, |s| s.lin_key = None),
            "a plant without a key",
        );
    }

    #[test]
    fn a_utilization_outside_the_unit_interval_is_malformed() {
        // An unsupervised drill integrates at the stored utilization
        // straight away, and the operating point refuses it.
        for utilization in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert_malformed(
                resumed_after(false, |s| s.utilization = utilization),
                &format!("utilization {utilization}"),
            );
        }
        let edge = resumed_after(false, |s| s.utilization = 1.0).expect("1.0 is a load");
        assert_eq!(edge.utilization, 1.0);
    }

    #[test]
    fn a_throttle_step_clears_the_history() {
        let x = |flow: f64| [55.0, 31.0, 26.0, flow];
        let mut path = path_through(x(1.0), &[(10.0, x(1.0)), (20.0, x(1.5)), (30.0, x(1.75))]);
        assert_eq!(path.start(&regime(0.9), 40.0), seed_at(x(1.0 - 4.5 + 5.25)));

        // One throttle step later the last steady state is the start,
        // and the history restarts from the next solve.
        let throttled = regime(0.9 - THROTTLE_STEP);
        assert_eq!(path.start(&throttled, 40.0), seed_at(x(1.75)));
        assert!(path.earlier.is_empty() && path.times.is_empty());
        path.record(40.0, seed_at(x(1.25)));
        assert_eq!(path.times, [40.0]);
        assert_eq!(path.start(&throttled, 50.0), seed_at(x(1.25)));

        // A pump seizure is a new regime too.
        path.record(50.0, seed_at(x(1.0)));
        let seized = Regime {
            seized: vec![0],
            ..throttled.clone()
        };
        assert_eq!(path.start(&seized, 60.0), seed_at(x(1.0)));
        assert!(path.times.is_empty());
    }

    #[test]
    fn corrupt_drill_snapshot_is_a_structured_error() {
        use rcs_obs::trace::TraceRecorder;

        let drill = nominal_drill();
        let obs = Registry::new();
        let trace = TraceRecorder::new();
        let sinks = Sinks {
            obs: &obs,
            trace: &trace,
            ..Sinks::disabled()
        };
        let mut session = DrillSession::new(&drill, rng(), true, sinks).unwrap();
        session.run(&drill, sinks, 50);
        let bytes = session.checkpoint(sinks);

        // Bit flip anywhere in the payload: caught by the CRC.
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        assert!(matches!(
            DrillSession::resume(
                &drill,
                &flipped,
                Sinks {
                    obs: &Registry::new(),
                    trace: &TraceRecorder::new(),
                    ..Sinks::disabled()
                }
            ),
            Err(SnapshotError::BadCrc { .. })
        ));

        // Truncation: never a panic, always a structured error.
        for cut in [0, 3, 8, bytes.len() - 9, bytes.len() - 1] {
            assert!(
                DrillSession::resume(
                    &drill,
                    &bytes[..cut],
                    Sinks {
                        obs: &Registry::new(),
                        trace: &TraceRecorder::new(),
                        ..Sinks::disabled()
                    }
                )
                .is_err(),
                "truncated at {cut}"
            );
        }

        // A valid snapshot of a *different* kind is refused by name.
        let foreign = rcs_kernel::seal("some.other.session", b"payload");
        assert!(matches!(
            DrillSession::resume(
                &drill,
                &foreign,
                Sinks {
                    obs: &Registry::new(),
                    trace: &TraceRecorder::new(),
                    ..Sinks::disabled()
                }
            ),
            Err(SnapshotError::BadKind { .. })
        ));
    }

    #[test]
    fn drill_horizon_seam_never_double_counts_the_final_scan() {
        // Horizons a hair either side of an exact scan multiple: the
        // kernel's ceil-based scheduler and the per-step clamp must
        // agree. Below the multiple the last scan is clamped short; just
        // above it one extra (tiny) scan runs; neither side integrates a
        // phantom zero- or negative-width step.
        let eps = 1e-9;
        let n = 150.0; // 150 scans at SCAN_DT = 2 s -> 300 s
        let base = n * SCAN_DT.seconds();

        let below = FaultDrill::skat("seam below", FaultTimeline::new(), Seconds::new(base - eps))
            .run_open_loop(&mut rng(), Sinks::disabled());
        let exact = FaultDrill::skat("seam exact", FaultTimeline::new(), Seconds::new(base))
            .run_open_loop(&mut rng(), Sinks::disabled());
        let above = FaultDrill::skat("seam above", FaultTimeline::new(), Seconds::new(base + eps))
            .run_open_loop(&mut rng(), Sinks::disabled());

        assert_eq!(below.steps, 150, "clamped final scan, not a dropped one");
        assert_eq!(exact.steps, 150);
        assert_eq!(above.steps, 151, "the ε overhang is one extra clamped scan");
        assert!(below.peak_junction.degrees().is_finite());
        assert!(above.peak_junction.degrees().is_finite());
    }
}
