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
use rcs_cooling::plausibility::{
    median_vote, ChannelLimits, ChannelStatus, FilterState, PlausibilityFilter,
};
use rcs_cooling::ImmersionBath;
use rcs_devices::OperatingPoint;
use rcs_kernel::{Clock, SinkState, SnapReader, SnapWriter, SnapshotError};
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};
use rcs_platform::ComputeModule;
use rcs_units::{Celsius, Seconds, VolumeFlow};

use crate::error::CoreError;
use crate::immersion::{pump_heat, ImmersionModel};

/// Snapshot kind tag for [`DrillSession`] checkpoints.
pub const DRILL_SNAPSHOT_KIND: &str = "core.drill";

/// Sensor scan interval.
pub const SCAN_DT: Seconds = Seconds::new(2.0);

/// Steps between checks for plant relinearization (the steady solver is
/// re-run only when the degraded physics actually changed).
const RELINEARIZE_EVERY: usize = 5;

/// Redundant component-temperature probes per module.
pub const COMPONENT_PROBES: usize = 3;

/// Protective margin below the hardware reliability ceiling at which the
/// hardened supervisor trips its emergency stop. Sized for the
/// worst-case heating rate in the drill set (a fully stagnant bath heats
/// the chip field at ~0.6 K/s, ~1.2 K per scan).
pub const SHUTDOWN_MARGIN_K: f64 = 3.5;

/// Stagnation penalty on the chip-to-bath resistance when circulation is
/// lost entirely (natural convection instead of forced turbulator flow).
const STAGNANT_SINK_FACTOR: f64 = 5.0;

/// Residual bath-to-water conductance path with no circulation: natural
/// convection through the heat-exchange section plus wall conduction.
const STAGNANT_HX_RESISTANCE_K_PER_W: f64 = 0.02;

/// Per-chip thermal capacitance (die + sink + local board mass), J/K.
const CHIP_FIELD_CAPACITANCE_PER_CHIP: f64 = 150.0;

/// Nominal bath oil volume, m³.
const BATH_VOLUME_M3: f64 = 0.060;

/// Utilization floor the throttle policy will not go below.
const UTILIZATION_FLOOR: f64 = 0.20;

/// Throttle step per scan on a `ThrottleLoad` recommendation.
const THROTTLE_STEP: f64 = 0.05;

/// The raw (possibly lying) sensor samples delivered in one scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawScan {
    /// Level transmitter (fraction of nominal fill), `None` on dropout.
    pub level: Option<f64>,
    /// Flow transmitter (L/min), `None` on dropout.
    pub flow_lpm: Option<f64>,
    /// Agent temperature transmitter (°C), `None` on dropout.
    pub agent_c: Option<f64>,
    /// Redundant component-temperature probes (°C).
    pub component_c: [Option<f64>; COMPONENT_PROBES],
}

/// Worst health seen per channel across a drill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    fn all_valid() -> Self {
        Self {
            level: ChannelStatus::Valid,
            flow: ChannelStatus::Valid,
            agent: ChannelStatus::Valid,
            component: [ChannelStatus::Valid; COMPONENT_PROBES],
        }
    }

    /// `true` when every channel stayed `Valid` for the whole drill.
    #[must_use]
    pub fn is_all_valid(&self) -> bool {
        self.level == ChannelStatus::Valid
            && self.flow == ChannelStatus::Valid
            && self.agent == ChannelStatus::Valid
            && self.component.iter().all(|s| *s == ChannelStatus::Valid)
    }

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
pub struct HardenedSupervisor {
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
    pub fn new(base: ControlSubsystem) -> Self {
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
            worst_seen: ChannelHealth::all_valid(),
            votes_degraded: 0,
            vote_fallbacks: 0,
        }
    }

    /// The worst status each channel reached so far.
    #[must_use]
    pub fn channel_health(&self) -> ChannelHealth {
        self.worst_seen
    }

    /// Total implausible-but-delivered samples rejected across every
    /// channel so far (range or rate check).
    #[must_use]
    pub fn plausibility_rejections(&self) -> u64 {
        self.filters().map(PlausibilityFilter::rejected).sum()
    }

    /// Total dropouts (missing samples) across every channel so far.
    #[must_use]
    pub fn plausibility_dropouts(&self) -> u64 {
        self.filters().map(PlausibilityFilter::dropouts).sum()
    }

    /// Scans where the component-temperature median vote ran on fewer
    /// than [`COMPONENT_PROBES`] live probes (an override of at least
    /// one probe, but a live quorum remained).
    #[must_use]
    pub fn votes_degraded(&self) -> u64 {
        self.votes_degraded
    }

    /// Scans where no probe was live at all and the vote fell back to
    /// held last-good values.
    #[must_use]
    pub fn vote_fallbacks(&self) -> u64 {
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
    pub fn scan(&mut self, t: Seconds, raw: &RawScan) -> (Readings, Vec<Alarm>, Action) {
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
    fn linearize(
        &self,
        state: &DegradedState,
        utilization: f64,
        r_chip_baseline: f64,
        chips: f64,
        sinks: Sinks<'_>,
    ) -> Result<Linearization, CoreError> {
        let degraded_bath = state.apply_to(&self.bath);
        let curves = state.pump_curves(&self.bath);

        if curves.is_empty() || state.valve_opening <= 0.0 {
            // no circulation: natural convection at the sinks, residual
            // conduction (plus any fouling) through the exchanger section
            return Ok(Linearization {
                flow_lpm: 0.0,
                r_field: STAGNANT_SINK_FACTOR * r_chip_baseline / chips,
                r_hx: STAGNANT_HX_RESISTANCE_K_PER_W + state.fouling_k_per_w,
                supply_c: degraded_bath.chiller.setpoint().degrees(),
                pump_heat_w: 0.0,
            });
        }

        let mut model = ImmersionModel::new(self.module.clone(), degraded_bath.clone())
            .with_operating_point(OperatingPoint::at_utilization(
                utilization.max(UTILIZATION_FLOOR),
            ))
            .with_pump_curves(curves);
        if state.valve_opening < 1.0 {
            model = model.with_circulation_valve(state.valve_opening);
        }
        let steady = model.solve_with_ladder(&ImmersionModel::LADDER, sinks)?;
        let (_, r_sink, r_hx) = model.lumped_plant(&steady);
        let pump = pump_heat(&degraded_bath, steady.circulation_power);
        let supply = degraded_bath
            .chiller
            .supply_temperature(steady.total_heat + pump);

        Ok(Linearization {
            flow_lpm: steady.coolant_flow.as_liters_per_minute(),
            r_field: r_sink.kelvin_per_watt() / chips,
            r_hx: r_hx.kelvin_per_watt(),
            supply_c: supply.degrees(),
            pump_heat_w: pump.watts(),
        })
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
#[derive(Debug)]
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
    supervisor: HardenedSupervisor,
    outcome: DrillOutcome,
}

fn status_to_u8(s: ChannelStatus) -> u8 {
    match s {
        ChannelStatus::Valid => 0,
        ChannelStatus::Held => 1,
        ChannelStatus::Failed => 2,
    }
}

fn status_from_u8(v: u8) -> Result<ChannelStatus, SnapshotError> {
    Ok(match v {
        0 => ChannelStatus::Valid,
        1 => ChannelStatus::Held,
        2 => ChannelStatus::Failed,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown channel status {other}"
            )))
        }
    })
}

fn write_filter(w: &mut SnapWriter, state: &FilterState) {
    match state.last_good {
        Some((t, v)) => {
            w.bool(true);
            w.f64(t);
            w.f64(v);
        }
        None => w.bool(false),
    }
    w.opt_f64(state.last_scan);
    w.opt_f64(state.held_since);
    w.u64(state.rejected);
    w.u64(state.dropouts);
}

fn read_filter(r: &mut SnapReader<'_>) -> Result<FilterState, SnapshotError> {
    let last_good = if r.bool()? {
        Some((r.f64()?, r.f64()?))
    } else {
        None
    };
    Ok(FilterState {
        last_good,
        last_scan: r.opt_f64()?,
        held_since: r.opt_f64()?,
        rejected: r.u64()?,
        dropouts: r.u64()?,
    })
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
            channel_health: ChannelHealth::all_valid(),
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
            supervisor: HardenedSupervisor::new(drill.control),
            outcome,
        })
    }

    /// Runs one sensor scan + integration step. Returns `false` once
    /// the drill horizon is reached or a mid-run solver failure ended
    /// the drill early (the call is then a no-op). Relinearizations
    /// record counters and trace samples but no spans.
    pub fn step(&mut self, drill: &FaultDrill, sinks: Sinks<'_>) -> bool {
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
                    Sinks {
                        spans: SpanSink::disabled(),
                        ..sinks
                    },
                ) {
                    Ok(l) => {
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

    /// `true` once the drill horizon is reached (or a solver failure
    /// ended the drill early).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.clock.is_finished()
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
    /// filter histories, cached linearization, RNG stream position,
    /// partial outcome — plus the contents of `sinks` (the span sink's
    /// open stack included, so a span bracketing this drill survives the
    /// checkpoint) into versioned snapshot bytes.
    #[must_use]
    pub fn checkpoint(&self, sinks: Sinks<'_>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.clock.write_into(&mut w);
        w.u64_slice(&self.rng.state());
        w.bool(self.supervised);
        w.bool(self.powered);
        w.bool(self.alarming);
        w.f64(self.t_chip);
        w.f64(self.t_bath);
        w.f64(self.utilization);
        w.f64(self.chips);
        w.f64(self.c_chip);
        w.f64(self.r_chip_baseline);
        match &self.lin {
            Some(l) => {
                w.bool(true);
                w.f64(l.flow_lpm);
                w.f64(l.r_field);
                w.f64(l.r_hx);
                w.f64(l.supply_c);
                w.f64(l.pump_heat_w);
            }
            None => w.bool(false),
        }
        match &self.lin_key {
            Some(k) => {
                w.bool(true);
                #[allow(clippy::cast_possible_truncation)]
                let seized: Vec<u64> = k.seized.iter().map(|&p| p as u64).collect();
                w.u64_slice(&seized);
                w.f64(k.head_factor);
                w.f64(k.air_factor);
                w.f64(k.fouling);
                w.f64(k.offset_k);
                w.f64(k.capacity);
                w.f64(k.valve);
                w.f64(k.utilization);
                w.bool(k.powered);
            }
            None => w.bool(false),
        }
        // Supervisor: worst-seen statuses, vote tallies, filter states.
        let health = self.supervisor.worst_seen;
        w.u8(status_to_u8(health.level));
        w.u8(status_to_u8(health.flow));
        w.u8(status_to_u8(health.agent));
        for s in health.component {
            w.u8(status_to_u8(s));
        }
        w.u64(self.supervisor.votes_degraded);
        w.u64(self.supervisor.vote_fallbacks);
        write_filter(&mut w, &self.supervisor.level.state());
        write_filter(&mut w, &self.supervisor.flow.state());
        write_filter(&mut w, &self.supervisor.agent.state());
        for f in &self.supervisor.component {
            write_filter(&mut w, &f.state());
        }
        // Partial outcome.
        w.opt_f64(self.outcome.time_to_alarm.map(|s| s.seconds()));
        w.opt_f64(self.outcome.time_to_shutdown.map(|s| s.seconds()));
        w.bool(self.outcome.shut_down);
        w.f64(self.outcome.peak_junction.degrees());
        w.f64(self.outcome.peak_agent.degrees());
        w.u64(self.outcome.violation_steps as u64);
        w.f64(self.outcome.min_utilization);
        match &self.outcome.solver_failure {
            Some(msg) => {
                w.bool(true);
                w.str(msg);
            }
            None => w.bool(false),
        }
        w.u64(self.outcome.steps as u64);
        SinkState::capture(sinks).write_into(&mut w);
        rcs_kernel::seal(DRILL_SNAPSHOT_KIND, &w.into_bytes())
    }

    /// Reconstructs a session from [`DrillSession::checkpoint`] bytes,
    /// restoring the captured telemetry into the (fresh) `sinks`. The
    /// resumed session finishes bitwise identically to the
    /// uninterrupted one — including every remaining RNG draw.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on corrupted or truncated bytes or a snapshot
    /// of a different kind. The `drill` must be the same script the
    /// checkpoint was taken from; the snapshot stores only the mutable
    /// state, not the script.
    pub fn resume(
        drill: &FaultDrill,
        bytes: &[u8],
        sinks: Sinks<'_>,
    ) -> Result<Self, SnapshotError> {
        let payload = rcs_kernel::open(DRILL_SNAPSHOT_KIND, bytes)?;
        let mut r = SnapReader::new(payload);
        let clock = Clock::read_from(&mut r)?;
        let rng_state = r.u64_vec()?;
        let rng_state: [u64; 4] = rng_state.as_slice().try_into().map_err(|_| {
            SnapshotError::Malformed(format!("rng state has {} words, need 4", rng_state.len()))
        })?;
        if rng_state.iter().all(|&wd| wd == 0) {
            return Err(SnapshotError::Malformed("rng state is all zero".to_owned()));
        }
        let supervised = r.bool()?;
        let powered = r.bool()?;
        let alarming = r.bool()?;
        let t_chip = r.f64()?;
        let t_bath = r.f64()?;
        let utilization = r.f64()?;
        let chips = r.f64()?;
        let c_chip = r.f64()?;
        let r_chip_baseline = r.f64()?;
        let lin = if r.bool()? {
            Some(Linearization {
                flow_lpm: r.f64()?,
                r_field: r.f64()?,
                r_hx: r.f64()?,
                supply_c: r.f64()?,
                pump_heat_w: r.f64()?,
            })
        } else {
            None
        };
        let lin_key = if r.bool()? {
            let seized_raw = r.u64_vec()?;
            let mut seized = Vec::with_capacity(seized_raw.len());
            for v in seized_raw {
                seized.push(usize::try_from(v).map_err(|_| {
                    SnapshotError::Malformed(format!("seized pump index {v} overflows usize"))
                })?);
            }
            Some(LinKey {
                seized,
                head_factor: r.f64()?,
                air_factor: r.f64()?,
                fouling: r.f64()?,
                offset_k: r.f64()?,
                capacity: r.f64()?,
                valve: r.f64()?,
                utilization: r.f64()?,
                powered: r.bool()?,
            })
        } else {
            None
        };
        let mut supervisor = HardenedSupervisor::new(drill.control);
        supervisor.worst_seen = ChannelHealth {
            level: status_from_u8(r.u8()?)?,
            flow: status_from_u8(r.u8()?)?,
            agent: status_from_u8(r.u8()?)?,
            component: [
                status_from_u8(r.u8()?)?,
                status_from_u8(r.u8()?)?,
                status_from_u8(r.u8()?)?,
            ],
        };
        supervisor.votes_degraded = r.u64()?;
        supervisor.vote_fallbacks = r.u64()?;
        supervisor.level.restore_state(&read_filter(&mut r)?);
        supervisor.flow.restore_state(&read_filter(&mut r)?);
        supervisor.agent.restore_state(&read_filter(&mut r)?);
        for f in &mut supervisor.component {
            f.restore_state(&read_filter(&mut r)?);
        }
        let time_to_alarm = r.opt_f64()?.map(Seconds::new);
        let time_to_shutdown = r.opt_f64()?.map(Seconds::new);
        let shut_down = r.bool()?;
        let peak_junction = Celsius::new(r.f64()?);
        let peak_agent = Celsius::new(r.f64()?);
        let violation_steps = r.u64()?;
        let min_utilization = r.f64()?;
        let solver_failure = if r.bool()? { Some(r.str()?) } else { None };
        let steps = r.u64()?;
        let captured = SinkState::read_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after drill session state".to_owned(),
            ));
        }
        captured.restore(sinks)?;
        let to_usize = |v: u64, what: &str| {
            usize::try_from(v)
                .map_err(|_| SnapshotError::Malformed(format!("{what} {v} overflows usize")))
        };
        let outcome = DrillOutcome {
            name: drill.name.clone(),
            design: drill.module.name().to_owned(),
            supervised,
            time_to_alarm,
            time_to_shutdown,
            shut_down,
            peak_junction,
            peak_agent,
            violation_steps: to_usize(violation_steps, "violation steps")?,
            min_utilization,
            channel_health: ChannelHealth::all_valid(),
            solver_failure,
            steps: to_usize(steps, "steps")?,
        };
        Ok(Self {
            clock,
            rng: Rng::from_state(rng_state),
            supervised,
            powered,
            alarming,
            t_chip,
            t_bath,
            utilization,
            chips,
            c_chip,
            r_chip_baseline,
            lin,
            lin_key,
            supervisor,
            outcome,
        })
    }
}

/// Two-node transient coefficients extracted from a degraded steady
/// solve (all raw f64, K/W and °C, for the inner Euler loop).
#[derive(Debug, Clone)]
struct Linearization {
    flow_lpm: f64,
    r_field: f64,
    r_hx: f64,
    supply_c: f64,
    pump_heat_w: f64,
}

/// Cache key deciding whether the plant must be relinearized: the
/// physics-affecting slice of the degraded state plus the allowed load.
#[derive(Debug, Clone, PartialEq)]
struct LinKey {
    seized: Vec<usize>,
    head_factor: f64,
    air_factor: f64,
    fouling: f64,
    offset_k: f64,
    capacity: f64,
    valve: f64,
    utilization: f64,
    powered: bool,
}

impl LinKey {
    fn of(state: &DegradedState, utilization: f64, powered: bool) -> Self {
        Self {
            seized: state.seized_pumps.clone(),
            head_factor: state.pump_head_factor,
            air_factor: state.air_entrainment_factor(),
            fouling: state.fouling_k_per_w,
            offset_k: state.chiller_setpoint_offset.kelvins(),
            capacity: state.chiller_capacity_factor,
            valve: state.valve_opening,
            utilization,
            powered,
        }
    }
}

/// What a drill produced.
#[derive(Debug, Clone, PartialEq)]
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
        assert!(outcome.channel_health.is_all_valid());
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
        assert!(!outcome.channel_health.is_all_valid());
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

    #[test]
    fn drill_session_checkpoint_resume_is_bitwise_identical() {
        use rcs_obs::trace::TraceRecorder;

        // A drill that exercises every stateful subsystem: the pump
        // seizure trips relinearizations, alarms, throttles and an
        // emergency shutdown, so filter histories, vote tallies and the
        // partial outcome are all non-trivial at the split points.
        let timeline = || {
            FaultTimeline::new()
                .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 })
        };
        let drill = FaultDrill::skat("resume", timeline(), Seconds::minutes(20.0));

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let mut rng_ref = rng();
        let reference = drill.run(&mut rng_ref, sinks_ref);
        assert_eq!(reference.steps, 600, "20 min at 2 s scans");

        // Splits straddle the seizure (scan 60), the shutdown region and
        // both endpoints (0 = checkpoint before any scan, 600 = after
        // the last one).
        for k in [0u64, 1, 59, 60, 61, 137, 599, 600] {
            let obs_a = Registry::new();
            let trace_a = TraceRecorder::new();
            let sinks_a = Sinks {
                obs: &obs_a,
                trace: &trace_a,
                ..Sinks::disabled()
            };
            let mut session = DrillSession::new(&drill, Rng::seed_from_u64(7), true, sinks_a)
                .expect("baseline solves");
            session.run(&drill, sinks_a, k);
            let bytes = session.checkpoint(sinks_a);

            let obs_b = Registry::new();
            let trace_b = TraceRecorder::new();
            let sinks_b = Sinks {
                obs: &obs_b,
                trace: &trace_b,
                ..Sinks::disabled()
            };
            let mut resumed =
                DrillSession::resume(&drill, &bytes, sinks_b).expect("snapshot opens");
            while resumed.step(&drill, sinks_b) {}
            assert!(resumed.is_finished());
            let (outcome, final_rng) = resumed.finish(Sinks::counters(&obs_b));

            assert_eq!(outcome, reference, "outcome diverged at split {k}");
            assert_eq!(
                obs_b.snapshot(),
                obs_ref.snapshot(),
                "golden counters diverged at split {k}"
            );
            assert_eq!(
                trace_b.snapshot(),
                trace_ref.snapshot(),
                "traces diverged at split {k}"
            );
            assert_eq!(
                final_rng.state(),
                rng_ref.state(),
                "rng stream diverged at split {k}"
            );
        }
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
